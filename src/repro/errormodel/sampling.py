"""Error-pattern generators for the Table-2 / Figure-8 evaluation.

Following the paper's methodology (Section 7.1):

* **bit, pin, byte and 2-bit** errors are enumerated *exhaustively* — their
  spaces are small (288, 792, 8,892 and 39,888 patterns respectively);
* **3-bit** errors can be enumerated exhaustively (~3.7M patterns) or
  sampled; and
* **beat and entry** errors are sampled uniformly at random (the paper uses
  1e7/1e9 samples on its cluster; the sample count here is a parameter).

"Uniformly random" for beat/entry errors means every bit of the region is
flipped independently with probability 1/2 — the conservative
random-corruption model Section 5 selects — followed by rejection of the
(vanishingly rare) draws that degrade into an easier pattern, matching the
priority rule of Table 1.

Sampled patterns are drawn straight into packed words; their keep-rules
select exactly the rows :func:`classify_errors_batch` labels with the
pattern, and the unpacked ``sample_*_errors`` unpack those words.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from repro.core.layout import (
    BITS_PER_BYTE,
    BYTES_PER_BEAT,
    ENTRY_BITS,
    ENTRY_WORDS,
    NUM_BEATS,
    NUM_BYTES,
    NUM_PINS,
    bits_of_byte,
    bits_of_pin,
    byte_of,
    pin_of,
)
# perfbench's tracer wraps this module attribute; the packed keep-rules
# no longer call it.
from repro.errormodel.classify import classify_errors_batch  # noqa: F401
from repro.errormodel.patterns import ErrorPattern
from repro.gf.gf2 import bytes_from_rows, pack_rows, unpack_rows, words_from_bytes

__all__ = [
    "enumerate_bit_errors",
    "enumerate_pin_errors",
    "enumerate_byte_errors",
    "enumerate_double_bit_errors",
    "enumerate_bit_errors_packed",
    "enumerate_pin_errors_packed",
    "enumerate_byte_errors_packed",
    "enumerate_double_bit_errors_packed",
    "iter_triple_bit_errors",
    "iter_triple_bit_errors_packed",
    "count_triple_bit_errors",
    "sample_triple_bit_errors",
    "sample_beat_errors",
    "sample_entry_errors",
    "sample_triple_bit_errors_packed",
    "sample_beat_errors_packed",
    "sample_entry_errors_packed",
    "sample_pattern",
    "pattern_space_size",
]


#: set bits of every byte value
_BYTE_WEIGHTS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1)


def _frozen(errors: np.ndarray) -> np.ndarray:
    """Mark a cached enumeration read-only so callers cannot corrupt it."""
    errors.setflags(write=False)
    return errors


def _multi_bit_masks(width: int, minimum_weight: int = 2) -> np.ndarray:
    """All ``width``-bit flip masks with at least ``minimum_weight`` bits."""
    values = np.arange(1 << width, dtype=np.int64)
    bits = ((values[:, None] >> np.arange(width)) & 1).astype(np.uint8)
    return bits[bits.sum(axis=1) >= minimum_weight]


@cache
def enumerate_bit_errors() -> np.ndarray:
    """All 288 single-bit errors (cached, read-only)."""
    return _frozen(np.eye(ENTRY_BITS, dtype=np.uint8))


@cache
def enumerate_pin_errors() -> np.ndarray:
    """All 72 pins × 11 multi-bit beat masks = 792 pin errors (cached)."""
    masks = _multi_bit_masks(NUM_BEATS)
    errors = np.zeros((NUM_PINS * masks.shape[0], ENTRY_BITS), dtype=np.uint8)
    row = 0
    for pin in range(NUM_PINS):
        positions = bits_of_pin(pin)
        for mask in masks:
            errors[row, positions] = mask
            row += 1
    return _frozen(errors)


@cache
def enumerate_byte_errors() -> np.ndarray:
    """All 36 byte positions × 247 multi-bit masks = 8,892 byte errors
    (cached)."""
    masks = _multi_bit_masks(BITS_PER_BYTE)
    errors = np.zeros((NUM_BYTES * masks.shape[0], ENTRY_BITS), dtype=np.uint8)
    row = 0
    for byte_position in range(NUM_BYTES):
        positions = bits_of_byte(byte_position)
        for mask in masks:
            errors[row, positions] = mask
            row += 1
    return _frozen(errors)


@cache
def enumerate_double_bit_errors() -> np.ndarray:
    """All bit pairs not sharing a pin or a byte (39,888 errors, cached)."""
    first, second = np.triu_indices(ENTRY_BITS, k=1)
    keep = (pin_of(first) != pin_of(second)) & (byte_of(first) != byte_of(second))
    first, second = first[keep], second[keep]
    errors = np.zeros((first.size, ENTRY_BITS), dtype=np.uint8)
    rows = np.arange(first.size)
    errors[rows, first] = 1
    errors[rows, second] = 1
    return _frozen(errors)


@cache
def enumerate_bit_errors_packed() -> np.ndarray:
    """:func:`enumerate_bit_errors` as (288, 5) packed uint64 words."""
    return _frozen(pack_rows(enumerate_bit_errors()))


@cache
def enumerate_pin_errors_packed() -> np.ndarray:
    """:func:`enumerate_pin_errors` as (792, 5) packed uint64 words."""
    return _frozen(pack_rows(enumerate_pin_errors()))


@cache
def enumerate_byte_errors_packed() -> np.ndarray:
    """:func:`enumerate_byte_errors` as (8892, 5) packed uint64 words."""
    return _frozen(pack_rows(enumerate_byte_errors()))


@cache
def enumerate_double_bit_errors_packed() -> np.ndarray:
    """:func:`enumerate_double_bit_errors` as (39888, 5) packed words."""
    return _frozen(pack_rows(enumerate_double_bit_errors()))


def _triple_words(first, second: np.ndarray, third: np.ndarray) -> np.ndarray:
    """Packed rows with the distinct bits ``first``, ``second`` and
    ``third`` set (index arrays; ``first`` may be one index for all)."""
    words = np.zeros((second.size, ENTRY_WORDS), dtype=np.uint64)
    rows = np.arange(second.size)
    for column in np.broadcast_arrays(first, second, third):
        words[rows, column >> 6] |= np.uint64(1) << (column & 63).astype(np.uint64)
    return words


def iter_triple_bit_errors_packed(chunk: int = 65536):
    """Yield packed blocks of all 3-bit errors not confined to one pin/byte.

    The full space has ~3.7M patterns; blocks are built vectorized (one per
    leading bit position, split to at most ``chunk`` rows) so the exhaustive
    Table-2 evaluation is decode-bound rather than generation-bound.
    """
    pins = pin_of(np.arange(ENTRY_BITS))
    bytes_ = byte_of(np.arange(ENTRY_BITS))
    for first in range(ENTRY_BITS - 2):
        rest = np.arange(first + 1, ENTRY_BITS)
        second_idx, third_idx = np.triu_indices(rest.size, k=1)
        second = rest[second_idx]
        third = rest[third_idx]
        same_pin = (pins[first] == pins[second]) & (pins[second] == pins[third])
        same_byte = (
            (bytes_[first] == bytes_[second]) & (bytes_[second] == bytes_[third])
        )
        keep = ~(same_pin | same_byte)
        second, third = second[keep], third[keep]
        for start in range(0, second.size, chunk):
            yield _triple_words(first, second[start : start + chunk],
                                third[start : start + chunk])


def iter_triple_bit_errors(chunk: int = 65536):
    """:func:`iter_triple_bit_errors_packed` with blocks unpacked to bits."""
    for block in iter_triple_bit_errors_packed(chunk):
        yield unpack_rows(block, ENTRY_BITS)


def count_triple_bit_errors() -> int:
    """Size of the exhaustive 3-bit space (closed form).

    C(288,3) minus triples inside one pin (none: pins have 4 bits, C(4,3)=4
    per pin) and inside one byte (C(8,3)=56 per byte).
    """
    total = ENTRY_BITS * (ENTRY_BITS - 1) * (ENTRY_BITS - 2) // 6
    in_pin = NUM_PINS * 4
    in_byte = NUM_BYTES * 56
    return total - in_pin - in_byte


def _collect(count: int, draw) -> np.ndarray:
    """Stack ``draw(remaining)`` batches of at most ``remaining`` kept rows
    until ``count`` rows are held."""
    collected: list[np.ndarray] = []
    remaining = count
    while remaining > 0:
        kept = draw(remaining)
        collected.append(kept)
        remaining -= kept.shape[0]
    return np.concatenate(collected, axis=0)


def _weights(byte_rows: np.ndarray) -> np.ndarray:
    """Set bits per row of a byte-packed batch."""
    return _BYTE_WEIGHTS[byte_rows].sum(axis=1)


def _is_beat(beat_bytes: np.ndarray) -> np.ndarray:
    """Which ``(n, 9)`` one-beat byte rows classify as BEAT: at least four
    bits (fewer is a bit, 2-bit or 3-bit error) over at least two bytes
    (else a byte error)."""
    return (_weights(beat_bytes) >= 4) & ((beat_bytes != 0).sum(axis=1) >= 2)


def _is_entry(entry_bytes: np.ndarray) -> np.ndarray:
    """Which ``(n, 36)`` entry byte rows classify as ENTRY: at least four
    bits over at least two beats, on more than one pin (the OR of the four
    9-byte beat slices has more than one set bit)."""
    beats = entry_bytes.reshape(-1, NUM_BEATS, BYTES_PER_BEAT)
    return (
        (_weights(entry_bytes) >= 4)
        & ((beats != 0).any(axis=2).sum(axis=1) >= 2)
        & (_weights(np.bitwise_or.reduce(beats, axis=1)) > 1)
    )


def sample_triple_bit_errors_packed(count: int,
                                    rng: np.random.Generator) -> np.ndarray:
    """Uniform 3-bit errors (rejecting single-pin/single-byte triples), as
    ``(count, 5)`` packed words."""

    def draw(n: int) -> np.ndarray:
        picks = np.stack(
            [rng.integers(0, ENTRY_BITS, size=max(n * 2, 1024))
             for _ in range(3)], axis=1
        )
        distinct = (
            (picks[:, 0] != picks[:, 1])
            & (picks[:, 0] != picks[:, 2])
            & (picks[:, 1] != picks[:, 2])
        )
        picks = picks[distinct]
        pins = pin_of(picks)
        bytes_ = byte_of(picks)
        good = ~(
            ((pins[:, 0] == pins[:, 1]) & (pins[:, 1] == pins[:, 2]))
            | ((bytes_[:, 0] == bytes_[:, 1]) & (bytes_[:, 1] == bytes_[:, 2]))
        )
        return _triple_words(*picks[good][:n].T)

    return _collect(count, draw)


def sample_beat_errors_packed(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random corruption of one beat (each bit flips w.p. 1/2), as
    packed words: beat ``b``'s 9 bytes are entry bytes ``9b`` to ``9b + 8``."""

    def draw(n: int) -> np.ndarray:
        beats = rng.integers(0, NUM_BEATS, size=n)
        beat_bytes = bytes_from_rows(
            rng.integers(0, 2, size=(n, NUM_PINS), dtype=np.uint8))
        keep = _is_beat(beat_bytes)
        beats, beat_bytes = beats[keep], beat_bytes[keep]
        entry = np.zeros((beats.size, 8 * ENTRY_WORDS), dtype=np.uint8)
        columns = BYTES_PER_BEAT * beats[:, None] + np.arange(BYTES_PER_BEAT)
        entry[np.arange(beats.size)[:, None], columns] = beat_bytes
        return words_from_bytes(entry)

    return _collect(count, draw)


def sample_entry_errors_packed(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random corruption of the whole entry, as packed words."""

    def draw(n: int) -> np.ndarray:
        entry = bytes_from_rows(
            rng.integers(0, 2, size=(n, ENTRY_BITS), dtype=np.uint8))
        return words_from_bytes(entry[_is_entry(entry)])

    return _collect(count, draw)


def sample_triple_bit_errors(count: int, rng: np.random.Generator) -> np.ndarray:
    """:func:`sample_triple_bit_errors_packed` as ``(count, 288)`` bits."""
    return unpack_rows(sample_triple_bit_errors_packed(count, rng), ENTRY_BITS)


def sample_beat_errors(count: int, rng: np.random.Generator) -> np.ndarray:
    """:func:`sample_beat_errors_packed` as ``(count, 288)`` bits."""
    return unpack_rows(sample_beat_errors_packed(count, rng), ENTRY_BITS)


def sample_entry_errors(count: int, rng: np.random.Generator) -> np.ndarray:
    """:func:`sample_entry_errors_packed` as ``(count, 288)`` bits."""
    return unpack_rows(sample_entry_errors_packed(count, rng), ENTRY_BITS)


def pattern_space_size(pattern: ErrorPattern) -> int | None:
    """Exact size of the pattern space, or None when it is astronomically
    large (beat/entry random-corruption spaces)."""
    sizes = {
        ErrorPattern.BIT: ENTRY_BITS,
        ErrorPattern.PIN: NUM_PINS * 11,
        ErrorPattern.BYTE: NUM_BYTES * 247,
        ErrorPattern.DOUBLE_BIT: 39888,
        ErrorPattern.TRIPLE_BIT: count_triple_bit_errors(),
    }
    return sizes.get(pattern)


def sample_pattern(pattern: ErrorPattern, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Uniform samples of any Table-1 pattern (used by the beam simulator)."""
    if pattern is ErrorPattern.BIT:
        pool = enumerate_bit_errors()
    elif pattern is ErrorPattern.PIN:
        pool = enumerate_pin_errors()
    elif pattern is ErrorPattern.BYTE:
        pool = enumerate_byte_errors()
    elif pattern is ErrorPattern.DOUBLE_BIT:
        pool = enumerate_double_bit_errors()
    elif pattern is ErrorPattern.TRIPLE_BIT:
        return sample_triple_bit_errors(count, rng)
    elif pattern is ErrorPattern.BEAT:
        return sample_beat_errors(count, rng)
    elif pattern is ErrorPattern.ENTRY:
        return sample_entry_errors(count, rng)
    else:
        raise ValueError(f"unknown pattern {pattern}")
    return pool[rng.integers(0, pool.shape[0], size=count)]
