"""Byte-row samplers: the oracle for the packed samplers.

These are the original ``(n, 288)`` uint8 bodies of the 3-bit, beat and
entry samplers.  The beat and entry samplers reject draws with the batch
classifier rather than with the packed keep-rules, so they check both the
random stream and the rules.  :mod:`repro.errormodel.sampling` draws the
same stream straight into packed words; its samplers must equal
``pack_rows`` of these for any seed and count.
"""

from __future__ import annotations

import numpy as np

from repro.core.layout import (
    ENTRY_BITS,
    NUM_BEATS,
    NUM_PINS,
    bits_of_beat,
    byte_of,
    pin_of,
)
from repro.errormodel.classify import classify_errors_batch
from repro.errormodel.patterns import ErrorPattern


def sample_triple_bit_errors(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform 3-bit errors (rejecting single-pin/single-byte triples)."""
    collected: list[np.ndarray] = []
    remaining = count
    while remaining > 0:
        draw = max(remaining * 2, 1024)
        picks = np.stack(
            [rng.integers(0, ENTRY_BITS, size=draw) for _ in range(3)], axis=1
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
        picks = picks[good][:remaining]
        errors = np.zeros((picks.shape[0], ENTRY_BITS), dtype=np.uint8)
        rows = np.arange(picks.shape[0])
        for column in range(3):
            errors[rows, picks[:, column]] = 1
        collected.append(errors)
        remaining -= picks.shape[0]
    return np.concatenate(collected, axis=0)


def _rejection_sample(count: int, rng: np.random.Generator, pattern: ErrorPattern,
                      draw_fn) -> np.ndarray:
    """Draw with ``draw_fn`` until ``count`` rows classify as ``pattern``."""
    collected: list[np.ndarray] = []
    remaining = count
    while remaining > 0:
        errors = draw_fn(remaining)
        nonzero = errors.any(axis=1)
        errors = errors[nonzero]
        if errors.shape[0]:
            labels = classify_errors_batch(errors)
            errors = errors[labels == pattern]
        collected.append(errors[:remaining])
        remaining -= min(remaining, errors.shape[0])
    return np.concatenate(collected, axis=0)


def sample_beat_errors(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random corruption of one beat (each bit flips w.p. 1/2)."""

    def draw(n: int) -> np.ndarray:
        errors = np.zeros((n, ENTRY_BITS), dtype=np.uint8)
        beats = rng.integers(0, NUM_BEATS, size=n)
        masks = rng.integers(0, 2, size=(n, NUM_PINS), dtype=np.uint8)
        for beat in range(NUM_BEATS):
            rows = np.nonzero(beats == beat)[0]
            errors[rows[:, None], bits_of_beat(beat)[None, :]] = masks[rows]
        return errors

    return _rejection_sample(count, rng, ErrorPattern.BEAT, draw)


def sample_entry_errors(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random corruption of the whole entry."""

    def draw(n: int) -> np.ndarray:
        return rng.integers(0, 2, size=(n, ENTRY_BITS), dtype=np.uint8)

    return _rejection_sample(count, rng, ErrorPattern.ENTRY, draw)
