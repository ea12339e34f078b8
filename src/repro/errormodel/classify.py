"""Classify error vectors into the Table-1 patterns.

Implements the paper's priority rule: "patterns are sorted in increasing ECC
difficulty for correction, and priority is given to less-difficult errors
whenever multiple patterns fit".  Both a scalar and a vectorized batch
classifier are provided; the keep-rules of the packed samplers in
:mod:`repro.errormodel.sampling` select exactly the rows the batch version
labels with their pattern, and the beam-campaign analysis uses the scalar
version on observed corruption records.
"""

from __future__ import annotations

import numpy as np

from repro.core.layout import ENTRY_BITS, byte_of, beat_of, pin_of
from repro.errormodel.patterns import ErrorPattern

__all__ = ["classify_error", "classify_errors_batch",
           "classify_error_codes_batch", "PATTERN_ORDER"]

#: Fixed pattern order for integer classification codes.
PATTERN_ORDER: tuple[ErrorPattern, ...] = tuple(ErrorPattern)


def classify_error(error_bits: np.ndarray) -> ErrorPattern:
    """Pattern of one non-zero 288-bit error vector."""
    error_bits = np.asarray(error_bits, dtype=np.uint8).reshape(-1)
    if error_bits.size != ENTRY_BITS:
        raise ValueError(f"expected {ENTRY_BITS} bits")
    positions = np.nonzero(error_bits)[0]
    if positions.size == 0:
        raise ValueError("cannot classify an all-zero error")

    if positions.size == 1:
        return ErrorPattern.BIT
    if np.all(pin_of(positions) == pin_of(positions[0])):
        return ErrorPattern.PIN
    if np.all(byte_of(positions) == byte_of(positions[0])):
        return ErrorPattern.BYTE
    if positions.size == 2:
        return ErrorPattern.DOUBLE_BIT
    if positions.size == 3:
        return ErrorPattern.TRIPLE_BIT
    if np.all(beat_of(positions) == beat_of(positions[0])):
        return ErrorPattern.BEAT
    return ErrorPattern.ENTRY


def classify_error_codes_batch(errors: np.ndarray) -> np.ndarray:
    """Pattern *codes* of a ``(B, 288)`` error batch: int64 indices into
    :data:`PATTERN_ORDER` (rows of weight zero raise).

    Per-group occupancy is computed as a float32 BLAS matmul — exact,
    since counts never exceed 288 (well inside float32's 2^24 integer
    range) — which is what makes ~100k-row Table-1 derivations cheap.
    """
    errors = np.asarray(errors, dtype=np.uint8)
    if errors.ndim != 2 or errors.shape[1] != ENTRY_BITS:
        raise ValueError(f"expected a (B, {ENTRY_BITS}) batch")
    weights = errors.sum(axis=1, dtype=np.int64)
    if np.any(weights == 0):
        raise ValueError("cannot classify all-zero errors")

    indices = np.arange(ENTRY_BITS)
    dense = errors.astype(np.float32)

    def _single_group(group_ids: np.ndarray) -> np.ndarray:
        """True where all flipped bits of a row share one group id."""
        num_groups = int(group_ids.max()) + 1
        group_onehot = np.zeros((ENTRY_BITS, num_groups), dtype=np.float32)
        group_onehot[indices, group_ids] = 1.0
        per_group = dense @ group_onehot
        return (per_group > 0).sum(axis=1) == 1

    one_pin = _single_group(pin_of(indices))
    one_byte = _single_group(byte_of(indices))
    one_beat = _single_group(beat_of(indices))

    # Mirror classify_error's priority chain, highest priority last so it
    # overwrites lower-priority assignments.
    order = {pattern: code for code, pattern in enumerate(PATTERN_ORDER)}
    codes = np.full(errors.shape[0], order[ErrorPattern.ENTRY], dtype=np.int64)
    codes[one_beat] = order[ErrorPattern.BEAT]
    codes[(weights == 3) & ~one_pin & ~one_byte] = \
        order[ErrorPattern.TRIPLE_BIT]
    codes[(weights == 2) & ~one_pin & ~one_byte] = \
        order[ErrorPattern.DOUBLE_BIT]
    codes[one_byte & (weights >= 2)] = order[ErrorPattern.BYTE]
    codes[one_pin & (weights >= 2)] = order[ErrorPattern.PIN]
    codes[weights == 1] = order[ErrorPattern.BIT]
    return codes


def classify_errors_batch(errors: np.ndarray) -> np.ndarray:
    """Patterns of a ``(B, 288)`` error batch, as an object array of
    :class:`ErrorPattern` (rows of weight zero raise)."""
    codes = classify_error_codes_batch(errors)
    result = np.empty(codes.size, dtype=object)
    for code, pattern in enumerate(PATTERN_ORDER):
        result[codes == code] = pattern
    return result
