"""The correction sanity check (CSC).

When several codewords of one memory entry each perform a correction, the
CSC inspects *where* the corrected bits sit in the transmitted entry.  Real
multi-codeword events observed in the beam are either pin faults (one wire,
four beats) or mat-local byte faults (8 adjacent pins, one beat); a set of
corrections that is neither byte- nor pin-aligned is far more likely to be a
constellation of miscorrections caused by a severe beat or whole-entry
error, so the decoder raises a DUE instead.  This trades a sliver of
opportunistic correction for orders-of-magnitude SDC reduction (Section 6.1).

The batch check reads the OR of the :func:`location_masks` of an entry's
corrected bits, which the packed decoders precompute per correction.
"""

from __future__ import annotations

import numpy as np

from repro.core.layout import BITS_PER_BYTE, BYTES_PER_BEAT, ENTRY_BITS, NUM_BEATS
from repro.core.layout import beat_of, byte_of, pin_of

__all__ = ["csc_violation", "csc_violation_batch", "csc_violation_masks",
           "location_masks"]

#: location-mask field offsets: beat at bit 0, byte column, bit within byte
_COLUMN_SHIFT = NUM_BEATS
_BIT_SHIFT = _COLUMN_SHIFT + BYTES_PER_BEAT
_INDEX = np.arange(ENTRY_BITS)
#: location mask of each transmitted bit, and 0 at index -1 (an unused slot)
_POSITION_MASKS = np.append(
    (1 << beat_of(_INDEX))
    | (1 << (_COLUMN_SHIFT + pin_of(_INDEX) // BITS_PER_BYTE))
    | (1 << (_BIT_SHIFT + _INDEX % BITS_PER_BYTE)), 0).astype(np.int32)


def csc_violation(corrected_bits: list[int], codewords_correcting: int) -> bool:
    """True if the CSC must convert this entry's corrections into a DUE.

    ``corrected_bits`` are transmitted bit indices; the check only applies
    when at least two codewords performed a correction.
    """
    if codewords_correcting < 2 or not corrected_bits:
        return False
    positions = np.asarray(corrected_bits, dtype=np.int64)
    same_pin = bool(np.all(pin_of(positions) == pin_of(positions[0])))
    same_byte = bool(np.all(byte_of(positions) == byte_of(positions[0])))
    return not (same_pin or same_byte)


def location_masks(positions: np.ndarray) -> np.ndarray:
    """OR over the last axis of the location masks of ``positions``.

    Transmitted bit ``i`` sets one bit in each of three one-hot fields: its
    beat (bits 0-3), its byte column ``(i % 72) // 8`` (bits 4-12) and its
    bit within the byte (bits 13-20); a ``-1`` slot sets none.  The OR of a
    set keeps every beat, column and bit-within-byte the set touches.
    """
    return np.bitwise_or.reduce(_POSITION_MASKS[positions], axis=-1)


def csc_violation_masks(masks: np.ndarray,
                        codewords_correcting: np.ndarray) -> np.ndarray:
    """The CSC over per-entry :func:`location_masks` of the corrections.

    A set is one pin when its column and bit fields each hold at most one
    bit, and one byte when its beat and column fields do (the empty set
    is both).  Returns a boolean DUE mask: at least two codewords
    corrected bits that are neither.
    """
    masks = np.asarray(masks, dtype=np.int32)

    def single(shift: int, width: int) -> np.ndarray:
        field = (masks >> shift) & ((1 << width) - 1)
        return (field & (field - 1)) == 0

    confined = single(_COLUMN_SHIFT, BYTES_PER_BEAT) & (
        single(_BIT_SHIFT, BITS_PER_BYTE) | single(0, NUM_BEATS))
    return (np.asarray(codewords_correcting) >= 2) & ~confined


def csc_violation_batch(positions: np.ndarray,
                        codewords_correcting: np.ndarray) -> np.ndarray:
    """Vectorized CSC over a ``(B, S)`` array of corrected bit positions.

    ``positions`` uses ``-1`` for unused slots; ``codewords_correcting``
    counts how many codewords applied a correction in each entry.  Returns a
    boolean DUE mask of shape ``(B,)``.
    """
    positions = np.asarray(positions, dtype=np.int64)
    return csc_violation_masks(location_masks(positions), codewords_correcting)
