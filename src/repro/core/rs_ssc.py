"""Interleaved Reed-Solomon SSC organization (with optional sanity check).

The symbol-based baseline of Section 6.2: two (18, 16) single-symbol-correct
Reed-Solomon codewords per memory entry, using a **4-pin × 2-beat symbol
layout** interleaved in a checkerboard:

* a symbol is the 8 bits carried by one 4-pin group over one beat-pair
  (bits 0-3 on the even beat, bits 4-7 on the odd beat);
* symbol ``(group, beat_pair)`` belongs to codeword ``(group + beat_pair) % 2``.

The checkerboard gives each codeword at most one erroneous symbol for both
of the structured fault modes the paper cares about: a *byte* error (8
adjacent pins, one beat) straddles two neighbouring pin groups — one symbol
in each codeword — and a *pin* error (one wire, four beats) straddles the
two beat-pairs of one pin group — again one symbol per codeword.  Hence the
organization corrects all byte errors *and* preserves single-pin correction,
"akin to TrioECC".

Decoding uses the one-shot decoder of Figure 7c (discrete-log locator), and
optionally the same correction sanity check as the binary schemes: when both
codewords correct, the corrected bits must be confined to a single byte or a
single pin.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from repro.codes.reed_solomon import ReedSolomonCode, RSDecodeStatus
from repro.core.layout import BITS_PER_BYTE, ENTRY_BITS, ENTRY_BYTES, NUM_PINS
from repro.core.rs_packed import PackedTables, build_rs_tables
from repro.core.sanity_check import csc_violation, csc_violation_batch, csc_violation_masks
from repro.core.scheme import BatchDecode, DecodeResult, DecodeStatus, ECCScheme
from repro.gf.gf2 import bytes_from_words, pack_rows, syndromes_from_bytes
from repro.gf.gf256 import EXP_TABLE, LOG_TABLE, ORDER, gf_mul

__all__ = ["InterleavedSSCScheme"]

_NUM_CODEWORDS = 2
_SYMBOLS_PER_CW = 18
_CHECK_SYMBOLS = 2
_DATA_SYMBOLS = _SYMBOLS_PER_CW - _CHECK_SYMBOLS  # 16 bytes per codeword
_PIN_GROUPS = NUM_PINS // 4  # 18
_BEAT_PAIRS = 2

_BIT_WEIGHTS = (1 << np.arange(BITS_PER_BYTE)).astype(np.int64)

#: codeword ``cw``'s S0 | S1 << 8 sits in bits 16·cw .. 16·cw + 15 of the
#: packed syndrome (see :mod:`repro.core.rs_packed`)
_LANE_SHIFTS = np.array([0, 16], dtype=np.uint32)
_LANE_MASK = np.uint32(0xFFFF)


def _symbol_bit_positions(group: int, beat_pair: int) -> np.ndarray:
    """Transmitted bit indices of one 4-pin × 2-beat symbol, bit 0 first."""
    positions = []
    for bit in range(BITS_PER_BYTE):
        beat = 2 * beat_pair + bit // 4
        pin = 4 * group + bit % 4
        positions.append(beat * NUM_PINS + pin)
    return np.array(positions, dtype=np.int64)


def _build_layout() -> np.ndarray:
    """``layout[cw, j]`` — the 8 transmitted bit indices of codeword ``cw``'s
    RS symbol ``j`` (check symbols at j = 0, 1)."""
    layout = np.zeros((_NUM_CODEWORDS, _SYMBOLS_PER_CW, BITS_PER_BYTE), dtype=np.int64)
    counters = [0, 0]
    for beat_pair in range(_BEAT_PAIRS):
        for group in range(_PIN_GROUPS):
            codeword = (group + beat_pair) % 2
            layout[codeword, counters[codeword]] = _symbol_bit_positions(
                group, beat_pair
            )
            counters[codeword] += 1
    if counters != [_SYMBOLS_PER_CW, _SYMBOLS_PER_CW]:
        raise AssertionError("checkerboard symbol assignment is unbalanced")
    return layout


class InterleavedSSCScheme(ECCScheme):
    """Two interleaved (18, 16) RS SSC codewords; the I:SSC / I:SSC+CSC rows."""

    def __init__(self, *, csc: bool = False) -> None:
        self.csc = csc
        self.name = "i-ssc-csc" if csc else "i-ssc"
        self.label = "I:SSC+CSC" if csc else "I:SSC"
        self.corrects_pins = True
        self.rs = ReedSolomonCode(_SYMBOLS_PER_CW, _DATA_SYMBOLS)
        self.layout = _build_layout()
        #: α^j locators for syndrome S1
        self._alpha = EXP_TABLE[np.arange(_SYMBOLS_PER_CW) % ORDER].astype(np.uint8)

    # -- bits <-> symbols -------------------------------------------------------
    def _gather_symbols(self, bits: np.ndarray, codeword: int) -> np.ndarray:
        """(B, 288) bits -> (B, 18) symbol values for one codeword."""
        gathered = bits[:, self.layout[codeword].reshape(-1)]
        grouped = gathered.reshape(bits.shape[0], _SYMBOLS_PER_CW, BITS_PER_BYTE)
        return (grouped.astype(np.int64) @ _BIT_WEIGHTS).astype(np.uint8)

    def _scatter_symbols(self, entry: np.ndarray, codeword: int,
                         symbols: np.ndarray) -> None:
        """(18,) symbol values -> their 144 transmitted bits, one scatter."""
        values = np.asarray(symbols, dtype=np.int64)
        bits = ((values[:, None] >> np.arange(BITS_PER_BYTE)) & 1).astype(np.uint8)
        entry[self.layout[codeword].reshape(-1)] = bits.reshape(-1)

    # -- encode ---------------------------------------------------------------
    def encode(self, data_bits: np.ndarray) -> np.ndarray:
        data_bits = self._check_data(data_bits)
        data_bytes = data_bits.reshape(32, BITS_PER_BYTE).astype(np.int64) @ _BIT_WEIGHTS
        entry = np.zeros(ENTRY_BITS, dtype=np.uint8)
        for cw in range(_NUM_CODEWORDS):
            symbols = self.rs.encode(
                data_bytes[_DATA_SYMBOLS * cw : _DATA_SYMBOLS * (cw + 1)].astype(
                    np.uint8
                )
            )
            self._scatter_symbols(entry, cw, symbols)
        return entry

    # -- scalar decode -----------------------------------------------------------
    def decode(self, entry_bits: np.ndarray) -> DecodeResult:
        entry_bits = self._check_entry(entry_bits)
        corrected_entry = entry_bits.copy()
        corrected_bits: list[int] = []
        codewords_correcting = 0
        data_bytes = np.zeros(32, dtype=np.uint8)

        for cw in range(_NUM_CODEWORDS):
            symbols = self._gather_symbols(entry_bits[None, :], cw)[0]
            result = self.rs.decode_one_shot_ssc(symbols)
            if result.status is RSDecodeStatus.DETECTED:
                return DecodeResult(DecodeStatus.DETECTED, None)
            if result.status is RSDecodeStatus.CORRECTED:
                codewords_correcting += 1
                location = result.error_locations[0]
                value = result.error_values[0]
                for bit in range(BITS_PER_BYTE):
                    if (value >> bit) & 1:
                        position = int(self.layout[cw, location, bit])
                        corrected_bits.append(position)
                        corrected_entry[position] ^= 1
            data_bytes[_DATA_SYMBOLS * cw : _DATA_SYMBOLS * (cw + 1)] = (
                self.rs.extract_data(result.codeword)
            )

        if self.csc and csc_violation(corrected_bits, codewords_correcting):
            return DecodeResult(DecodeStatus.DETECTED, None)

        data = ((data_bytes[:, None] >> np.arange(BITS_PER_BYTE)) & 1).astype(
            np.uint8
        ).reshape(-1)
        status = DecodeStatus.CORRECTED if corrected_bits else DecodeStatus.CLEAN
        return DecodeResult(status, data, tuple(corrected_bits))

    # -- batch decode (packed syndrome-LUT fast path) ---------------------------
    def decode_batch_errors(self, errors: np.ndarray) -> BatchDecode:
        errors = self._check_errors(errors)
        return self.decode_batch_packed(pack_rows(errors))

    def decode_batch_packed(self, words: np.ndarray) -> BatchDecode:
        """Decode packed error words through the per-codeword slot LUT."""
        words = self._check_packed(words)
        tables, lut = _packed_tables()
        combined = syndromes_from_bytes(tables.syndromes,
                                        bytes_from_words(words, ENTRY_BYTES))
        slots = lut[(combined[:, None] >> _LANE_SHIFTS) & _LANE_MASK]

        due = (slots < 0).any(axis=1)
        codewords_correcting = (slots > 0).sum(axis=1)
        slots = np.maximum(slots, 0)
        if self.csc:
            due |= csc_violation_masks(tables.location(slots),
                                       codewords_correcting)

        residual_data = tables.residual_data(words, slots)
        corrected = (codewords_correcting > 0) & ~due
        return BatchDecode(due=due, residual_data=residual_data, corrected=corrected)

    # -- batch decode (unpacked reference — the oracle for the fast path) -------
    def decode_batch_errors_reference(self, errors: np.ndarray) -> BatchDecode:
        errors = self._check_errors(errors)
        batch = errors.shape[0]
        due = np.zeros(batch, dtype=bool)
        residual_data = np.zeros(batch, dtype=bool)
        codewords_correcting = np.zeros(batch, dtype=np.int64)
        positions = np.full((batch, _NUM_CODEWORDS * BITS_PER_BYTE), -1, dtype=np.int64)

        for cw in range(_NUM_CODEWORDS):
            symbols = self._gather_symbols(errors, cw)
            s0 = np.bitwise_xor.reduce(symbols, axis=1)
            s1 = np.bitwise_xor.reduce(gf_mul(symbols, self._alpha[None, :]), axis=1)
            location, corrects, cw_due = _one_shot_rule(s0, s1)
            due |= cw_due
            codewords_correcting += corrects

            # Apply the symbol correction and test the data residue.
            residual_symbols = symbols.copy()
            rows = np.nonzero(corrects)[0]
            residual_symbols[rows, location[rows]] ^= s0[rows]
            residual_data |= residual_symbols[:, _CHECK_SYMBOLS:].any(axis=1)

            # Corrected bit positions (for the CSC), one slot per value bit.
            symbol_bits = self.layout[cw][np.minimum(location, _SYMBOLS_PER_CW - 1)]
            for bit in range(BITS_PER_BYTE):
                flips = corrects & (((s0.astype(np.int64) >> bit) & 1) == 1)
                slot = cw * BITS_PER_BYTE + bit
                positions[:, slot] = np.where(flips, symbol_bits[:, bit], -1)

        if self.csc:
            due |= csc_violation_batch(positions, codewords_correcting)

        corrected = (codewords_correcting > 0) & ~due
        return BatchDecode(due=due, residual_data=residual_data, corrected=corrected)


def _one_shot_rule(s0: np.ndarray, s1: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One codeword's Figure-7c decision: ``(location, corrects, due)``.

    A single error makes both syndromes non-zero and ``dlog(S1) - dlog(S0)``
    its location; anything else non-zero is a DUE.
    """
    nonzero = (s0 != 0) & (s1 != 0)
    log_diff = (LOG_TABLE[s1] - LOG_TABLE[s0]) % ORDER
    location = np.where(nonzero, log_diff, 0)
    corrects = nonzero & (location < _SYMBOLS_PER_CW)
    due = ((s0 != 0) | (s1 != 0)) & ~corrects
    return location, corrects, due


@cache
def _packed_tables() -> tuple[PackedTables, np.ndarray]:
    """The layout's :class:`PackedTables` and the per-codeword slot LUT.

    ``lut[S0 | S1 << 8]`` is the correction slot ``location · 256 + S0``
    (always > 0), 0 for a clean codeword, or -1 for a codeword DUE —
    :func:`_one_shot_rule` over all 65,536 syndrome pairs.  Shared by
    I:SSC and I:SSC+CSC.
    """
    every = np.arange(1 << 16)
    s0, s1 = every & 0xFF, every >> 8
    location, corrects, due = _one_shot_rule(s0, s1)
    lut = np.where(corrects, location * 256 + s0, 0)
    lut = np.where(due, -1, lut).astype(np.int16)
    lut.flags.writeable = False
    return build_rs_tables(_build_layout(), _CHECK_SYMBOLS), lut
