"""SSC-DSD+ — the paper's strongest symbol-based organization.

A single (36, 32) Reed-Solomon codeword covers the whole memory entry, one
8-bit symbol per transmitted byte (8 adjacent pins × 1 beat; check symbols
occupy the first four bytes of beat 0).  The four check symbols give
syndromes S0..S3, and the one-shot decoder of Figure 7c derives *three
independent* single-error location estimates — one per adjacent syndrome
pair, via discrete-log division.  Correction is allowed only when all three
agree and point inside the codeword, which yields:

* single-symbol (full byte) correction,
* complete double-symbol detection, and
* nearly-complete (> 99.999964%) triple-symbol detection,

all in a single cycle, without solving the error-locator polynomial.  The
price (Section 6.2): a *pin* error spans four symbols — one byte per beat —
so it exceeds single-symbol correction and becomes a DUE; SSC-DSD+ is the
only evaluated scheme that cannot correct permanent pin failures.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from repro.codes.reed_solomon import ReedSolomonCode, RSDecodeStatus
from repro.core.layout import BITS_PER_BYTE, ENTRY_BITS, NUM_BYTES
from repro.core.rs_packed import PackedTables, build_rs_tables
from repro.core.scheme import BatchDecode, DecodeResult, DecodeStatus, ECCScheme
from repro.gf.gf2 import bytes_from_words, pack_rows, syndromes_from_bytes
from repro.gf.gf256 import EXP_TABLE, LOG_TABLE, ORDER, gf_mul

__all__ = ["SSCDSDPlusScheme"]

_CHECK_SYMBOLS = 4
_DATA_SYMBOLS = NUM_BYTES - _CHECK_SYMBOLS  # 32

_BIT_WEIGHTS = (1 << np.arange(BITS_PER_BYTE)).astype(np.int64)

#: S0..S3 sit in the four byte lanes of the packed syndrome
_LANE_SHIFTS = np.array([0, 8, 16, 24], dtype=np.uint32)


class SSCDSDPlusScheme(ECCScheme):
    """The (36, 32) SSC-DSD+ organization."""

    def __init__(self) -> None:
        self.name = "ssc-dsd+"
        self.label = "SSC-DSD+"
        self.corrects_pins = False  # a pin fault spans 4 symbols
        self.rs = ReedSolomonCode(NUM_BYTES, _DATA_SYMBOLS)
        #: locators[m, j] = α^(j·m) for syndromes S1..S3 (S0 is plain XOR)
        self._locators = EXP_TABLE[
            (np.outer(np.arange(1, _CHECK_SYMBOLS), np.arange(NUM_BYTES))) % ORDER
        ].astype(np.uint8)

    # -- bits <-> symbols -------------------------------------------------------
    @staticmethod
    def _to_symbols(bits: np.ndarray) -> np.ndarray:
        """(B, 288) bits -> (B, 36) byte symbols (transmitted byte order)."""
        grouped = bits.reshape(bits.shape[0], NUM_BYTES, BITS_PER_BYTE)
        return (grouped.astype(np.int64) @ _BIT_WEIGHTS).astype(np.uint8)

    @staticmethod
    def _to_bits(symbols: np.ndarray) -> np.ndarray:
        """(36,) symbols -> (288,) transmitted bits."""
        return (
            (symbols[:, None].astype(np.int64) >> np.arange(BITS_PER_BYTE)) & 1
        ).astype(np.uint8).reshape(-1)

    # -- encode ---------------------------------------------------------------
    def encode(self, data_bits: np.ndarray) -> np.ndarray:
        data_bits = self._check_data(data_bits)
        data_bytes = (
            data_bits.reshape(_DATA_SYMBOLS, BITS_PER_BYTE).astype(np.int64)
            @ _BIT_WEIGHTS
        ).astype(np.uint8)
        return self._to_bits(self.rs.encode(data_bytes))

    # -- scalar decode -----------------------------------------------------------
    def decode(self, entry_bits: np.ndarray) -> DecodeResult:
        entry_bits = self._check_entry(entry_bits)
        symbols = self._to_symbols(entry_bits[None, :])[0]
        result = self.rs.decode_dsd_plus(symbols)
        if result.status is RSDecodeStatus.DETECTED:
            return DecodeResult(DecodeStatus.DETECTED, None)

        corrected_bits: list[int] = []
        if result.status is RSDecodeStatus.CORRECTED:
            location = result.error_locations[0]
            value = result.error_values[0]
            corrected_bits = [
                location * BITS_PER_BYTE + bit
                for bit in range(BITS_PER_BYTE)
                if (value >> bit) & 1
            ]
        data_bytes = self.rs.extract_data(result.codeword)
        data = (
            (data_bytes[:, None].astype(np.int64) >> np.arange(BITS_PER_BYTE)) & 1
        ).astype(np.uint8).reshape(-1)
        status = (
            DecodeStatus.CORRECTED if corrected_bits else DecodeStatus.CLEAN
        )
        return DecodeResult(status, data, tuple(corrected_bits))

    # -- batch decode (packed syndrome fast path) -------------------------------
    def decode_batch_errors(self, errors: np.ndarray) -> BatchDecode:
        errors = self._check_errors(errors)
        return self.decode_batch_packed(pack_rows(errors))

    def decode_batch_packed(self, words: np.ndarray) -> BatchDecode:
        """Decode packed error words: S0..S3 from one byte-table gather,
        then the three-locator agreement over the four byte lanes."""
        words = self._check_packed(words)
        tables = _packed_tables()
        combined = syndromes_from_bytes(tables.syndromes,
                                        bytes_from_words(words, NUM_BYTES))
        syndromes = (combined[:, None] >> _LANE_SHIFTS) & np.uint32(0xFF)
        location, corrects, due = _agreement_rule(syndromes)
        slots = np.where(corrects, location * 256 + syndromes[:, 0], 0)
        residual_data = tables.residual_data(words, slots[:, None])
        return BatchDecode(due=due, residual_data=residual_data, corrected=corrects)

    # -- batch decode (unpacked reference — the oracle for the fast path) -------
    def decode_batch_errors_reference(self, errors: np.ndarray) -> BatchDecode:
        errors = self._check_errors(errors)
        symbols = self._to_symbols(errors)

        s0 = np.bitwise_xor.reduce(symbols, axis=1)
        higher = [
            np.bitwise_xor.reduce(
                gf_mul(symbols, self._locators[m][None, :]), axis=1
            )
            for m in range(_CHECK_SYMBOLS - 1)
        ]
        location, corrects, due = _agreement_rule(np.stack([s0, *higher], axis=1))

        residual = symbols.copy()
        rows = np.nonzero(corrects)[0]
        residual[rows, location[rows]] ^= s0[rows]
        residual_data = residual[:, _CHECK_SYMBOLS:].any(axis=1)

        return BatchDecode(due=due, residual_data=residual_data, corrected=corrects)


def _agreement_rule(syndromes: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The DSD+ decision over ``(B, 4)`` syndromes S0..S3:
    ``(location, corrects, due)``.

    Three independent location estimates — the EAC subtract of adjacent
    syndromes' discrete logs, modulo 255 — must agree and point inside
    the codeword; any other non-zero syndrome is a DUE.
    """
    logs = LOG_TABLE[syndromes]
    estimates = (logs[:, 1:] - logs[:, :-1]) % ORDER
    location = estimates[:, 0]
    agree = (location == estimates[:, 1]) & (location == estimates[:, 2])
    corrects = (syndromes != 0).all(axis=1) & agree & (location < NUM_BYTES)
    due = (syndromes != 0).any(axis=1) & ~corrects
    return location, corrects, due


@cache
def _packed_tables() -> PackedTables:
    """The one-codeword, byte-per-symbol layout's :class:`PackedTables`."""
    layout = np.arange(ENTRY_BITS).reshape(1, NUM_BYTES, BITS_PER_BYTE)
    return build_rs_tables(layout, _CHECK_SYMBOLS)
