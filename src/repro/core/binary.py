"""Binary (bit- and 2b-symbol-correcting) entry schemes.

One parametric class covers the paper's six binary organizations:

=====================  ==========  ============  ===========  =====
Organization           base code   interleaved   2b symbols   CSC
=====================  ==========  ============  ===========  =====
NI:SEC-DED (baseline)  Hsiao       no            —            no
I:SEC-DED              Hsiao       yes           —            no
DuetECC                Hsiao       yes           —            yes
NI:SEC-2bEC            Eq. 3       no            adjacent     no
I:SEC-2bEC             Eq. 3       yes           stride-4     no
TrioECC                Eq. 3       yes           stride-4     yes
=====================  ==========  ============  ===========  =====

Each memory entry holds four 72-bit codewords.  In the non-interleaved
layout codeword ``c`` *is* beat ``c``; in the interleaved layout the
codewords are spread by Equation 1 (:mod:`repro.core.interleave`).  For the
interleaved SEC-2bEC the printed H-matrix is column-swizzled so its
bit-adjacent symbols line up with the stride-4 bit pairs that a transmitted
byte error produces in each codeword (Section 6.1, "we swizzle the H
matrix").

Decoding per codeword follows the hardware of Figure 7b: a zero syndrome
passes through; a syndrome matching an H column corrects that bit; with 2b
correction enabled, a syndrome matching an aligned-pair XOR corrects the
pair; anything else is a codeword DUE which discards the whole entry.  The
optional correction sanity check then cross-examines the corrected bit
locations of all four codewords (:mod:`repro.core.sanity_check`).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.codes.linear import BinaryLinearCode, PairTable
from repro.core.interleave import deinterleave_permutation
from repro.core.layout import DATA_BITS, ENTRY_BITS, ENTRY_BYTES, NUM_BEATS, NUM_PINS
from repro.core.rs_packed import PackedTables
from repro.core.sanity_check import csc_violation, csc_violation_batch
from repro.core.sanity_check import csc_violation_masks
from repro.core.scheme import BatchDecode, DecodeResult, DecodeStatus, ECCScheme
from repro.gf.gf2 import (
    byte_index,
    pack_bits,
    syndrome_byte_table,
    syndromes_batch,
    syndromes_from_index,
    unpack_rows,
)

__all__ = ["BinaryEntryScheme"]


class BinaryEntryScheme(ECCScheme):
    """A multi-codeword binary ECC organization over one memory entry.

    The paper's organizations tile the 288-bit entry with four 72-bit
    codewords; the expansion schemes reuse the same machinery with any
    ``(n, k)`` code whose codewords tile the entry exactly (``288 % n == 0``)
    and whose data bits fill the 256-bit payload (``(288 // n) * k == 256``).
    Interleaving and the correction sanity check are specific to the paper's
    4x72 geometry and stay gated to it.
    """

    def __init__(
        self,
        code: BinaryLinearCode,
        *,
        interleaved: bool,
        pair_table: PairTable | None = None,
        csc: bool = False,
        name: str,
        label: str,
    ) -> None:
        if ENTRY_BITS % code.n != 0:
            raise ValueError(
                f"{code.n}-bit codewords do not tile a {ENTRY_BITS}-bit entry"
            )
        num_codewords = ENTRY_BITS // code.n
        if num_codewords * code.k != DATA_BITS:
            raise ValueError(
                f"{num_codewords} codewords of {code.k} data bits do not "
                f"fill the {DATA_BITS}-bit payload"
            )
        if (interleaved or csc) and code.n != NUM_PINS:
            raise ValueError(
                "interleaving and the CSC require the paper's "
                f"{NUM_BEATS}x{NUM_PINS} geometry"
            )
        self.code = code
        self.num_codewords = num_codewords
        self.cw_bits = code.n
        self.interleaved = interleaved
        self.pair_table = pair_table
        self.csc = csc
        self.name = name
        self.label = label
        self.corrects_pins = True

        #: trans_index[c, off] — transmitted bit carrying codeword c, offset off
        ni_positions = np.arange(ENTRY_BITS, dtype=np.int64).reshape(
            num_codewords, code.n
        )
        if interleaved:
            self.trans_index = deinterleave_permutation()[ni_positions]
        else:
            self.trans_index = ni_positions
        self._gather = self.trans_index.reshape(-1)

        #: transmitted indices of the 256 data bits, in user order
        self.data_index = np.concatenate(
            [self.trans_index[c, code.data_positions] for c in range(num_codewords)]
        )

        if pair_table is not None:
            self._pair_low = np.array(
                [pair[0] for pair in pair_table.pairs], dtype=np.int64
            )
            self._pair_high = np.array(
                [pair[1] for pair in pair_table.pairs], dtype=np.int64
            )

        # All codeword syndromes must share one int64 for the packed
        # fast path; wider codes fall back to the reference decoder.
        self._packed_ok = num_codewords * code.r <= 62
        if self._packed_ok:
            self._build_packed_tables()

    def cache_token(self) -> str:
        """Digest of the full construction: H, pairs, interleave, CSC."""
        material = hashlib.sha256()
        material.update(np.ascontiguousarray(self.code.h, dtype=np.uint8))
        if self.pair_table is not None:
            for low, high in self.pair_table.pairs:
                material.update(f"{low},{high};".encode())
        material.update(f"i={int(self.interleaved)},c={int(self.csc)}".encode())
        return material.hexdigest()

    # -- packed decode tables ---------------------------------------------------
    def _build_packed_tables(self) -> None:
        """Precompute the syndrome LUTs behind the packed fast path.

        An entry-wide ``(4R, 288)`` parity check stacks each codeword's H on
        its transmitted bit positions, so the byte-table rows of a batch's
        nonzero bytes XOR to all four packed syndromes in disjoint R-bit
        lanes of a single int64.  Each lane then indexes per-syndrome tables: DUE and correction
        flags, and the :class:`~repro.core.rs_packed.PackedTables` of the
        packed-word correction (its XOR with the received entry gives the
        residual) and of the location mask of the corrected bits (for the
        CSC).
        """
        ncw = self.num_codewords
        r = self.code.r
        space = 1 << r
        h_entry = np.zeros((ncw * r, ENTRY_BITS), dtype=np.uint8)
        for cw in range(ncw):
            h_entry[cw * r : (cw + 1) * r, self.trans_index[cw]] = self.code.h
        self._syndrome_shifts = [np.int64(r * cw) for cw in range(ncw)]
        self._syndrome_mask = np.int64(space - 1)

        # Derive the per-syndrome actions from the same logic the reference
        # decoder uses, over the whole syndrome space at once.
        every = np.tile(np.arange(space, dtype=np.int64)[:, None], (1, ncw))
        offsets, cw_due, cw_corrects = self._corrections(every)
        lut_offsets = offsets[:, 0, :]  # (space, 2), codeword-agnostic
        #: per syndrome, DUE << 8 | corrects: summed over the codewords it
        #: counts the DUE codewords above bit 8 and the correcting ones below
        self._lut_state = (cw_due[:, 0].astype(np.int32) << 8) | cw_corrects[:, 0]

        # corrected transmitted positions per (codeword, syndrome, slot)
        positions = np.where(
            lut_offsets[None, :, :] >= 0,
            self.trans_index[:, np.maximum(lut_offsets, 0)],
            -1,
        )
        self._tables = PackedTables.build(syndrome_byte_table(h_entry),
                                          positions, self.data_index)

    # -- encode ---------------------------------------------------------------
    def encode(self, data_bits: np.ndarray) -> np.ndarray:
        data_bits = self._check_data(data_bits)
        entry = np.zeros(ENTRY_BITS, dtype=np.uint8)
        k = self.code.k
        for cw in range(self.num_codewords):
            codeword = self.code.encode(data_bits[k * cw : k * (cw + 1)])
            entry[self.trans_index[cw]] = codeword
        return entry

    # -- shared syndrome-to-correction logic -----------------------------------
    def _corrections(self, packed_syndromes: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Map per-codeword packed syndromes to correction offsets.

        ``packed_syndromes`` has shape (B, ncw).  Returns ``(offsets, cw_due,
        cw_corrects)`` where ``offsets`` is (B, ncw, 2) within-codeword bit
        offsets with -1 sentinels.
        """
        syn = packed_syndromes
        batch = syn.shape[0]
        offsets = np.full((batch, self.num_codewords, 2), -1, dtype=np.int64)

        single = self.code.syndrome_to_bit[syn]  # (B, ncw); -1 = no column match
        has_single = single >= 0
        offsets[..., 0] = np.where(has_single, single, -1)

        if self.pair_table is not None:
            pair = self.pair_table.syndrome_to_pair[syn]
            has_pair = (pair >= 0) & ~has_single
            offsets[..., 0] = np.where(has_pair, self._pair_low[pair], offsets[..., 0])
            offsets[..., 1] = np.where(has_pair, self._pair_high[pair], -1)
            matched = has_single | has_pair
        else:
            matched = has_single

        cw_due = (syn != 0) & ~matched
        cw_corrects = (syn != 0) & matched
        return offsets, cw_due, cw_corrects

    # -- scalar decode -----------------------------------------------------------
    def decode(self, entry_bits: np.ndarray) -> DecodeResult:
        entry_bits = self._check_entry(entry_bits)
        cw_bits = entry_bits[self._gather].reshape(self.num_codewords, self.cw_bits)
        packed = pack_bits(syndromes_batch(self.code.h, cw_bits))[None, :]
        offsets, cw_due, cw_corrects = self._corrections(packed)

        if bool(cw_due.any()):
            return DecodeResult(DecodeStatus.DETECTED, None)

        corrected_bits: list[int] = []
        for cw in range(self.num_codewords):
            for slot in range(2):
                offset = int(offsets[0, cw, slot])
                if offset >= 0:
                    corrected_bits.append(int(self.trans_index[cw, offset]))

        codewords_correcting = int(cw_corrects.sum())
        if self.csc and csc_violation(corrected_bits, codewords_correcting):
            return DecodeResult(DecodeStatus.DETECTED, None)

        corrected = entry_bits.copy()
        for position in corrected_bits:
            corrected[position] ^= 1
        data = corrected[self.data_index].copy()
        status = DecodeStatus.CORRECTED if corrected_bits else DecodeStatus.CLEAN
        return DecodeResult(status, data, tuple(corrected_bits))

    # -- batch decode (packed syndrome-LUT fast path) ---------------------------
    def decode_batch_packed(self, words: np.ndarray, *,
                            index: np.ndarray | None = None) -> BatchDecode:
        words = self._check_packed(words)
        if not self._packed_ok:
            return self.decode_batch_errors_reference(
                unpack_rows(words, ENTRY_BITS))
        if index is None:
            index = byte_index(words, ENTRY_BYTES)
        tables = self._tables
        combined = syndromes_from_index(tables.syndromes, index)
        syn = [(combined >> shift) & self._syndrome_mask
               for shift in self._syndrome_shifts]

        state = self._lut_state.take(syn[0])
        for cw_syn in syn[1:]:
            state += self._lut_state.take(cw_syn)
        due = state > 0xFF
        codewords_correcting = state & 0xFF
        if self.csc:
            due |= csc_violation_masks(tables.location(syn), codewords_correcting)

        residual_data = tables.residual_data(words, syn)
        corrected = (codewords_correcting > 0) & ~due
        return BatchDecode(due=due, residual_data=residual_data, corrected=corrected)

    # -- batch decode (unpacked reference — the oracle for the fast path) -------
    def decode_batch_errors_reference(self, errors: np.ndarray) -> BatchDecode:
        errors = self._check_errors(errors)
        batch = errors.shape[0]
        ncw = self.num_codewords
        cw_bits = errors[:, self._gather].reshape(batch * ncw, self.cw_bits)
        packed = pack_bits(syndromes_batch(self.code.h, cw_bits)).reshape(batch, ncw)
        offsets, cw_due, cw_corrects = self._corrections(packed)

        # Transmitted positions of every correction slot, -1 preserved.
        positions = np.where(
            offsets >= 0,
            np.take_along_axis(
                np.broadcast_to(self.trans_index, (batch, ncw, self.cw_bits)),
                np.maximum(offsets, 0),
                axis=2,
            ),
            -1,
        ).reshape(batch, ncw * 2)

        due = cw_due.any(axis=1)
        codewords_correcting = cw_corrects.sum(axis=1)
        if self.csc:
            due |= csc_violation_batch(positions, codewords_correcting)

        residual = errors.copy()
        rows = np.arange(batch)
        for slot in range(positions.shape[1]):
            pos = positions[:, slot]
            mask = pos >= 0
            residual[rows[mask], pos[mask]] ^= 1

        residual_data = residual[:, self.data_index].any(axis=1)
        corrected = (codewords_correcting > 0) & ~due
        return BatchDecode(due=due, residual_data=residual_data, corrected=corrected)
