"""Packed decode tables for the Reed-Solomon symbol organizations.

A Reed-Solomon code over GF(2^8) is GF(2)-linear on its transmitted bits:
syndrome ``S_m = XOR_j c_j·α^(m·j)`` is the XOR of what each set bit of
each symbol contributes.  Packing those contributions into one integer per
transmitted bit — codeword ``cw``'s ``S_m`` in byte lane ``cw·r + m`` —
gives a GF(2) parity check, so the byte-table syndrome machinery of the
binary schemes (:func:`repro.gf.gf2.syndrome_byte_table`) yields every
syndrome of a byte-packed batch with one gather and an XOR reduction: no
unpacking and no GF(256) arithmetic per row.

A one-shot RS decoder then decides at most one ``(location, value)``
correction per codeword.  :class:`RSPackedTables` tabulates, per codeword,
the byte mask of every such correction (for the residual) and its
transmitted bit positions (for the correction sanity check), indexed by a
*slot* ``location · 256 + value``.  Slot 0 — value 0 — is "no correction".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.layout import BITS_PER_BYTE, ENTRY_BITS, ENTRY_BYTES
from repro.gf.gf2 import bytes_from_rows, syndrome_byte_table
from repro.gf.gf256 import EXP_TABLE, ORDER, gf_mul

__all__ = ["RSPackedTables", "build_rs_tables"]

_VALUES = 1 << BITS_PER_BYTE  # 256 symbol values


@dataclass(frozen=True)
class RSPackedTables:
    """Byte-row decode tables of one RS symbol layout.

    ``syndromes`` — ``(36, 256)`` uint32 :func:`syndrome_byte_table` of the
    packed syndromes;
    ``corrections`` — ``(ncw, n·256, 36)`` byte mask of each slot;
    ``positions`` — ``(ncw, n·256, 8)`` int16 transmitted positions a slot
    flips, ``-1`` for the value's clear bits;
    ``data_mask`` — ``(36,)`` bytes marking the data symbols' bits.
    """

    syndromes: np.ndarray
    corrections: np.ndarray
    positions: np.ndarray
    data_mask: np.ndarray

    def __post_init__(self) -> None:
        # one cached set serves every caller in the process
        for table in (self.syndromes, self.corrections, self.positions,
                      self.data_mask):
            table.flags.writeable = False

    def residual_data(self, entry_bytes: np.ndarray,
                      slots: np.ndarray) -> np.ndarray:
        """Whether any data bit is still wrong after applying ``slots``.

        ``slots`` is ``(B, ncw)``, one correction slot per codeword.
        """
        residual = entry_bytes ^ self.corrections[0][slots[:, 0]]
        for cw in range(1, slots.shape[1]):
            residual ^= self.corrections[cw][slots[:, cw]]
        return ((residual & self.data_mask) != 0).any(axis=1)

    def corrected_positions(self, slots: np.ndarray) -> np.ndarray:
        """``(B, ncw)`` slots -> ``(B, 8·ncw)`` flipped positions, -1 padded."""
        return np.concatenate(
            [self.positions[cw][slots[:, cw]] for cw in range(slots.shape[1])],
            axis=1,
        )


def build_rs_tables(layout: np.ndarray, check_symbols: int) -> RSPackedTables:
    """Tables for ``layout[cw, j, bit]`` — the transmitted index of bit
    ``bit`` of codeword ``cw``'s symbol ``j`` — with the first
    ``check_symbols`` symbols of each codeword carrying the parity."""
    ncw, n, _ = layout.shape
    r = check_symbols
    if 8 * ncw * r > 32:
        raise ValueError("packed RS syndromes must fit 32 bits")

    # contrib[m, j, bit] = (2^bit)·α^(m·j): what one set bit adds to S_m.
    powers = EXP_TABLE[np.outer(np.arange(r), np.arange(n)) % ORDER]
    bit_values = (1 << np.arange(BITS_PER_BYTE)).astype(np.uint8)
    contrib = gf_mul(bit_values[None, None, :], powers[:, :, None]).astype(np.int64)
    columns = np.zeros(ENTRY_BITS, dtype=np.int64)
    for cw in range(ncw):
        lanes = (8 * (cw * r + np.arange(r)))[:, None, None]
        columns[layout[cw].reshape(-1)] = (contrib << lanes).sum(axis=0).reshape(-1)
    h_entry = (columns[None, :] >> np.arange(8 * ncw * r)[:, None]) & 1
    syndromes = syndrome_byte_table(h_entry).astype(np.uint32)

    value_bits = ((np.arange(_VALUES)[:, None] >> np.arange(BITS_PER_BYTE)) & 1) == 1
    positions = np.where(value_bits[None, None], layout[:, :, None, :], -1)
    positions = positions.reshape(ncw * n * _VALUES, BITS_PER_BYTE)
    rows, slot_bits = np.nonzero(positions >= 0)
    flips = np.zeros((positions.shape[0], ENTRY_BITS), dtype=np.uint8)
    flips[rows, positions[rows, slot_bits]] = 1
    corrections = bytes_from_rows(flips).reshape(ncw, n * _VALUES, ENTRY_BYTES)

    data = np.zeros(ENTRY_BITS, dtype=np.uint8)
    data[layout[:, r:].reshape(-1)] = 1
    return RSPackedTables(
        syndromes=syndromes,
        corrections=corrections,
        positions=positions.astype(np.int16).reshape(ncw, n * _VALUES,
                                                     BITS_PER_BYTE),
        data_mask=bytes_from_rows(data),
    )
