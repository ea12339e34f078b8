"""Packed decode tables for the Reed-Solomon symbol organizations.

A Reed-Solomon code over GF(2^8) is GF(2)-linear on its transmitted bits:
syndrome ``S_m = XOR_j c_j·α^(m·j)`` is the XOR of what each set bit of
each symbol contributes.  Packing those contributions into one integer per
transmitted bit — codeword ``cw``'s ``S_m`` in byte lane ``cw·r + m`` —
gives a GF(2) parity check, so the byte-table syndrome machinery of the
binary schemes (:func:`repro.gf.gf2.syndrome_byte_table`) yields every
syndrome of a packed batch by XOR-ing the table rows of its nonzero bytes
(:func:`repro.gf.gf2.byte_index`): no unpacking and no GF(256) arithmetic.

A one-shot RS decoder then decides at most one ``(location, value)``
correction per codeword.  :func:`build_rs_tables` tabulates, per codeword,
the packed words of every such correction (for the residual) and the
location mask of its flipped bits (for the correction sanity check),
indexed by a *slot* ``location · 256 + value``.  Slot 0 — value 0 — is "no
correction".  The binary schemes keep their per-syndrome corrections in
the same :class:`PackedTables`, indexed by syndrome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.layout import BITS_PER_BYTE, ENTRY_BITS
from repro.core.sanity_check import location_masks
from repro.gf.gf2 import pack_rows, syndrome_byte_table
from repro.gf.gf256 import EXP_TABLE, ORDER, gf_mul

__all__ = ["PackedTables", "build_rs_tables"]

_VALUES = 1 << BITS_PER_BYTE  # 256 symbol values


@dataclass(frozen=True)
class PackedTables:
    """Packed-word decode tables of one multi-codeword layout.

    ``syndromes`` — ``(36, 256)`` :func:`syndrome_byte_table` of the
    packed syndromes;
    ``corrections`` — ``(ncw, slots, 5)`` packed words each slot flips;
    ``locations`` — ``(ncw, slots)`` :func:`location_masks` of the bits each
    slot flips, for the correction sanity check;
    ``data_mask`` — ``(5,)`` packed words marking the data bits.
    """

    syndromes: np.ndarray
    corrections: np.ndarray
    locations: np.ndarray
    data_mask: np.ndarray

    def __post_init__(self) -> None:
        # one cached set serves every caller in the process
        for table in (self.syndromes, self.corrections, self.locations,
                      self.data_mask):
            table.flags.writeable = False

    @classmethod
    def build(cls, syndromes: np.ndarray, positions: np.ndarray,
              data_index: np.ndarray) -> PackedTables:
        """Tables of ``(ncw, slots, S)`` transmitted positions each slot
        flips (``-1`` padded) and the data bits' transmitted indices."""
        flips = np.zeros(positions.shape[:-1] + (ENTRY_BITS + 1,), dtype=np.uint8)
        np.put_along_axis(flips, positions, 1, axis=-1)  # -1 sets the spare bit
        data = np.zeros(ENTRY_BITS, dtype=np.uint8)
        data[data_index] = 1
        return cls(syndromes=syndromes,
                   corrections=pack_rows(flips[..., :ENTRY_BITS]),
                   locations=location_masks(positions), data_mask=pack_rows(data))

    def residual_data(self, words: np.ndarray,
                      slots: list[np.ndarray]) -> np.ndarray:
        """Whether any data bit of packed ``words`` is still wrong after
        applying ``slots``, one ``(B,)`` correction-slot array per codeword."""
        residual = words ^ self.corrections[0].take(slots[0], axis=0)
        for cw in range(1, len(slots)):
            residual ^= self.corrections[cw].take(slots[cw], axis=0)
        return (residual & self.data_mask).any(axis=1)

    def location(self, slots: list[np.ndarray]) -> np.ndarray:
        """Per-codeword ``(B,)`` slots -> ``(B,)`` mask of every flipped bit."""
        location = self.locations[0].take(slots[0])
        for cw in range(1, len(slots)):
            location |= self.locations[cw].take(slots[cw])
        return location


def build_rs_tables(layout: np.ndarray, check_symbols: int) -> PackedTables:
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
    return PackedTables.build(
        syndromes, positions.reshape(ncw, n * _VALUES, BITS_PER_BYTE),
        layout[:, r:].reshape(-1))
