"""A simulated multi-gigabyte HBM2 device.

Storing 32GB of cell state is neither possible nor necessary: the beam
experiments only ever observe *differences* from the pattern the
microbenchmark wrote.  The device therefore keeps

* a **background pattern** — a function from entry index to the 288
  transmitted bits last written over the whole device (bulk writes are
  O(1)),
* an **overlay** of explicitly written entries (sparse),
* an **upset overlay** of persistent bit flips deposited by soft-error
  events (sparse; cleared by the next write, like a real soft error), and
* a set of **weak cells** installed by the displacement-damage model,
  whose misreads depend on the refresh period.

Reads reconstruct ``pattern ⊕ upsets ⊕ leaks`` on demand, and
:meth:`SimulatedHBM2.scan_mismatches` visits only the sparse fault sites, so
a full-device read pass costs O(#faults) rather than O(capacity) — the
trick that makes a multi-hour beam campaign simulable in seconds.

The fault state is held *columnar*: the upset overlay is a sorted
``(entries, packed-rows)`` pair of flat arrays (bit-packed ``(N, 5)``
``uint64`` rows, PR 1's transport format) and weak cells are parallel
entry/bit/retention/direction columns.  Appends land in pending buffers
and are consolidated lazily — a stable sort plus an XOR ``reduceat`` merge
— so injecting a thousand-entry MBME event costs one array append, and
:meth:`SimulatedHBM2.scan_mismatches_batch` can diff every fault site in
one packed XOR.  The scalar per-entry API is preserved on top as the
compatibility/oracle surface.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.arrays import sorted_unique
from repro.dram.geometry import HBM2Geometry
from repro.dram.refresh import RefreshConfig, WeakCell
from repro.gf.gf2 import pack_rows, unpack_rows

__all__ = [
    "PatternFn",
    "BatchPatternFn",
    "SimulatedHBM2",
    "Mismatch",
    "mismatches_from_packed",
]

#: A background data pattern: entry index -> 288 transmitted bits.
PatternFn = Callable[[int], np.ndarray]

#: Batch form: int64 entry-index array -> bit-packed ``(len, 5)`` uint64 rows.
BatchPatternFn = Callable[[np.ndarray], np.ndarray]

_PACKED_WORDS = 5  # ceil(288 / 64)


@dataclass(frozen=True)
class Mismatch:
    """One erroneous entry observed by a read pass."""

    entry_index: int
    bit_positions: tuple[int, ...]


def mismatches_from_packed(entries: np.ndarray,
                           rows: np.ndarray) -> list[Mismatch]:
    """Expand a batch scan's ``(entries, packed rows)`` into
    :class:`Mismatch` objects — the scalar scan's output format."""
    bits = unpack_rows(rows, 288)
    return [
        Mismatch(int(entry), tuple(int(b) for b in np.nonzero(row)[0]))
        for entry, row in zip(entries, bits)
    ]


class SimulatedHBM2:
    """Sparse-state simulation of a whole GPU's HBM2 memory."""

    def __init__(
        self,
        geometry: HBM2Geometry | None = None,
        refresh: RefreshConfig | None = None,
    ) -> None:
        self.geometry = geometry or HBM2Geometry.for_gpu(32)
        self.refresh = refresh or RefreshConfig()
        self._background: PatternFn = lambda index: np.zeros(
            self.geometry.entry_bits, dtype=np.uint8
        )
        self._background_packed: BatchPatternFn | None = None
        self._written: dict[int, np.ndarray] = {}
        # Upset overlay: consolidated sorted-unique entries + packed rows,
        # with unconsolidated appends buffered in _upset_pending_*.
        self._upset_entries_arr = np.empty(0, dtype=np.int64)
        self._upset_rows = np.empty((0, _PACKED_WORDS), dtype=np.uint64)
        self._upset_pending_entries: list[np.ndarray] = []
        self._upset_pending_rows: list[np.ndarray] = []
        # Weak cells: parallel columns, consolidated sorted by (entry, bit)
        # with later installs overriding earlier ones.
        self._weak_entry = np.empty(0, dtype=np.int64)
        self._weak_bit = np.empty(0, dtype=np.int64)
        self._weak_retention = np.empty(0, dtype=np.float64)
        self._weak_leaks = np.empty(0, dtype=np.int64)
        self._weak_pending: list[tuple[int, int, float, int]] = []

    # -- configuration ---------------------------------------------------------
    def set_refresh(self, refresh: RefreshConfig) -> None:
        """Change the refresh period (the paper's modified-BIOS experiment)."""
        self.refresh = refresh

    def install_weak_cell(self, cell: WeakCell) -> None:
        """Register a displacement-damaged cell."""
        self._check_index(cell.entry_index)
        self._weak_pending.append(
            (cell.entry_index, cell.bit, cell.retention_s, cell.leaks_to)
        )

    def install_weak_cells_batch(
        self,
        entry_index: np.ndarray,
        bit: np.ndarray,
        retention_s: np.ndarray,
        leaks_to: np.ndarray,
    ) -> None:
        """Register many damaged cells from parallel columns at once."""
        entry_index = np.asarray(entry_index, dtype=np.int64)
        if entry_index.size and (
            entry_index.min() < 0
            or entry_index.max() >= self.geometry.total_entries
        ):
            raise ValueError("entry index out of range")
        self._weak_pending.extend(zip(
            entry_index.tolist(),
            np.asarray(bit, dtype=np.int64).tolist(),
            np.asarray(retention_s, dtype=np.float64).tolist(),
            np.asarray(leaks_to, dtype=np.int64).tolist(),
        ))

    def _consolidate_weak(self) -> None:
        if not self._weak_pending:
            return
        pending = self._weak_pending
        self._weak_pending = []
        entry = np.concatenate([
            self._weak_entry, np.array([p[0] for p in pending], np.int64)
        ])
        bit = np.concatenate([
            self._weak_bit, np.array([p[1] for p in pending], np.int64)
        ])
        retention = np.concatenate([
            self._weak_retention, np.array([p[2] for p in pending])
        ])
        leaks = np.concatenate([
            self._weak_leaks, np.array([p[3] for p in pending], np.int64)
        ])
        key = entry * self.geometry.entry_bits + bit
        order = np.argsort(key, kind="stable")
        key = key[order]
        run_start = np.flatnonzero(np.r_[True, np.diff(key) != 0])
        # stable sort keeps install order within a key; the run's last
        # element is the most recent install, which wins (dict semantics)
        last = np.r_[run_start[1:], key.size] - 1
        pick = order[last]
        self._weak_entry = entry[pick]
        self._weak_bit = bit[pick]
        self._weak_retention = retention[pick]
        self._weak_leaks = leaks[pick]

    def remove_weak_cell(self, entry_index: int, bit: int) -> None:
        self._consolidate_weak()
        keep = ~((self._weak_entry == entry_index) & (self._weak_bit == bit))
        self._weak_entry = self._weak_entry[keep]
        self._weak_bit = self._weak_bit[keep]
        self._weak_retention = self._weak_retention[keep]
        self._weak_leaks = self._weak_leaks[keep]

    @property
    def weak_cells(self) -> list[WeakCell]:
        self._consolidate_weak()
        return [
            WeakCell(int(entry), int(bit), float(retention), int(leaks))
            for entry, bit, retention, leaks in zip(
                self._weak_entry, self._weak_bit,
                self._weak_retention, self._weak_leaks,
            )
        ]

    # -- writes ---------------------------------------------------------------
    def write_all(self, pattern: PatternFn,
                  packed_pattern: BatchPatternFn | None = None) -> None:
        """Bulk write: the microbenchmark's "write a known pattern to every
        memory entry".  Clears all explicit writes and pending upsets.

        ``packed_pattern``, when supplied, is the same pattern as a batch
        of bit-packed rows; it lets :meth:`scan_mismatches_batch` evaluate
        the background without per-entry Python calls.
        """
        self._background = pattern
        self._background_packed = packed_pattern
        self._written.clear()
        self._upset_entries_arr = np.empty(0, dtype=np.int64)
        self._upset_rows = np.empty((0, _PACKED_WORDS), dtype=np.uint64)
        self._upset_pending_entries.clear()
        self._upset_pending_rows.clear()

    def write_entry(self, entry_index: int, bits: np.ndarray) -> None:
        """Targeted write; clears any upset pending on the entry."""
        self._check_index(entry_index)
        bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
        if bits.size != self.geometry.entry_bits:
            raise ValueError(f"expected {self.geometry.entry_bits} bits")
        self._written[entry_index] = bits.copy()
        self._consolidate_upsets()
        keep = self._upset_entries_arr != entry_index
        if not keep.all():
            self._upset_entries_arr = self._upset_entries_arr[keep]
            self._upset_rows = self._upset_rows[keep]

    # -- faults -----------------------------------------------------------------
    def inject_upset(self, entry_index: int, flip_bits: np.ndarray) -> None:
        """XOR a soft-error flip pattern into an entry (persists until the
        next write of that entry)."""
        self._check_index(entry_index)
        flips = np.asarray(flip_bits, dtype=np.uint8).reshape(-1)
        if flips.size != self.geometry.entry_bits:
            raise ValueError(f"expected {self.geometry.entry_bits} bits")
        if not flips.any():
            return
        self._upset_pending_entries.append(
            np.array([entry_index], dtype=np.int64)
        )
        self._upset_pending_rows.append(pack_rows(flips[None, :]))

    def inject_upsets_batch(self, entries: np.ndarray,
                            packed_rows: np.ndarray) -> None:
        """XOR many flip patterns at once (entries may repeat; a repeated
        entry's rows XOR-accumulate, exactly like repeated scalar injects).
        """
        entries = np.asarray(entries, dtype=np.int64).reshape(-1)
        packed_rows = np.asarray(packed_rows, dtype=np.uint64)
        if packed_rows.shape != (entries.size, _PACKED_WORDS):
            raise ValueError("packed rows must be (len(entries), 5) uint64")
        if not entries.size:
            return
        if entries.min() < 0 or entries.max() >= self.geometry.total_entries:
            raise ValueError("entry index out of range")
        self._upset_pending_entries.append(entries.copy())
        self._upset_pending_rows.append(packed_rows.copy())

    def _consolidate_upsets(self) -> None:
        if not self._upset_pending_entries:
            return
        entries = np.concatenate(
            [self._upset_entries_arr] + self._upset_pending_entries
        )
        rows = np.concatenate([self._upset_rows] + self._upset_pending_rows)
        self._upset_pending_entries.clear()
        self._upset_pending_rows.clear()
        order = np.argsort(entries, kind="stable")
        entries = entries[order]
        rows = rows[order]
        run_start = np.flatnonzero(np.r_[True, np.diff(entries) != 0])
        merged = np.bitwise_xor.reduceat(rows, run_start, axis=0)
        unique_entries = entries[run_start]
        nonzero = merged.any(axis=1)
        self._upset_entries_arr = unique_entries[nonzero]
        self._upset_rows = merged[nonzero]

    def _upset_bits(self, entry_index: int) -> np.ndarray | None:
        self._consolidate_upsets()
        position = np.searchsorted(self._upset_entries_arr, entry_index)
        if (position < self._upset_entries_arr.size
                and self._upset_entries_arr[position] == entry_index):
            return unpack_rows(
                self._upset_rows[position], self.geometry.entry_bits
            ).astype(np.uint8)
        return None

    # -- reads -----------------------------------------------------------------
    def stored_bits(self, entry_index: int) -> np.ndarray:
        """The value the cells *hold* (writes + upsets, before leakage)."""
        self._check_index(entry_index)
        base = self._written.get(entry_index)
        if base is None:
            base = np.asarray(self._background(entry_index), dtype=np.uint8)
        bits = base.copy()
        upset = self._upset_bits(entry_index)
        if upset is not None:
            bits ^= upset
        return bits

    def read_entry(self, entry_index: int) -> np.ndarray:
        """The value a read returns: stored bits plus retention leakage."""
        bits = self.stored_bits(entry_index)
        self._consolidate_weak()
        lo = np.searchsorted(self._weak_entry, entry_index, side="left")
        hi = np.searchsorted(self._weak_entry, entry_index, side="right")
        for index in range(lo, hi):
            bit = int(self._weak_bit[index])
            leaks_to = int(self._weak_leaks[index])
            if (self._weak_retention[index] < self.refresh.period_s
                    and int(bits[bit]) != leaks_to):
                bits[bit] ^= 1
        return bits

    # -- efficient full-device scan ------------------------------------------------
    def _fault_sites(self) -> set[int]:
        self._consolidate_upsets()
        self._consolidate_weak()
        sites = set(self._upset_entries_arr.tolist())
        sites.update(self._written)
        sites.update(self._weak_entry.tolist())
        return sites

    def scan_mismatches(self, expected: PatternFn) -> Iterator[Mismatch]:
        """Compare every entry against ``expected``, visiting only fault
        sites.  Entries that hold the unmodified background pattern can only
        mismatch if ``expected`` differs from the background — callers pass
        the same pattern object they wrote, so those entries are skipped."""
        for entry_index in sorted(self._fault_sites()):
            observed = self.read_entry(entry_index)
            wanted = np.asarray(expected(entry_index), dtype=np.uint8)
            difference = np.nonzero(observed ^ wanted)[0]
            if difference.size:
                yield Mismatch(entry_index, tuple(int(b) for b in difference))

    def scan_mismatches_batch(
        self,
        expected: PatternFn,
        expected_packed: BatchPatternFn | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One packed XOR over every fault site.

        Returns ``(entries, diff_rows)``: the ascending entry indices that
        mismatch ``expected`` and their 288-bit observed-vs-expected
        differences, bit-packed to ``(len, 5)`` uint64 — exactly the sites
        :meth:`scan_mismatches` would yield, in the same order.
        ``expected_packed`` (and a ``packed_pattern`` given to
        :meth:`write_all`) keep the whole scan free of per-entry Python.
        """
        self._consolidate_upsets()
        self._consolidate_weak()
        entries = sorted_unique(np.concatenate([
            self._upset_entries_arr,
            np.fromiter(self._written, dtype=np.int64,
                        count=len(self._written)),
            self._weak_entry,
        ]).astype(np.int64))
        if not entries.size:
            return entries, np.empty((0, _PACKED_WORDS), dtype=np.uint64)

        stored = self._packed_background(entries)
        # Scanning against the very pattern that was written (the usual
        # call shape) needs only one pattern evaluation: the pristine
        # background rows *are* the expected rows.
        wanted = stored.copy() \
            if expected_packed is not None \
            and expected_packed is self._background_packed else None
        if self._written:
            written = np.fromiter(self._written, dtype=np.int64,
                                  count=len(self._written))
            rows = pack_rows(np.stack(
                [self._written[int(e)] for e in written]
            ).astype(np.uint8))
            stored[np.searchsorted(entries, written)] = rows
        if self._upset_entries_arr.size:
            stored[np.searchsorted(entries, self._upset_entries_arr)] ^= \
                self._upset_rows

        if self._weak_entry.size:
            position = np.searchsorted(entries, self._weak_entry)
            word = (self._weak_bit >> 6).astype(np.int64)
            shift = (self._weak_bit & 63).astype(np.uint64)
            stored_bit = (stored[position, word] >> shift) & np.uint64(1)
            corrupts = (
                (self._weak_retention < self.refresh.period_s)
                & (stored_bit.astype(np.int64) != self._weak_leaks)
            )
            np.bitwise_xor.at(
                stored,
                (position[corrupts], word[corrupts]),
                np.uint64(1) << shift[corrupts],
            )

        if wanted is not None:
            pass
        elif expected_packed is not None:
            wanted = np.asarray(expected_packed(entries), dtype=np.uint64)
        else:
            wanted = pack_rows(np.stack([
                np.asarray(expected(int(e)), dtype=np.uint8) for e in entries
            ]))
        diff = stored ^ wanted
        keep = diff.any(axis=1)
        return entries[keep], diff[keep]

    def _packed_background(self, entries: np.ndarray) -> np.ndarray:
        if self._background_packed is not None:
            return np.array(self._background_packed(entries),
                            dtype=np.uint64, copy=True)
        return pack_rows(np.stack([
            np.asarray(self._background(int(e)), dtype=np.uint8)
            for e in entries
        ])) if entries.size else np.empty((0, _PACKED_WORDS), dtype=np.uint64)

    # -- bookkeeping -----------------------------------------------------------
    def _check_index(self, entry_index: int) -> None:
        if not 0 <= entry_index < self.geometry.total_entries:
            raise ValueError(f"entry index {entry_index} out of range")

    @property
    def upset_entries(self) -> int:
        self._consolidate_upsets()
        return int(self._upset_entries_arr.size)
