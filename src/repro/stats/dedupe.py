"""Entry-occupancy index for the global intermittent filter.

The post-processing contract says an entry with records in two or more
distinct write cycles — *anywhere in the campaign* — is displacement
damage, and every record it produced must be excluded.  The materialized
engines see all records at once, so a ``np.unique`` answers it; a
streaming engine never holds the campaign's records, so the multiplicity
question needs a structure bounded by the device, not by the events.

Two representations answer it, chosen from the folded input alone:

* a **sorted int64 set** of the entries seen so far — 8 B per distinct
  entry, kept as a few sorted runs that merge geometrically, so a fold
  costs its own size (amortized), not the set's.  A small campaign
  touches a few thousand entries scattered over the whole device, so
  this is kilobytes where a bitmap would fault in nearly all of its
  pages;
* a **one-bit-per-entry bitmap** (2^30 entries on the default A100
  geometry → a flat 128 MiB), which the index switches to for good once
  the set reaches half its size.  A merge briefly holds the merged run
  next to its inputs, so past that point the set would peak above the
  bitmap it stands in for.

Occupancy memory between folds is therefore ``8 B × distinct entries``
up to device/16, then device/8 — never more than twice ``min(8 B ×
distinct, device/8)``.  The transient peak stays under the bitmap while
the set lives, and under 1.5× the bitmap at the switch, which holds the
new bitmap and the set together (the runs fold in bounded slices,
largest first, each dropped once folded) — plus a few MiB of
temporaries for one fold's input and one slice.

Fold order does not matter: an entry is damaged exactly when its global
multiplicity is ≥ 2, and any interleaving of per-range folds sees the
second occurrence either as an intra-range duplicate or as an
already-seen entry.  The damaged *set* is therefore identical for every
range partition and either representation — the property the streaming
engine's float-identity contract rests on.
"""

from __future__ import annotations

import numpy as np

from repro.core.arrays import concat_or_empty

__all__ = ["EntryOccupancy"]


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` for int64 by sort and run-start mask (numpy's own
    imports ``numpy.ma`` on first use, a cost a short CLI run notices)."""
    values = np.sort(values)
    if values.size > 1:
        values = values[np.r_[True, values[1:] != values[:-1]]]
    return values


#: entries per slice when the set folds into the new bitmap: bounds the
#: switch's temporaries to about a MiB
_SWITCH_SLICE = 1 << 16


class EntryOccupancy:
    """Seen-entry index (sorted set, then bitmap) with duplicate
    (damaged) collection."""

    def __init__(self, total_entries: int) -> None:
        if total_entries <= 0:
            raise ValueError("total_entries must be positive")
        self.total_entries = int(total_entries)
        self._bitmap_bytes = (self.total_entries + 7) // 8
        #: sorted, pairwise-disjoint runs of seen entries, each less than
        #: half the size of the one before it (until _bits)
        self._runs: list[np.ndarray] = []
        self._bits: np.ndarray | None = None
        self._damaged_parts: list[np.ndarray] = []

    @property
    def nbytes(self) -> int:
        if self._bits is not None:
            return int(self._bits.nbytes)
        return sum(int(run.nbytes) for run in self._runs)

    def fold(self, unique_entries: np.ndarray,
             duplicated: np.ndarray) -> None:
        """Fold one range's entries: ``unique_entries`` are the distinct
        entry indices the range touched (ascending, as ``np.unique``
        returns them; other orders are sorted first), ``duplicated`` the
        subset it already saw at least twice *within* the range (both
        int64, ``duplicated ⊆ unique_entries``)."""
        unique_entries = np.asarray(unique_entries, dtype=np.int64)
        if unique_entries.size > 1 \
                and (unique_entries[1:] <= unique_entries[:-1]).any():
            unique_entries = _sorted_unique(unique_entries)
        if unique_entries.size:
            if int(unique_entries[-1]) >= self.total_entries \
                    or int(unique_entries[0]) < 0:
                raise ValueError("entry index outside the device")
            if self._bits is None:
                self._fold_set(unique_entries)
            else:
                self._fold_bitmap(unique_entries)
        duplicated = np.asarray(duplicated, dtype=np.int64)
        if duplicated.size:
            self._damaged_parts.append(duplicated)

    def _fold_set(self, unique_entries: np.ndarray) -> None:
        seen = np.zeros(unique_entries.size, dtype=bool)
        for run in self._runs:
            slots = np.minimum(np.searchsorted(run, unique_entries),
                               run.size - 1)
            seen |= run[slots] == unique_entries
        if seen.any():
            self._damaged_parts.append(unique_entries[seen])
        fresh = unique_entries[~seen]  # a copy: the caller keeps its array
        if not fresh.size:
            return
        if 2 * (self.nbytes + 8 * fresh.size) > self._bitmap_bytes:
            # past half the bitmap a merge would peak above it: switch
            # for good
            self._to_bitmap()
            self._fold_bitmap(fresh)
            return
        runs = self._runs
        runs.append(fresh)
        # merge while the newest run is at least half its predecessor:
        # sizes then more than double down the list, so there are
        # O(log n) runs and each entry is merged O(log n) times
        while len(runs) > 1 and 2 * runs[-1].size >= runs[-2].size:
            # popped, so both inputs are freed once concatenated; the
            # in-place sort then needs no second buffer
            merged = np.concatenate((runs.pop(), runs.pop()))
            merged.sort()
            runs.append(merged)

    def _fold_bitmap(self, unique_entries: np.ndarray) -> None:
        word = unique_entries >> 3
        mask = np.left_shift(np.uint8(1),
                             (unique_entries & 7).astype(np.uint8))
        seen = (self._bits[word] & mask) != 0
        if seen.any():
            self._damaged_parts.append(unique_entries[seen])
        # the entries are ascending, so each word's bits are one run:
        # OR-reduce every run and store once per word
        starts = np.flatnonzero(np.r_[True, word[1:] != word[:-1]])
        self._bits[word[starts]] |= np.bitwise_or.reduceat(mask, starts)

    def _to_bitmap(self) -> None:
        self._bits = np.zeros(self._bitmap_bytes, dtype=np.uint8)
        runs, self._runs = self._runs, []
        while runs:  # largest first, so most of the set is freed early
            run = runs.pop(0)
            for lo in range(0, run.size, _SWITCH_SLICE):
                self._fold_bitmap(run[lo:lo + _SWITCH_SLICE])

    def damaged(self) -> np.ndarray:
        """Sorted unique damaged entries folded so far (int64)."""
        if not self._damaged_parts:
            return np.empty(0, dtype=np.int64)
        merged = _sorted_unique(
            concat_or_empty(self._damaged_parts, np.int64))
        # keep the deduped form so repeated calls stay cheap
        self._damaged_parts = [merged]
        return merged
