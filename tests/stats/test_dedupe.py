"""The scout sweep's occupancy index against a brute-force recount.

:class:`EntryOccupancy` keeps a sorted entry set until it reaches half
the one-bit-per-entry device bitmap, then switches.  Whatever the fold
sequence, ``damaged()`` must equal the entries a whole-campaign
``np.unique(..., return_counts=True)`` counts at least twice; between
folds the index holds ``8 B x distinct entries`` up to device / 16 and
the bitmap past that, and no fold's transient peak exceeds 1.5x the
bitmap.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import EntryOccupancy

#: small devices put the set -> bitmap switch within a few folds
DEVICES = st.sampled_from([64, 257, 1024])


@st.composite
def fold_sequences(draw):
    total = draw(DEVICES)
    folds = draw(st.lists(
        st.lists(st.integers(0, total - 1), max_size=60),
        max_size=12,
    ))
    return total, folds


def _brute_force_damaged(folds) -> np.ndarray:
    entries = np.asarray([e for fold in folds for e in fold], dtype=np.int64)
    values, counts = np.unique(entries, return_counts=True)
    return values[counts > 1]


@settings(max_examples=200, deadline=None)
@given(fold_sequences())
def test_damaged_matches_brute_force_recount(case):
    total, folds = case
    occupancy = EntryOccupancy(total)
    distinct: set[int] = set()
    for fold in folds:
        # what a scout worker ships: the range's distinct entries and
        # those it hit more than once itself
        values, counts = np.unique(np.asarray(fold, dtype=np.int64),
                                   return_counts=True)
        occupancy.fold(values, values[counts > 1])
        distinct.update(fold)
        bitmap = (total + 7) // 8
        assert occupancy.nbytes == (
            bitmap if 16 * len(distinct) > bitmap else 8 * len(distinct))
        assert occupancy.nbytes <= 2 * min(8 * len(distinct), bitmap)
    expected = _brute_force_damaged(folds)
    assert np.array_equal(occupancy.damaged(), expected)
    assert occupancy.damaged().dtype == np.int64
    # repeated calls return the same deduplicated answer
    assert np.array_equal(occupancy.damaged(), expected)


@settings(max_examples=50, deadline=None)
@given(fold_sequences(), st.randoms(use_true_random=False))
def test_fold_order_and_input_order_do_not_matter(case, rng):
    total, folds = case
    forward = EntryOccupancy(total)
    shuffled = EntryOccupancy(total)
    for fold in folds:
        values, counts = np.unique(np.asarray(fold, dtype=np.int64),
                                   return_counts=True)
        forward.fold(values, values[counts > 1])
    for fold in rng.sample(folds, len(folds)):
        values, counts = np.unique(np.asarray(fold, dtype=np.int64),
                                   return_counts=True)
        unordered = values.copy()
        rng.shuffle(unordered)  # unsorted input is sorted on entry
        shuffled.fold(unordered, values[counts > 1])
    assert np.array_equal(forward.damaged(), shuffled.damaged())


def test_switches_to_the_bitmap_once_the_set_reaches_half_of_it():
    occupancy = EntryOccupancy(1024)  # bitmap: 128 B = 16 set entries
    occupancy.fold(np.arange(0, 16, 2), np.empty(0, dtype=np.int64))
    assert occupancy.nbytes == 8 * 8  # the sorted set, at half the bitmap
    occupancy.fold(np.arange(0, 24), np.empty(0, dtype=np.int64))
    assert occupancy.nbytes == 128  # 24 distinct entries: the bitmap
    occupancy.fold(np.array([1, 30, 31]), np.array([31]))
    assert occupancy.damaged().tolist() \
        == sorted([*range(0, 16, 2), 1, 31])


def test_a_small_campaign_never_allocates_the_device_bitmap():
    occupancy = EntryOccupancy(1 << 30)  # the 32 GB device: 128 MiB bitmap
    rng = np.random.default_rng(5)
    for _ in range(8):
        values = np.unique(rng.integers(0, 1 << 30, size=2_000))
        occupancy.fold(values, np.empty(0, dtype=np.int64))
    assert occupancy.nbytes <= 8 * 16_000


def test_rejects_entries_outside_the_device():
    occupancy = EntryOccupancy(16)
    with pytest.raises(ValueError, match="outside the device"):
        occupancy.fold(np.array([3, 16]), np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError, match="outside the device"):
        occupancy.fold(np.array([-1]), np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError, match="positive"):
        EntryOccupancy(0)


def test_transient_peak_stays_under_one_and_a_half_bitmaps():
    total = 1 << 27  # 16 MiB bitmap: large next to one fold's temporaries
    bitmap = (total + 7) // 8
    occupancy = EntryOccupancy(total)
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        peak = 0
        for _ in range(24):  # ~1.4M distinct entries: switches near fold 17
            values = np.unique(rng.integers(0, total, size=60_000))
            tracemalloc.reset_peak()
            occupancy.fold(values, np.empty(0, dtype=np.int64))
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert occupancy.nbytes == bitmap  # the switch happened
    # the switch holds the bitmap and the set; the rest is one fold's
    # input (0.5 MiB here) and one switch slice's temporaries
    assert peak <= 1.5 * bitmap + (6 << 20)
