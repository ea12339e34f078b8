"""Tests for the correction sanity check."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layout import (
    ENTRY_BITS,
    NUM_BEATS,
    NUM_PINS,
    bits_of_byte,
    bits_of_pin,
)
from repro.core.sanity_check import (
    csc_violation,
    csc_violation_batch,
    csc_violation_masks,
    location_masks,
)

#: transmitted bits on the eight ECC pins 64-71 of the non-interleaved beat
ECC_PIN_BITS = [beat * NUM_PINS + pin for beat in range(NUM_BEATS)
                for pin in range(64, NUM_PINS)]


def _subset(pool):
    return st.lists(st.sampled_from([int(p) for p in pool]),
                    min_size=1, max_size=8, unique=True)


#: corrected-bit sets: scattered, on the ECC pins, inside one byte (sharing
#: a byte but no pin), on one pin, or one of those plus a stray position
_CONFINED = st.one_of(
    st.integers(0, 35).flatmap(lambda byte: _subset(bits_of_byte(byte))),
    st.integers(0, NUM_PINS - 1).flatmap(lambda pin: _subset(bits_of_pin(pin))),
    _subset(ECC_PIN_BITS),
)
POSITION_SETS = st.one_of(
    st.lists(st.integers(0, ENTRY_BITS - 1), max_size=8),
    _CONFINED,
    st.tuples(_CONFINED, st.integers(0, ENTRY_BITS - 1)).map(
        lambda pair: (pair[0] + [pair[1]])[:8]),
)


class TestScalar:
    def test_single_codeword_never_violates(self):
        assert not csc_violation([0, 100, 200], codewords_correcting=1)

    def test_same_byte_allowed(self):
        positions = [int(b) for b in bits_of_byte(4)[:3]]
        assert not csc_violation(positions, codewords_correcting=3)

    def test_same_pin_allowed(self):
        positions = [int(b) for b in bits_of_pin(10)]
        assert not csc_violation(positions, codewords_correcting=4)

    def test_scattered_corrections_violate(self):
        assert csc_violation([0, 100], codewords_correcting=2)

    def test_same_pin_across_beats_allowed(self):
        # bits 0 and 72 ride pin 0 in beats 0 and 1 — a pin fault.
        assert not csc_violation([0, 72], codewords_correcting=2)

    def test_different_pin_and_byte_across_beats_violates(self):
        # bit 0 (pin 0, byte 0) vs bit 81 (pin 9, byte 10): nothing shared.
        assert csc_violation([0, 81], codewords_correcting=2)

    def test_no_corrections(self):
        assert not csc_violation([], codewords_correcting=0)


class TestBatch:
    def test_matches_scalar_on_constructed_cases(self):
        cases = [
            ([0, 1, 2, 3], 4),
            ([0, 72, 144, 216], 4),  # one pin
            ([0, 100, -1, -1], 2),
            ([5, -1, -1, -1], 1),
            ([-1, -1, -1, -1], 0),
        ]
        positions = np.array([c[0] for c in cases], dtype=np.int64)
        counts = np.array([c[1] for c in cases], dtype=np.int64)
        batch = csc_violation_batch(positions, counts)
        for row, (pos, count) in enumerate(cases):
            valid = [p for p in pos if p >= 0]
            assert batch[row] == csc_violation(valid, count), row

    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=ENTRY_BITS - 1),
                         min_size=0, max_size=8),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50)
    def test_batch_equals_scalar(self, cases):
        width = 8
        positions = np.full((len(cases), width), -1, dtype=np.int64)
        counts = np.zeros(len(cases), dtype=np.int64)
        for row, (pos, count) in enumerate(cases):
            positions[row, : len(pos)] = pos
            counts[row] = count
        batch = csc_violation_batch(positions, counts)
        for row, (pos, count) in enumerate(cases):
            assert bool(batch[row]) == csc_violation(pos, count)

    def test_sentinel_slots_ignored(self):
        positions = np.array([[3, -1, 3, -1]], dtype=np.int64)
        assert not csc_violation_batch(positions, np.array([2]))[0]


class TestLocationMasks:
    @given(st.lists(st.tuples(POSITION_SETS, st.integers(0, 4),
                              st.randoms(use_true_random=False)),
                    min_size=1, max_size=20))
    @settings(max_examples=200)
    def test_mask_csc_equals_scalar(self, cases):
        """-1-padded slots in any order give the scalar verdict."""
        width = 12
        positions = np.full((len(cases), width), -1, dtype=np.int64)
        counts = np.zeros(len(cases), dtype=np.int64)
        for row, (pos, count, random) in enumerate(cases):
            slots = random.sample(range(width), len(pos))
            positions[row, slots] = pos
            counts[row] = count
        masks = location_masks(positions)
        got = csc_violation_masks(masks, counts)
        assert np.array_equal(got, csc_violation_batch(positions, counts))
        for row, (pos, count, _) in enumerate(cases):
            assert bool(got[row]) == csc_violation(pos, count), (pos, count)

    def test_sentinel_reads_zero(self):
        assert location_masks(np.array([-1, -1])) == 0

    def test_one_field_bit_per_position(self):
        masks = location_masks(np.arange(ENTRY_BITS)[:, None])
        assert len(set(masks.tolist())) == ENTRY_BITS
        assert all(bin(int(mask)).count("1") == 3 for mask in masks)

    def test_ecc_pins_across_beats_are_one_pin(self):
        pin = [64 + NUM_PINS * beat for beat in range(NUM_BEATS)]
        assert not csc_violation_masks(location_masks(np.array(pin)), 4)
        bytes_ = [64, 65, 71]  # byte column 8 of beat 0, three pins
        assert not csc_violation_masks(location_masks(np.array(bytes_)), 3)
        assert csc_violation_masks(location_masks(np.array([64, 65 + 72])), 2)
