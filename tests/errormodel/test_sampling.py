"""Tests for exhaustive enumerators and random samplers."""

import numpy as np
import pytest

from repro.errormodel.classify import classify_errors_batch
from repro.errormodel.patterns import ErrorPattern
from repro.errormodel.sampling import (
    count_triple_bit_errors,
    enumerate_bit_errors,
    enumerate_bit_errors_packed,
    enumerate_byte_errors,
    enumerate_byte_errors_packed,
    enumerate_double_bit_errors,
    enumerate_double_bit_errors_packed,
    enumerate_pin_errors,
    enumerate_pin_errors_packed,
    iter_triple_bit_errors,
    iter_triple_bit_errors_packed,
    pattern_space_size,
    sample_beat_errors,
    sample_beat_errors_packed,
    sample_entry_errors,
    sample_entry_errors_packed,
    sample_pattern,
    sample_triple_bit_errors,
    sample_triple_bit_errors_packed,
)
from repro.core.layout import bits_of_beat, bits_of_byte, bits_of_pin
from repro.errormodel import sampling
from repro.gf.gf2 import bytes_from_rows, pack_rows
from tests.errormodel import sampling_oracle as oracle


class TestEnumerations:
    def test_bit_space(self):
        errors = enumerate_bit_errors()
        assert errors.shape == (288, 288)
        assert np.all(errors.sum(axis=1) == 1)

    def test_pin_space(self):
        errors = enumerate_pin_errors()
        assert errors.shape[0] == 72 * 11  # 792
        labels = classify_errors_batch(errors)
        assert all(label is ErrorPattern.PIN for label in labels)

    def test_byte_space(self):
        errors = enumerate_byte_errors()
        assert errors.shape[0] == 36 * 247  # 8892
        labels = classify_errors_batch(errors[:500])
        assert all(label is ErrorPattern.BYTE for label in labels)

    def test_double_bit_space(self):
        errors = enumerate_double_bit_errors()
        assert errors.shape[0] == 39888
        assert np.all(errors.sum(axis=1) == 2)
        labels = classify_errors_batch(errors[::200])
        assert all(label is ErrorPattern.DOUBLE_BIT for label in labels)

    def test_double_bit_count_closed_form(self):
        total = 288 * 287 // 2
        same_pin = 72 * 6  # C(4,2) per pin
        same_byte = 36 * 28  # C(8,2) per byte
        assert enumerate_double_bit_errors().shape[0] == total - same_pin - same_byte

    def test_no_duplicate_patterns(self):
        errors = enumerate_pin_errors()
        unique = {tuple(np.nonzero(row)[0].tolist()) for row in errors}
        assert len(unique) == errors.shape[0]


class TestTripleBits:
    def test_count_closed_form(self):
        expected = 288 * 287 * 286 // 6 - 72 * 4 - 36 * 56
        assert count_triple_bit_errors() == expected

    def test_iterator_blocks_valid(self):
        chunk = next(iter_triple_bit_errors(chunk=2048))
        assert chunk.shape[0] <= 2048 and chunk.shape[1] == 288
        assert np.all(chunk.sum(axis=1) == 3)
        labels = classify_errors_batch(chunk[::100])
        assert all(label is ErrorPattern.TRIPLE_BIT for label in labels)

    def test_iterator_total_matches_closed_form(self):
        total = sum(block.shape[0] for block in iter_triple_bit_errors())
        assert total == count_triple_bit_errors()

    def test_iterator_triples_unique(self):
        seen = set()
        for block in iter_triple_bit_errors(chunk=100_000):
            for row in block[:50]:  # spot-check each block's head
                seen.add(tuple(np.nonzero(row)[0].tolist()))
        assert len(seen) == len({tuple(sorted(t)) for t in seen})

    def test_sampler(self):
        rng = np.random.default_rng(0)
        errors = sample_triple_bit_errors(500, rng)
        assert errors.shape == (500, 288)
        labels = classify_errors_batch(errors)
        assert all(label is ErrorPattern.TRIPLE_BIT for label in labels)


class TestRandomSamplers:
    def test_beat_errors_classify_correctly(self):
        rng = np.random.default_rng(1)
        errors = sample_beat_errors(300, rng)
        labels = classify_errors_batch(errors)
        assert all(label is ErrorPattern.BEAT for label in labels)

    def test_beat_errors_confined_to_one_beat(self):
        rng = np.random.default_rng(2)
        errors = sample_beat_errors(100, rng)
        for row in errors:
            beats = {int(i) // 72 for i in np.nonzero(row)[0]}
            assert len(beats) == 1

    def test_entry_errors_classify_correctly(self):
        rng = np.random.default_rng(3)
        errors = sample_entry_errors(300, rng)
        labels = classify_errors_batch(errors)
        assert all(label is ErrorPattern.ENTRY for label in labels)

    def test_entry_errors_have_binomial_weight(self):
        rng = np.random.default_rng(4)
        weights = sample_entry_errors(500, rng).sum(axis=1)
        assert 130 < weights.mean() < 158  # ~144 expected

    def test_determinism(self):
        first = sample_beat_errors(50, np.random.default_rng(7))
        second = sample_beat_errors(50, np.random.default_rng(7))
        assert np.array_equal(first, second)


class TestCaching:
    """Exhaustive enumerations are computed once and returned read-only."""

    def test_enumerations_cached(self):
        assert enumerate_bit_errors() is enumerate_bit_errors()
        assert enumerate_pin_errors() is enumerate_pin_errors()
        assert enumerate_byte_errors() is enumerate_byte_errors()
        assert enumerate_double_bit_errors() is enumerate_double_bit_errors()

    def test_cached_arrays_read_only(self):
        errors = enumerate_double_bit_errors()
        with pytest.raises(ValueError):
            errors[0, 0] = 1

    def test_packed_enumerations_cached(self):
        assert enumerate_bit_errors_packed() is enumerate_bit_errors_packed()
        assert enumerate_byte_errors_packed() is enumerate_byte_errors_packed()


#: (packed sampler, its byte-row oracle)
SAMPLER_PAIRS = [
    (sample_triple_bit_errors_packed, oracle.sample_triple_bit_errors),
    (sample_beat_errors_packed, oracle.sample_beat_errors),
    (sample_entry_errors_packed, oracle.sample_entry_errors),
]
SAMPLER_IDS = ["triple", "beat", "entry"]


class TestPackedVariants:
    """Packed emitters carry the exact bits of their unpacked counterparts."""

    def test_packed_enumerations_match(self):
        pairs = [
            (enumerate_bit_errors, enumerate_bit_errors_packed),
            (enumerate_pin_errors, enumerate_pin_errors_packed),
            (enumerate_byte_errors, enumerate_byte_errors_packed),
            (enumerate_double_bit_errors, enumerate_double_bit_errors_packed),
        ]
        for unpacked, packed in pairs:
            assert np.array_equal(packed(), pack_rows(unpacked()))

    @pytest.mark.parametrize("pair", SAMPLER_PAIRS)
    def test_packed_samplers_share_random_stream(self, pair):
        """Each packed sampler equals its byte-row oracle, packed."""
        packed_fn, oracle_fn = pair
        expected = pack_rows(oracle_fn(200, np.random.default_rng(42)))
        packed = packed_fn(200, np.random.default_rng(42))
        assert packed.dtype == np.uint64
        assert np.array_equal(packed, expected)

    def test_packed_triple_iterator_matches(self):
        unpacked = next(iter_triple_bit_errors(chunk=4096))
        packed = next(iter_triple_bit_errors_packed(chunk=4096))
        assert np.array_equal(packed, pack_rows(unpacked))


class TestPackedSamplers:
    """Each packed sampler draws the oracle's stream and keeps its rows."""

    @pytest.mark.parametrize("count", [1, 3, 1000, 20000])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("pair", SAMPLER_PAIRS, ids=SAMPLER_IDS)
    def test_packed_sampler_equals_oracle(self, pair, seed, count):
        packed_fn, oracle_fn = pair
        expected = pack_rows(oracle_fn(count, np.random.default_rng(seed)))
        assert np.array_equal(packed_fn(count, np.random.default_rng(seed)),
                              expected)

    @pytest.mark.parametrize("pair", SAMPLER_PAIRS, ids=SAMPLER_IDS)
    def test_stream_continues_identically(self, pair):
        """Two draws in a row leave both generators in the same state."""
        packed_fn, oracle_fn = pair
        packed_rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
        packed_fn(300, packed_rng)
        oracle_fn(300, oracle_rng)
        assert np.array_equal(packed_fn(300, packed_rng),
                              pack_rows(oracle_fn(300, oracle_rng)))

    def test_unpacked_samplers_unpack_the_packed_ones(self):
        for unpacked, packed in ((sample_triple_bit_errors,
                                  sample_triple_bit_errors_packed),
                                 (sample_beat_errors, sample_beat_errors_packed),
                                 (sample_entry_errors, sample_entry_errors_packed)):
            bits = unpacked(100, np.random.default_rng(6))
            assert bits.shape == (100, 288) and bits.dtype == np.uint8
            assert np.array_equal(pack_rows(bits),
                                  packed(100, np.random.default_rng(6)))


def _sparse_rows(rng, count):
    """Low-weight errors that straddle every Table-1 boundary: anywhere in
    the entry, inside one beat, one byte, one pin, or two beats."""
    rows = np.zeros((count, 288), dtype=np.uint8)
    for row in rows:
        weight = int(rng.integers(1, 9))
        region = int(rng.integers(0, 5))
        if region == 0:
            pool = np.arange(288)
        elif region == 1:
            pool = bits_of_beat(int(rng.integers(0, 4)))
        elif region == 2:
            pool = bits_of_byte(int(rng.integers(0, 36)))
        elif region == 3:
            pool = bits_of_pin(int(rng.integers(0, 72)))
        else:
            pool = np.concatenate([bits_of_beat(0), bits_of_beat(3)])
        row[rng.choice(pool, size=min(weight, pool.size), replace=False)] = 1
    return rows


class TestKeepRules:
    """The packed keep-rules select exactly the classifier's BEAT/ENTRY."""

    def test_entry_rule_matches_classifier(self):
        rows = _sparse_rows(np.random.default_rng(11), 4000)
        labels = classify_errors_batch(rows)
        kept = sampling._is_entry(bytes_from_rows(rows))
        assert np.array_equal(kept, labels == ErrorPattern.ENTRY)
        assert kept.any() and not kept.all()

    def test_beat_rule_matches_classifier(self):
        rows = _sparse_rows(np.random.default_rng(12), 4000)
        by_beat = rows.reshape(-1, 4, 72)
        one_beat = by_beat.any(axis=2).sum(axis=1) == 1
        rows, by_beat = rows[one_beat], by_beat[one_beat]
        beats = rows.argmax(axis=1) // 72  # the beat of the first set bit
        beat_bits = by_beat[np.arange(rows.shape[0]), beats]
        kept = sampling._is_beat(bytes_from_rows(beat_bits))
        labels = classify_errors_batch(rows)
        assert np.array_equal(kept, labels == ErrorPattern.BEAT)
        assert kept.any() and not kept.all()


class TestDispatcher:
    @pytest.mark.parametrize("pattern", list(ErrorPattern))
    def test_sample_pattern_yields_requested_class(self, pattern):
        rng = np.random.default_rng(5)
        errors = sample_pattern(pattern, 64, rng)
        assert errors.shape == (64, 288)
        labels = classify_errors_batch(errors)
        assert all(label is pattern for label in labels)

    def test_space_sizes(self):
        assert pattern_space_size(ErrorPattern.BIT) == 288
        assert pattern_space_size(ErrorPattern.PIN) == 792
        assert pattern_space_size(ErrorPattern.BYTE) == 8892
        assert pattern_space_size(ErrorPattern.DOUBLE_BIT) == 39888
        assert pattern_space_size(ErrorPattern.BEAT) is None
        assert pattern_space_size(ErrorPattern.ENTRY) is None
