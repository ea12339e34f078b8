"""Property suite for the streaming campaign accumulators.

Two contracts: the merge algebra (associative, commutative, identity —
any partition of an event stream, folded in any order, yields tallies
equal to one whole-stream fold) and oracle equivalence (``finalize``,
the one vectorized definition of the statistics, must be
*float-identical* to the scalar functions in
:mod:`repro.beam.postprocess`, seed for seed).
"""

import numpy as np
import pytest

from repro.beam.engine import run_statistics_campaign
from repro.beam.postprocess import (
    bits_per_word_histogram,
    breadth_class_fractions,
    byte_alignment_stats,
    derive_table1,
    mbme_breadth_histogram,
)
from repro.stats import STATS_KEYS, CampaignAccumulator, TooFewEventsError

SEED = 41
EVENTS = 600


@pytest.fixture(scope="module")
def observed():
    """One scalar reference campaign's observed events — the test
    stream."""
    return run_statistics_campaign(
        EVENTS, seed=SEED, engine="reference").observed_events


def _fold(events) -> CampaignAccumulator:
    acc = CampaignAccumulator()
    acc.update_from_events(events)
    return acc


def _tallies(acc: CampaignAccumulator) -> dict:
    """The partition-invariant state (fold wall-clock excluded)."""
    state = dict(acc.state())
    state.pop("fold_ns")
    return state


class TestOracleEquivalence:
    def test_finalize_is_float_identical_to_the_tables(self, observed):
        final = _fold(observed).finalize()
        assert tuple(final) == STATS_KEYS
        # exact float equality with the scalar oracle, not approx
        assert final["class_fractions"] == breadth_class_fractions(observed)
        assert final["mbme_histogram"] == mbme_breadth_histogram(observed)
        assert final["byte_alignment"] == byte_alignment_stats(observed)
        assert final["bits_per_word_aligned"] \
            == bits_per_word_histogram(observed, byte_aligned=True)
        assert final["bits_per_word_non_aligned"] \
            == bits_per_word_histogram(observed, byte_aligned=False)
        assert final["table1"] == derive_table1(observed)

    def test_observed_count_matches_the_stream(self, observed):
        assert _fold(observed).n_observed == len(observed)


class TestMergeAlgebra:
    @pytest.mark.parametrize("partition_seed", [0, 1, 2, 3])
    def test_any_partition_in_any_order(self, observed, partition_seed):
        rng = np.random.default_rng(partition_seed)
        k = int(rng.integers(2, 8))
        cuts = np.sort(rng.integers(0, len(observed) + 1, size=k - 1))
        bounds = [0, *cuts.tolist(), len(observed)]
        parts = [_fold(observed[lo:hi])
                 for lo, hi in zip(bounds[:-1], bounds[1:])]
        merged = CampaignAccumulator.empty()
        for index in rng.permutation(len(parts)):
            merged = merged.merge(parts[index])
        whole = _fold(observed)
        assert _tallies(merged) == _tallies(whole)
        assert merged.finalize() == whole.finalize()

    def test_associative(self, observed):
        third = len(observed) // 3
        a = _fold(observed[:third])
        b = _fold(observed[third:2 * third])
        c = _fold(observed[2 * third:])
        assert _tallies(a.merge(b).merge(c)) \
            == _tallies(a.merge(b.merge(c)))

    def test_commutative(self, observed):
        half = len(observed) // 2
        a, b = _fold(observed[:half]), _fold(observed[half:])
        assert a.merge(b).state() == b.merge(a).state()

    def test_empty_is_the_identity(self, observed):
        acc = _fold(observed)
        for merged in (acc.merge(CampaignAccumulator.empty()),
                       CampaignAccumulator.empty().merge(acc)):
            assert merged.state() == acc.state()


class TestStateTransport:
    def test_round_trip(self, observed):
        acc = _fold(observed)
        acc.add_raw(n_events=EVENTS, n_records=3 * len(observed))
        clone = CampaignAccumulator.from_state(acc.state())
        assert clone.state() == acc.state()
        assert clone.finalize() == acc.finalize()

    def test_state_is_plain_types(self, observed):
        import json

        assert json.loads(json.dumps(_fold(observed).state()))

    def test_version_gate(self):
        state = CampaignAccumulator().state()
        state["version"] = 99
        with pytest.raises(ValueError, match="state version"):
            CampaignAccumulator.from_state(state)


class TestFailureParity:
    """``finalize`` raises exactly where the oracles raise."""

    def test_no_observed_events(self):
        with pytest.raises(TooFewEventsError, match="no events to classify"):
            CampaignAccumulator().finalize()
        with pytest.raises(TooFewEventsError, match="no events to classify"):
            breadth_class_fractions([])

    def test_no_multibit_events(self):
        acc = CampaignAccumulator()
        acc.n_observed = 5
        acc.class_counts = np.array([5, 0, 0, 0], dtype=np.int64)
        with pytest.raises(TooFewEventsError, match="no multi-bit events"):
            acc.finalize()


class TestThroughput:
    def test_zero_before_any_fold(self):
        assert CampaignAccumulator().events_per_second == 0.0

    def test_positive_after_a_fold(self, observed):
        acc = _fold(observed)
        acc.add_raw(n_events=EVENTS)
        assert acc.events_per_second > 0.0
