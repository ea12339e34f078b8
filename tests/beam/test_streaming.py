"""The streaming statistics path end to end.

A streamed campaign (scout sweep → global damage filter → evaluation
sweep folding into mergeable accumulators) must be float-identical to
the scalar reference engine, seed for seed, on every pool configuration
— including a collision-heavy tiny geometry where the global
intermittent filter actually removes events, and the pooled path where
the damaged-entry set travels through a shared-memory broadcast.
"""

import pytest

from repro.beam import engine
from repro.beam.engine import run_statistics_campaign
from repro.dram.geometry import HBM2Geometry
from repro.stats import STATS_KEYS, CampaignAccumulator

SEED = 41
EVENTS = 600
CHUNK = 97  # deliberately not a divisor: last chunk is a short one


def _assert_stats_identical(a, b):
    assert a.n_records == b.n_records
    assert a.n_observed == b.n_observed
    assert a.class_fractions == b.class_fractions
    assert a.mbme_histogram == b.mbme_histogram
    assert a.byte_alignment == b.byte_alignment
    assert a.bits_per_word_aligned == b.bits_per_word_aligned
    assert a.bits_per_word_non_aligned == b.bits_per_word_non_aligned
    assert a.table1 == b.table1


@pytest.fixture(scope="module")
def oracle():
    """The scalar result every streamed run must reproduce."""
    return run_statistics_campaign(
        EVENTS, seed=SEED, chunk=CHUNK, engine="reference")


@pytest.fixture(scope="module")
def streamed():
    return run_statistics_campaign(
        EVENTS, seed=SEED, chunk=CHUNK, engine="shm")


class TestStreamingEquivalence:
    def test_shm_float_identical(self, oracle, streamed):
        # The shm engine's streamed accumulator holds the same exact
        # tallies as the scalar engine's, so every statistic it
        # finalizes (not only the reported fields) matches float for
        # float. fold_ns is wall-clock timing, not a tally.
        tallies = [{k: v for k, v in r.accumulator.state().items()
                    if k != "fold_ns"} for r in (streamed, oracle)]
        assert tallies[0] == tallies[1]
        assert streamed.accumulator.finalize() == \
            oracle.accumulator.finalize()

    def test_reference_float_identical(self, oracle, streamed):
        _assert_stats_identical(streamed, oracle)

    def test_range_partition_invariant(self, streamed):
        for range_chunks in (1, 3, 64):
            repartitioned = run_statistics_campaign(
                EVENTS, seed=SEED, chunk=CHUNK, engine="shm",
                range_chunks=range_chunks)
            _assert_stats_identical(repartitioned, streamed)

    def test_global_filter_fires_on_a_tiny_geometry(self):
        # ~1k entries under 400 events x multiple write cycles: entry
        # collisions are certain, so the scout's damaged set is non-empty
        # and the evaluation sweep must drop the same records the scalar
        # intermittent filter drops.
        geometry = HBM2Geometry(
            num_stacks=1, channels_per_stack=1, banks_per_channel=2,
            subarrays_per_bank=2, rows_per_subarray=16, columns_per_row=16)
        kwargs = dict(seed=7, chunk=64, geometry=geometry)
        streamed = run_statistics_campaign(400, engine="shm", **kwargs)
        reference = run_statistics_campaign(400, engine="reference",
                                            **kwargs)
        _assert_stats_identical(streamed, reference)
        assert streamed.n_observed < 400  # events were really filtered


@pytest.mark.slow
class TestStreamingPooled:
    def test_pooled_matches_serial_with_shm_broadcast(self, streamed):
        pooled = run_statistics_campaign(
            EVENTS, seed=SEED, chunk=CHUNK, engine="shm", workers=2,
            range_chunks=2)
        _assert_stats_identical(pooled, streamed)


class TestStreamingContract:
    def test_observed_events_refuse_to_materialize(self, oracle, streamed):
        with pytest.raises(RuntimeError, match="engine='reference'"):
            streamed.observed_events
        # the scalar oracle keeps its events; the accumulator folds them
        folded = CampaignAccumulator()
        folded.update_from_events(oracle.observed_events)
        assert folded.finalize() == oracle.accumulator.finalize()

    def test_streaming_stage_vocabulary(self, streamed):
        assert set(streamed.stage_seconds) == set(engine._STAGES["shm"])

    def test_accumulator_state_is_the_result(self, streamed):
        # The returned accumulator is O(state): merging a round-tripped
        # copy of its transport form re-derives every reported statistic.
        clone = CampaignAccumulator.from_state(streamed.accumulator.state())
        final = clone.finalize()
        assert tuple(final) == STATS_KEYS
        assert final["class_fractions"] == streamed.class_fractions
        assert final["table1"] == streamed.table1
        assert clone.n_observed == streamed.n_observed
