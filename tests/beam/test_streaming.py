"""The streaming statistics path end to end.

A streamed campaign (scout sweep → global damage filter → evaluation
sweep folding into mergeable accumulators) must be float-identical to
the materialized shm run and to the scalar reference engine, seed for
seed, on every pool configuration — including a collision-heavy tiny
geometry where the global intermittent filter actually removes events,
and the pooled path where the damaged-entry set travels through a
shared-memory broadcast.
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
    """The materialized result every streamed run must reproduce."""
    return run_statistics_campaign(
        EVENTS, seed=SEED, chunk=CHUNK, engine="shm", stats="materialize")


@pytest.fixture(scope="module")
def streamed():
    return run_statistics_campaign(
        EVENTS, seed=SEED, chunk=CHUNK, engine="shm", stats="streaming")


class TestStreamingEquivalence:
    def test_shm_float_identical(self, oracle, streamed):
        _assert_stats_identical(streamed, oracle)

    def test_reference_float_identical(self, streamed):
        reference = run_statistics_campaign(
            EVENTS, seed=SEED, chunk=CHUNK, engine="reference")
        _assert_stats_identical(streamed, reference)

    def test_range_partition_invariant(self, streamed):
        for range_chunks in (1, 3, 64):
            repartitioned = run_statistics_campaign(
                EVENTS, seed=SEED, chunk=CHUNK, engine="shm",
                stats="streaming", range_chunks=range_chunks)
            _assert_stats_identical(repartitioned, streamed)

    def test_global_filter_fires_on_a_tiny_geometry(self):
        # ~1k entries under 400 events x multiple write cycles: entry
        # collisions are certain, so the scout's damaged set is non-empty
        # and the evaluation sweep must drop the same records the
        # materialized intermittent filter drops.
        geometry = HBM2Geometry(
            num_stacks=1, channels_per_stack=1, banks_per_channel=2,
            subarrays_per_bank=2, rows_per_subarray=16, columns_per_row=16)
        kwargs = dict(seed=7, chunk=64, geometry=geometry)
        materialized = run_statistics_campaign(
            400, engine="shm", stats="materialize", **kwargs)
        streamed = run_statistics_campaign(
            400, engine="shm", stats="streaming", **kwargs)
        _assert_stats_identical(streamed, materialized)
        reference = run_statistics_campaign(400, engine="reference",
                                            **kwargs)
        _assert_stats_identical(streamed, reference)
        assert streamed.n_observed < 400  # events were really filtered


@pytest.mark.slow
class TestStreamingPooled:
    def test_pooled_matches_serial_with_shm_broadcast(self, streamed):
        pooled = run_statistics_campaign(
            EVENTS, seed=SEED, chunk=CHUNK, engine="shm",
            stats="streaming", workers=2, range_chunks=2)
        _assert_stats_identical(pooled, streamed)


class TestStreamingContract:
    def test_reference_engine_rejected(self):
        with pytest.raises(ValueError, match="no streaming statistics"):
            run_statistics_campaign(100, seed=1, engine="reference",
                                    stats="streaming")

    def test_unknown_stats_mode_rejected(self):
        with pytest.raises(ValueError, match="stats"):
            run_statistics_campaign(100, seed=1, stats="bogus")

    def test_observed_events_refuse_to_materialize(self, streamed):
        with pytest.raises(RuntimeError, match="stats='materialize'"):
            streamed.observed_events

    def test_stats_mode_reported(self, oracle, streamed):
        assert streamed.stats_mode == "streaming"
        assert streamed.counters()["stats"] == "streaming"
        assert oracle.stats_mode == "materialize"
        assert "stats" not in oracle.counters()

    def test_streaming_stage_vocabulary(self, streamed):
        assert set(streamed.stage_seconds) == set(engine._STREAM_STAGES)

    def test_accumulator_state_is_the_result(self, streamed):
        # The returned accumulator is O(state): merging a round-tripped
        # copy of its transport form re-derives every reported statistic.
        clone = CampaignAccumulator.from_state(streamed.accumulator.state())
        final = clone.finalize()
        assert tuple(final) == STATS_KEYS
        assert final["class_fractions"] == streamed.class_fractions
        assert final["table1"] == streamed.table1
        assert clone.n_observed == streamed.n_observed
