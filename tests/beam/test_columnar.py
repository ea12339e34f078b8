"""Seed-for-seed equivalence of the vectorized beam paths vs the scalar
reference paths: packed transport, event synthesis, packed device scans,
the accumulator's statistics and the statistics-campaign engine (serial
and fanned out)."""

import tracemalloc

import numpy as np
import pytest

from repro.beam.engine import StatisticsResult, run_statistics_campaign
from repro.beam.events import BatchEventSynthesis
from repro.beam.fliptable import FlipTable, unpack_packed_rows
from repro.beam.microbenchmark import (
    ANPattern,
    CheckerboardPattern,
    Microbenchmark,
    MismatchRecord,
    STANDARD_PATTERNS,
    UniformPattern,
)
from repro.beam.postprocess import (
    bits_per_word_histogram,
    breadth_class_fractions,
    byte_alignment_stats,
    derive_table1,
    events_from_truth,
    events_from_truth_table,
    mbme_breadth_histogram,
)
from repro.dram.device import SimulatedHBM2
from repro.dram.geometry import HBM2Geometry
from repro.gf.gf2 import pack_rows
from repro.stats import CampaignAccumulator


def _small_geometry():
    return HBM2Geometry.for_gpu(32)


# ---------------------------------------------------------------------------
# Packed round trips
# ---------------------------------------------------------------------------

class TestPacking:
    def test_pack_unpack_round_trip(self):
        site_of_flip = np.repeat(np.arange(50), 4)
        bits = np.tile(np.array([0, 63, 64, 287]), 50)
        dense = np.zeros((50, 288), dtype=np.uint8)
        dense[site_of_flip, bits] = 1
        row_back, bit_back = unpack_packed_rows(pack_rows(dense))
        assert np.array_equal(row_back, site_of_flip)
        order = np.lexsort((bits, site_of_flip))
        assert np.array_equal(bit_back, bits[order])


    def test_table_packed_rows_and_events(self):
        times = np.arange(300, dtype=np.float64) * 20.0
        table = BatchEventSynthesis(seed=5).table_at(times)
        events = BatchEventSynthesis(seed=5).events_at(times)
        dense = np.zeros((table.n_sites, 288), dtype=np.uint8)
        for row, positions in zip(
            dense, (p for e in events for p in e.flips.values())
        ):
            row[positions] = 1
        assert np.array_equal(table.packed_rows(), pack_rows(dense))
        back = table.to_events()
        assert [(e.time_s, e.event_class, list(e.flips)) for e in back] \
            == [(e.time_s, e.event_class, list(e.flips)) for e in events]
        for got, want in zip(back, events):
            for entry, positions in want.flips.items():
                assert np.array_equal(got.flips[entry], positions)


# ---------------------------------------------------------------------------
# Vectorized synthesis vs the scalar oracle
# ---------------------------------------------------------------------------

def _assert_matches_oracle(table, events):
    reference = FlipTable.from_events(events)
    assert table.n_events == reference.n_events == len(events)
    assert np.array_equal(table.site_event, reference.site_event)
    assert np.array_equal(table.site_entry, reference.site_entry)
    assert np.array_equal(table.flip_bit, reference.flip_bit)
    assert np.array_equal(
        table.flips_per_site(), reference.flips_per_site()
    )


class _Quantized:
    """A phase stream whose uniforms are rounded down to multiples of 1/8,
    so without-replacement picks tie at their selection boundary."""

    def __init__(self, rng):
        self._rng = rng

    def random(self, size=None):
        return np.floor(self._rng.random(size) * 8) / 8


class TestBatchSynthesis:
    def test_table_matches_events_same_streams(self):
        times = np.arange(400, dtype=np.float64) * 17.0
        _assert_matches_oracle(
            BatchEventSynthesis(seed=101).table_at(times),
            BatchEventSynthesis(seed=101).events_at(times),
        )

    # 20211018's and 1701494130's first 1,000 events each hold an MBME
    # event over 5,000 entries wide, which spans several offset slices
    @pytest.mark.parametrize("seed", [3, 7, 20211018, 1701494130])
    def test_table_matches_events_across_seeds(self, seed):
        times = 20.0 * np.arange(1000)
        table = BatchEventSynthesis(seed=seed).table_at(times)
        events = BatchEventSynthesis(seed=seed).events_at(times)
        _assert_matches_oracle(table, events)
        if seed in (20211018, 1701494130):
            assert max(event.breadth for event in events) >= 5000

    def test_boundary_ties_match_the_oracle(self, monkeypatch):
        phase_rngs = BatchEventSynthesis._phase_rngs

        def quantized(self):
            rngs = phase_rngs(self)
            for name in ("pick", "off"):
                rngs[name] = _Quantized(rngs[name])
            return rngs

        monkeypatch.setattr(BatchEventSynthesis, "_phase_rngs", quantized)
        times = 20.0 * np.arange(400)
        _assert_matches_oracle(
            BatchEventSynthesis(seed=101).table_at(times),
            BatchEventSynthesis(seed=101).events_at(times),
        )

    def test_table_peak_memory_is_bounded(self):
        # This seed draws three 6,000-entry MBME events (the breadth
        # cap), so it sizes the kernel's largest transient.
        times = 20.0 * np.arange(4000)
        tracemalloc.start()
        try:
            BatchEventSynthesis(seed=1701494130).table_at(times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 128 * 2**20

    def test_interval_table_matches_interval_events(self):
        a = BatchEventSynthesis(seed=77)
        b = BatchEventSynthesis(seed=77)
        # two consecutive intervals: spawn state must advance identically
        for start in (0.0, 400.0):
            table = a.interval_table(400.0, start)
            events = b.interval_events(400.0, start)
            reference = FlipTable.from_events(events)
            assert np.array_equal(table.site_entry, reference.site_entry)
            assert np.array_equal(table.flip_bit, reference.flip_bit)
            assert np.allclose(
                table.event_columns["time_s"],
                [event.time_s for event in events],
                rtol=0, atol=0,
            )


# ---------------------------------------------------------------------------
# The microbenchmark's packed scan vs the scalar device scan
# ---------------------------------------------------------------------------

def _corruptor(seed: int):
    """Injects 40 three-bit upsets per call, the same ones for one seed."""
    rng = np.random.default_rng(seed)

    def corrupt(device):
        for entry in rng.integers(0, 10_000, size=40):
            flips = np.zeros(288, dtype=np.uint8)
            flips[rng.choice(288, size=3, replace=False)] = 1
            device.inject_upset(int(entry), flips)

    return corrupt


class TestBatchScan:
    @pytest.mark.parametrize("pattern_index", [0, 1, 2])
    def test_microbenchmark_records_identical(self, pattern_index):
        write_cycles, reads_per_write = 2, 2
        device = SimulatedHBM2(_small_geometry())
        corrupt = _corruptor(9)
        bench = Microbenchmark(
            device, write_cycles=write_cycles,
            reads_per_write=reads_per_write,
        )
        records = bench.run(
            STANDARD_PATTERNS()[pattern_index],
            environment=lambda dt: corrupt(device),
        )

        # The oracle: the same loop and corruption schedule, written out
        # over the scalar scan with its data-bit filter.
        pattern = STANDARD_PATTERNS()[pattern_index]
        device = SimulatedHBM2(_small_geometry())
        corrupt = _corruptor(9)
        expected_records = []
        clock = 0.0
        for cycle in range(write_cycles):
            inverted = cycle % 2 == 1
            expected = pattern.entry_fn(inverted)
            device.write_all(expected)
            corrupt(device)
            clock += bench.loop_time_s
            for read_pass in range(reads_per_write):
                for mismatch in device.scan_mismatches(expected):
                    data = tuple(
                        bit for bit in mismatch.bit_positions if bit < 256
                    )
                    if data:
                        expected_records.append(MismatchRecord(
                            time_s=clock, run=0, pattern=pattern.name,
                            write_cycle=cycle, read_pass=read_pass,
                            inverted=inverted,
                            entry_index=mismatch.entry_index,
                            bit_positions=data,
                        ))
                corrupt(device)
                clock += bench.loop_time_s
        assert records
        assert records == expected_records


# ---------------------------------------------------------------------------
# The accumulator's statistics vs the scalar helpers
# ---------------------------------------------------------------------------

def _truth_statistics(seed: int):
    """The accumulator's statistics over a batch-synthesized ground-truth
    table, and the scalar oracle's events for the same streams."""
    times = np.arange(1200, dtype=np.float64) * 20.0
    truth = BatchEventSynthesis(seed=seed).table_at(times)
    events = events_from_truth(BatchEventSynthesis(seed=seed).events_at(times))
    accumulator = CampaignAccumulator()
    accumulator.update_from_flip_table(events_from_truth_table(truth))
    return accumulator.finalize(), events


class TestColumnarPostprocess:
    def test_truth_statistics_identical(self):
        final, events = _truth_statistics(11)
        assert final["class_fractions"] == breadth_class_fractions(events)
        assert final["mbme_histogram"] == mbme_breadth_histogram(events)
        assert final["byte_alignment"] == byte_alignment_stats(events)
        assert final["bits_per_word_aligned"] == \
            bits_per_word_histogram(events, byte_aligned=True)
        assert final["bits_per_word_non_aligned"] == \
            bits_per_word_histogram(events, byte_aligned=False)

    def test_table1_weights_bit_identical(self):
        final, events = _truth_statistics(13)
        # exact float equality, not approx
        assert final["table1"] == derive_table1(events)


# ---------------------------------------------------------------------------
# The statistics-campaign engine
# ---------------------------------------------------------------------------

class TestStatisticsEngine:
    def test_engines_bit_identical(self):
        shm = run_statistics_campaign(500, seed=41)
        reference = run_statistics_campaign(500, seed=41, engine="reference")
        assert shm.n_records == reference.n_records
        assert shm.n_observed == reference.n_observed
        assert shm.class_fractions == reference.class_fractions
        assert shm.mbme_histogram == reference.mbme_histogram
        assert shm.byte_alignment == reference.byte_alignment
        assert shm.bits_per_word_aligned == \
            reference.bits_per_word_aligned
        assert shm.bits_per_word_non_aligned == \
            reference.bits_per_word_non_aligned
        assert shm.table1 == reference.table1
        # every result carries the accumulator its report merges, and
        # the two engines' integer tallies agree (fold wall-clock aside)
        states = [dict(result.accumulator.state(), fold_ns=0)
                  for result in (shm, reference)]
        assert states[0] == states[1]

    def test_workers_bit_identical(self):
        serial = run_statistics_campaign(500, seed=41, chunk=128)
        fanned = run_statistics_campaign(500, seed=41, chunk=128, workers=3)
        assert fanned.table1 == serial.table1
        assert fanned.class_fractions == serial.class_fractions
        assert fanned.byte_alignment == serial.byte_alignment
        assert fanned.n_observed == serial.n_observed

    def test_stage_accounting(self):
        result = run_statistics_campaign(200, seed=7)
        assert set(result.stage_seconds) == {"scout", "synthesize", "fold"}
        assert all(seconds >= 0 for seconds in result.stage_seconds.values())
        rates = result.events_per_second
        assert set(rates) == set(result.stage_seconds)
        counters = result.counters()
        assert counters["engine"] == "shm"
        assert counters["events"] == 200
        assert "fold_events_per_s" in counters

    def test_empty_campaign(self):
        for name in ("shm", "reference"):
            result = run_statistics_campaign(0, seed=7, engine=name)
            assert result.n_records == 0
            assert result.n_observed == 0
            assert result.table1 == {}
        assert result.observed_events == []

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_statistics_campaign(10, engine="gpu")

    def test_result_is_pure_function_of_seed(self):
        a = run_statistics_campaign(300, seed=19)
        b = run_statistics_campaign(300, seed=19)
        assert a.table1 == b.table1
        assert isinstance(a, StatisticsResult)


# ---------------------------------------------------------------------------
# Vectorized data patterns vs their defining formulas
# ---------------------------------------------------------------------------

class TestPatternVectorization:
    def test_checkerboard_formula(self):
        pattern = CheckerboardPattern()
        entries = np.array([0, 1, 2, 3, 1000, 54321], dtype=np.int64)
        batch = pattern.data_bits_batch(entries)
        for row, entry in zip(batch, entries):
            expected = np.zeros(256, dtype=np.uint8)
            for word in range(4):
                phase = (entry + word) % 2
                for offset in range(64):
                    expected[word * 64 + offset] = \
                        1 if offset % 2 == phase else 0
            assert np.array_equal(row, expected)

    def test_an_pattern_formula(self):
        from repro.beam.ancode import an_pattern_words_batch

        pattern = ANPattern()
        entries = np.array([0, 7, 4096, 87654321], dtype=np.int64)
        batch = pattern.data_bits_batch(entries)
        words = an_pattern_words_batch(entries)
        for row, word_row in zip(batch, words):
            expected = np.concatenate([
                [(int(word) >> shift) & 1 for shift in range(64)]
                for word in word_row
            ]).astype(np.uint8)
            assert np.array_equal(row, expected)

    def test_scalar_view_memoizes(self):
        pattern = UniformPattern(ones=True)
        first = pattern.data_bits(5)
        second = pattern.data_bits(5)
        assert np.array_equal(first, second)
        first[:] = 0  # returned copies must not poison the memo
        assert pattern.data_bits(5).all()
