"""Tests for the Table 2 / Figure 8 evaluation harness."""

import numpy as np
import pytest

from repro.core import get_scheme
from repro.errormodel.montecarlo import (
    PatternOutcome,
    evaluate_pattern,
    evaluate_scheme,
    sdc_risk_table,
    weighted_outcomes,
)
from repro.errormodel.patterns import TABLE1_PROBABILITIES, ErrorPattern

SAMPLES = 4000  # small but adequate for structural assertions


@pytest.fixture(scope="module")
def trio_outcomes():
    return evaluate_scheme(get_scheme("trio"), samples=SAMPLES, seed=1)


@pytest.fixture(scope="module")
def secded_outcomes():
    return evaluate_scheme(get_scheme("ni-secded"), samples=SAMPLES, seed=1)


class TestGuaranteedCells:
    """Table-2 cells that are exact guarantees ("C" or "D")."""

    def test_everyone_corrects_single_bits(self, trio_outcomes, secded_outcomes):
        assert trio_outcomes[ErrorPattern.BIT].dce == 1.0
        assert secded_outcomes[ErrorPattern.BIT].dce == 1.0

    def test_trio_corrects_bytes(self, trio_outcomes):
        assert trio_outcomes[ErrorPattern.BYTE].dce == 1.0

    def test_trio_corrects_pins(self, trio_outcomes):
        assert trio_outcomes[ErrorPattern.PIN].dce == 1.0

    def test_duet_zero_byte_sdc(self):
        outcome = evaluate_pattern(get_scheme("duet"), ErrorPattern.BYTE)
        assert outcome.sdc == 0.0

    def test_secded_byte_sdc_positive(self, secded_outcomes):
        assert secded_outcomes[ErrorPattern.BYTE].sdc > 0.2

    def test_dsd_detects_pins(self):
        outcome = evaluate_pattern(get_scheme("ssc-dsd+"), ErrorPattern.PIN)
        assert outcome.due == 1.0

    def test_dsd_detects_doubles_and_triples(self):
        scheme = get_scheme("ssc-dsd+")
        rng = np.random.default_rng(0)
        double = evaluate_pattern(scheme, ErrorPattern.DOUBLE_BIT)
        triple = evaluate_pattern(scheme, ErrorPattern.TRIPLE_BIT,
                                  samples=SAMPLES, rng=rng)
        assert double.sdc == 0.0
        assert triple.sdc == 0.0


class TestExhaustiveness:
    def test_exhaustive_flags(self, trio_outcomes):
        assert trio_outcomes[ErrorPattern.BIT].exhaustive
        assert trio_outcomes[ErrorPattern.PIN].exhaustive
        assert trio_outcomes[ErrorPattern.BYTE].exhaustive
        assert trio_outcomes[ErrorPattern.DOUBLE_BIT].exhaustive
        assert not trio_outcomes[ErrorPattern.BEAT].exhaustive
        assert not trio_outcomes[ErrorPattern.ENTRY].exhaustive

    def test_event_counts(self, trio_outcomes):
        assert trio_outcomes[ErrorPattern.BIT].events == 288
        assert trio_outcomes[ErrorPattern.PIN].events == 792
        assert trio_outcomes[ErrorPattern.BYTE].events == 8892
        assert trio_outcomes[ErrorPattern.BEAT].events == SAMPLES

    def test_fractions_sum_to_one(self, trio_outcomes):
        for outcome in trio_outcomes.values():
            assert abs(outcome.dce + outcome.due + outcome.sdc - 1.0) < 1e-12

    def test_confidence_zero_for_exhaustive(self, trio_outcomes):
        assert trio_outcomes[ErrorPattern.BIT].sdc_confidence_99 == 0.0
        assert trio_outcomes[ErrorPattern.BEAT].sdc_confidence_99 > 0.0


class TestCells:
    def test_cell_rendering(self):
        corrected = PatternOutcome(ErrorPattern.BIT, 10, 1.0, 0.0, 0.0, True)
        detected = PatternOutcome(ErrorPattern.BYTE, 10, 0.0, 1.0, 0.0, True)
        risky = PatternOutcome(ErrorPattern.BEAT, 10, 0.5, 0.4, 0.1, False)
        assert corrected.cell() == "C"
        assert detected.cell() == "D"
        assert "%" in risky.cell()

    def test_cell_mixed_correct_and_detect(self):
        """sdc == 0 but neither dce nor due is 1.0: not "0.0000%"."""
        mixed = PatternOutcome(ErrorPattern.PIN, 10, 0.7, 0.3, 0.0, True)
        assert mixed.cell() == "C/D"

    def test_cell_sdc_shows_percentage(self):
        tiny = PatternOutcome(ErrorPattern.ENTRY, 10, 0.9, 0.0999, 0.0001, False)
        assert tiny.cell() == "0.0100%"


class TestTiming:
    def test_elapsed_and_rate_populated(self):
        outcome = evaluate_pattern(get_scheme("ni-secded"), ErrorPattern.BIT)
        assert outcome.elapsed_s > 0.0
        assert outcome.events_per_second > 0.0
        assert outcome.events_per_second == outcome.events / outcome.elapsed_s

    def test_elapsed_excluded_from_equality(self):
        one = PatternOutcome(ErrorPattern.BIT, 10, 1.0, 0.0, 0.0, True, 0.5)
        two = PatternOutcome(ErrorPattern.BIT, 10, 1.0, 0.0, 0.0, True, 9.0)
        assert one == two


class TestWorkers:
    """The ProcessPoolExecutor fan-out is bit-identical to the serial path."""

    def test_evaluate_scheme_workers_bit_identical(self):
        scheme = get_scheme("duet")
        serial = evaluate_scheme(scheme, samples=600, seed=5)
        fanned = evaluate_scheme(scheme, samples=600, seed=5, workers=2)
        assert fanned == serial

    def test_sdc_risk_table_workers_bit_identical(self):
        schemes = [get_scheme("ni-secded"), get_scheme("trio")]
        serial = sdc_risk_table(schemes, samples=600, seed=6)
        fanned = sdc_risk_table(schemes, samples=600, seed=6, workers=2)
        assert fanned == serial

    def test_unregistered_scheme_survives_fanout(self):
        """A scheme object absent from the registry is pickled, not named."""
        from repro.codes.hsiao import hsiao_code
        from repro.core.binary import BinaryEntryScheme

        scheme = BinaryEntryScheme(
            hsiao_code(), interleaved=False,
            name="local-secded", label="Local SECDED",
        )
        serial = evaluate_scheme(scheme, samples=400, seed=7)
        fanned = evaluate_scheme(scheme, samples=400, seed=7, workers=2)
        assert fanned == serial


class TestWeightedOutcomes:
    def test_probabilities_sum_to_one(self, trio_outcomes):
        outcome = weighted_outcomes(get_scheme("trio"),
                                    per_pattern=trio_outcomes)
        assert abs(outcome.correct + outcome.detect + outcome.sdc - 1.0) < 1e-9

    def test_reuses_per_pattern(self, trio_outcomes):
        outcome = weighted_outcomes(get_scheme("trio"),
                                    per_pattern=trio_outcomes)
        assert outcome.per_pattern is trio_outcomes

    def test_paper_orderings(self, trio_outcomes, secded_outcomes):
        trio = weighted_outcomes(get_scheme("trio"), per_pattern=trio_outcomes)
        secded = weighted_outcomes(get_scheme("ni-secded"),
                                   per_pattern=secded_outcomes)
        # TrioECC corrects more, crashes less, corrupts far less.
        assert trio.correct > secded.correct
        assert trio.detect < secded.detect
        assert trio.sdc < secded.sdc / 100

    def test_secded_headline_numbers(self, secded_outcomes):
        outcome = weighted_outcomes(get_scheme("ni-secded"),
                                    per_pattern=secded_outcomes)
        # Paper: ~74% corrected, ~20% detected, ~5.4% SDC.
        assert 0.70 < outcome.correct < 0.78
        assert 0.14 < outcome.detect < 0.26
        assert 0.03 < outcome.sdc < 0.11

    def test_custom_probabilities(self, trio_outcomes):
        only_bits = {pattern: 0.0 for pattern in ErrorPattern}
        only_bits[ErrorPattern.BIT] = 1.0
        outcome = weighted_outcomes(get_scheme("trio"),
                                    probabilities=only_bits,
                                    per_pattern=trio_outcomes)
        assert outcome.correct == 1.0

    def test_uncorrectable_accessor(self, trio_outcomes):
        outcome = weighted_outcomes(get_scheme("trio"),
                                    per_pattern=trio_outcomes)
        assert outcome.uncorrectable() == outcome.detect


class TestTable2:
    def test_table_structure(self):
        schemes = [get_scheme("ni-secded"), get_scheme("trio")]
        table = sdc_risk_table(schemes, samples=1000, seed=2)
        assert set(table) == {"ni-secded", "trio"}
        for outcomes in table.values():
            assert set(outcomes) == set(ErrorPattern)

    def test_determinism(self):
        scheme = get_scheme("duet")
        first = evaluate_scheme(scheme, samples=1000, seed=3)
        second = evaluate_scheme(scheme, samples=1000, seed=3)
        for pattern in ErrorPattern:
            assert first[pattern].sdc == second[pattern].sdc


class TestExhaustiveTriples:
    def test_exhaustive_triples_agree_with_sampling(self):
        """The full 3.7M-pattern 3-bit space, decoded exhaustively, must
        agree with the sampled estimate within its confidence interval.
        (This is the suite's one deliberately heavy test: ~15s.)"""
        from repro.errormodel.sampling import count_triple_bit_errors

        scheme = get_scheme("ni-secded")
        exhaustive = evaluate_pattern(
            scheme, ErrorPattern.TRIPLE_BIT, exhaustive_triples=True
        )
        assert exhaustive.exhaustive
        assert exhaustive.events == count_triple_bit_errors()

        sampled = evaluate_pattern(
            scheme, ErrorPattern.TRIPLE_BIT, samples=30_000,
            rng=np.random.default_rng(0),
        )
        margin = 3 * sampled.sdc_confidence_99 + 1e-3
        assert abs(sampled.sdc - exhaustive.sdc) < margin
        assert abs(sampled.due - exhaustive.due) < 0.02


def _per_cell(schemes, samples, seed):
    """The oracle: every cell evaluated alone, each with a fresh stream."""
    children = np.random.SeedSequence(seed).spawn(len(ErrorPattern))
    return {
        scheme.name: {
            pattern: evaluate_pattern(scheme, pattern, samples=samples,
                                      rng=np.random.default_rng(child))
            for pattern, child in zip(ErrorPattern, children)
        }
        for scheme in schemes
    }


class TestSharedBatch:
    """A sweep draws each sampled pattern once; every scheme decodes it."""

    SAMPLED = (ErrorPattern.TRIPLE_BIT, ErrorPattern.BEAT, ErrorPattern.ENTRY)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_sweep_equals_per_cell_evaluation(self, workers):
        from repro.core import all_schemes

        schemes = all_schemes()
        table = sdc_risk_table(schemes, samples=2000, seed=8,
                               workers=workers)
        assert table == _per_cell(schemes, 2000, 8)

    def test_one_read_only_batch_per_pattern_then_freed(self, monkeypatch):
        from repro.core import all_schemes
        from repro.errormodel import montecarlo

        decoded = {pattern: [] for pattern in self.SAMPLED}
        draws = []
        original_decode = montecarlo._decode_chunked
        original_draw = montecarlo._draw

        def spy_decode(scheme, errors, *args, **kwargs):
            for pattern in self.SAMPLED:
                held = montecarlo._BATCHES.get(pattern)
                if held is not None and held[1] is errors:
                    assert kwargs["index"] is held[2]
                    decoded[pattern].append(errors)
            return original_decode(scheme, errors, *args, **kwargs)

        def spy_draw(pattern, samples, rng):
            draws.append(pattern)
            return original_draw(pattern, samples, rng)

        monkeypatch.setattr(montecarlo, "_decode_chunked", spy_decode)
        monkeypatch.setattr(montecarlo, "_draw", spy_draw)
        schemes = all_schemes()
        sdc_risk_table(schemes, samples=500, seed=9)
        assert draws == list(self.SAMPLED)
        for pattern in self.SAMPLED:
            batches = decoded[pattern]
            assert len(batches) == len(schemes)
            assert all(batch is batches[0] for batch in batches)
            assert not batches[0].flags.writeable
            with pytest.raises(ValueError):
                batches[0][0, 0] = 1
        assert montecarlo._BATCHES == {}

    def test_batch_keyed_on_its_seed(self):
        from repro.errormodel import montecarlo

        first, second = np.random.SeedSequence(1).spawn(2)
        try:
            batch, index = montecarlo._shared_batch(ErrorPattern.BEAT, 50,
                                                    first)
            held = montecarlo._shared_batch(ErrorPattern.BEAT, 50, first)
            assert held[0] is batch and held[1] is index
            other, _ = montecarlo._shared_batch(ErrorPattern.BEAT, 50, second)
            assert other is not batch
            assert len(montecarlo._BATCHES) == 1
            again, again_index = montecarlo._shared_batch(
                ErrorPattern.BEAT, 50, first)
            np.testing.assert_array_equal(again, batch)
            np.testing.assert_array_equal(again_index, index)
        finally:
            montecarlo._BATCHES.clear()

    def test_one_byte_index_per_batch(self, monkeypatch):
        """A sweep indexes each batch once and hands that index to every
        scheme: 4 enumerations and 3 draws on a cold process, the 3 draws
        again on the next sweep, and no decoder builds its own."""
        from repro.core import all_schemes, binary, rs_ssc, ssc_dsd
        from repro.errormodel import montecarlo

        builds = []
        original = montecarlo.byte_index

        def spy_index(words, num_bytes):
            index = original(words, num_bytes)
            builds.append(words.shape[0])
            return index

        def refuse(words, num_bytes):
            raise AssertionError("a decoder built its own byte index")

        monkeypatch.setattr(montecarlo, "byte_index", spy_index)
        for module in (binary, rs_ssc, ssc_dsd):
            monkeypatch.setattr(module, "byte_index", refuse)
        montecarlo._enumeration.cache_clear()
        schemes = all_schemes()
        for workers in (None, 1):
            builds.clear()
            first = sdc_risk_table(schemes, samples=700, seed=12,
                                   workers=workers)
            assert len(builds) == 7
            assert builds.count(700) == 3
            builds.clear()
            assert sdc_risk_table(schemes, samples=700, seed=12,
                                  workers=workers) == first
            assert builds == [700, 700, 700]
            montecarlo._enumeration.cache_clear()
        for pattern in montecarlo._ENUMERATIONS:
            words, index = montecarlo._enumeration(pattern)
            assert not index.flags.writeable
            assert index.shape[1] == words.shape[0]

    def test_concurrent_sweeps_keep_their_own_seeds(self):
        import threading

        schemes = [get_scheme("ni-secded"), get_scheme("trio"),
                   get_scheme("duet")]
        seeds = (21, 22)
        expected = {seed: sdc_risk_table(schemes, samples=800, seed=seed)
                    for seed in seeds}
        results = {seed: [] for seed in seeds}
        barrier = threading.Barrier(len(seeds))

        def sweep(seed):
            barrier.wait()
            for _ in range(4):
                results[seed].append(
                    sdc_risk_table(schemes, samples=800, seed=seed))

        threads = [threading.Thread(target=sweep, args=(seed,))
                   for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for seed in seeds:
            assert len(results[seed]) == 4
            assert all(table == expected[seed] for table in results[seed])


class TestThreadedSweep:
    """An unset ``workers`` runs a large sweep on in-process threads."""

    @staticmethod
    def _cell_threads(monkeypatch):
        """Names of the threads each evaluated cell ran on."""
        import threading

        from repro.errormodel import montecarlo

        names = []
        original = montecarlo._evaluate_cell

        def spy(*args, **kwargs):
            names.append(threading.current_thread().name)
            return original(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "_evaluate_cell", spy)
        return names

    @pytest.mark.parametrize("seed", [1, 2])
    def test_threads_equal_serial_cell_for_cell(self, monkeypatch, seed):
        from repro.core import all_schemes

        schemes = all_schemes()
        serial = sdc_risk_table(schemes, samples=2000, seed=seed, workers=1)
        names = self._cell_threads(monkeypatch)
        threaded = sdc_risk_table(schemes, samples=2000, seed=seed)
        assert len(names) == 63
        assert all(name.startswith("repro-cell") for name in names)
        assert threaded == serial
        for name in serial:
            for pattern in ErrorPattern:
                assert threaded[name][pattern].events \
                    == serial[name][pattern].events

    def test_workers_one_is_serial(self, monkeypatch):
        import threading

        names = self._cell_threads(monkeypatch)
        sdc_risk_table([get_scheme("trio"), get_scheme("duet")],
                       samples=2000, seed=3, workers=1)
        assert names == [threading.current_thread().name] * 14

    def test_no_thread_outlives_the_sweep(self):
        import threading

        before = threading.active_count()
        sdc_risk_table([get_scheme("trio"), get_scheme("duet")],
                       samples=2000, seed=4)
        assert threading.active_count() == before

    def test_results_arrive_in_job_order(self):
        from repro.core import all_schemes
        from repro.obs import Tracer

        tracer = Tracer()
        schemes = all_schemes()
        sdc_risk_table(schemes, samples=500, seed=5, tracer=tracer)
        order = [(record.attrs["scheme"], record.attrs["pattern"])
                 for record in tracer.records if record.name == "cell"]
        assert order == [(scheme.name, pattern.name) for scheme in schemes
                         for pattern in ErrorPattern]

    def test_cell_error_is_retried_in_process_once(self, monkeypatch,
                                                    caplog):
        import logging
        import threading

        from repro.errormodel import montecarlo

        schemes = [get_scheme("trio"), get_scheme("duet")]
        serial = sdc_risk_table(schemes, samples=2000, seed=6, workers=1)
        original = montecarlo.evaluate_pattern
        failed = []

        def flaky(scheme, pattern, **kwargs):
            if (scheme.name, pattern) == ("trio", ErrorPattern.BYTE) \
                    and not failed:
                failed.append(threading.current_thread().name)
                raise RuntimeError("flaky cell")
            return original(scheme, pattern, **kwargs)

        monkeypatch.setattr(montecarlo, "evaluate_pattern", flaky)
        with caplog.at_level(logging.WARNING,
                             logger="repro.errormodel.montecarlo"):
            threaded = sdc_risk_table(schemes, samples=2000, seed=6)
        assert failed[0].startswith("repro-cell")
        assert threaded == serial
        assert any("failed in-process" in rec.message
                   for rec in caplog.records)

    def test_cell_that_keeps_failing_propagates(self, monkeypatch):
        import threading

        from repro.core.pool import PoisonedJobs
        from repro.errormodel import montecarlo

        original = montecarlo.evaluate_pattern

        def broken(scheme, pattern, **kwargs):
            if (scheme.name, pattern) == ("trio", ErrorPattern.BYTE):
                raise RuntimeError("broken cell")
            return original(scheme, pattern, **kwargs)

        monkeypatch.setattr(montecarlo, "evaluate_pattern", broken)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="broken cell") as excinfo:
            sdc_risk_table([get_scheme("trio"), get_scheme("duet")],
                           samples=2000, seed=7)
        assert not isinstance(excinfo.value, PoisonedJobs)
        assert threading.active_count() == before
        assert montecarlo._BATCHES == {}

    @pytest.mark.parametrize("times", ["1", "inf"])
    def test_injected_cell_crash_behaves_as_serial(self, monkeypatch, times):
        """Under a fault plan the sweep runs serially, in job order, so
        ``pool.worker.crash:mode=raise`` fires exactly as with
        ``workers=1``."""
        from repro import faults
        from repro.faults import FaultPlan, InjectedFault

        schemes = [get_scheme("trio"), get_scheme("duet")]
        serial = sdc_risk_table(schemes, samples=2000, seed=8, workers=1)
        spec = f"pool.worker.crash:mode=raise,times={times}"
        outcomes = {}
        for workers in (1, None):
            faults.install(FaultPlan.parse(spec), export_env=False)
            names = self._cell_threads(monkeypatch)
            try:
                outcomes[workers] = sdc_risk_table(
                    schemes, samples=2000, seed=8, workers=workers)
            except InjectedFault as exc:
                outcomes[workers] = type(exc)
            finally:
                faults.uninstall(scrub_env=False)
                faults.reset()
            assert all(not name.startswith("repro-cell") for name in names)
        assert outcomes[None] == outcomes[1]
        if times == "1":
            assert outcomes[None] == serial
        else:
            assert outcomes[None] is InjectedFault

    def test_served_size_sweep_stays_serial(self, monkeypatch, tmp_path):
        import threading

        from repro.runs import CellCache, RunStore

        store = RunStore(tmp_path / "store")
        scheme = get_scheme("trio")
        evaluate_scheme(scheme, samples=200, seed=1, cache=CellCache(store))
        names = self._cell_threads(monkeypatch)
        cache = CellCache(store)
        evaluate_scheme(scheme, samples=200, seed=2, cache=cache)
        assert (cache.hits, cache.misses) == (4, 3)
        assert names == [threading.current_thread().name] * 3
        # the same cells at a sweep-sized sample count fan out
        names.clear()
        evaluate_scheme(scheme, samples=30_000, seed=2,
                        cache=CellCache(store))
        assert len(names) == 3
        assert all(name.startswith("repro-cell") for name in names)


class TestSampleCount:
    @pytest.mark.parametrize("samples", [0, -3])
    def test_non_positive_samples_rejected_up_front(self, samples):
        scheme = get_scheme("trio")
        with pytest.raises(ValueError, match="at least 1"):
            sdc_risk_table([scheme], samples=samples, seed=1)
        with pytest.raises(ValueError, match="at least 1"):
            evaluate_scheme(scheme, samples=samples, seed=1)
        with pytest.raises(ValueError, match="at least 1"):
            evaluate_pattern(scheme, ErrorPattern.BEAT, samples=samples)
