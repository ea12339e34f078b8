"""The run store wired into the Monte Carlo harness.

Covers the acceptance-critical behaviors: warm-cache runs bit-identical to
cold ones, interrupted sweeps resuming with only the unfinished cells
recomputed, and fan-out failures degrading to serial instead of killing
the sweep.
"""

import logging

import pytest

from repro.core import get_scheme
from repro.errormodel import montecarlo
from repro.errormodel.montecarlo import evaluate_scheme, sdc_risk_table
from repro.errormodel.patterns import ErrorPattern
from repro.runs import CellCache, RunStore

SAMPLES = 300
SEED = 99


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "store")


class TestCacheParity:
    def test_warm_run_bit_identical_to_cold(self, store):
        scheme = get_scheme("trio")
        cold_cache = CellCache(store)
        cold = evaluate_scheme(scheme, samples=SAMPLES, seed=SEED,
                               cache=cold_cache)
        assert (cold_cache.hits, cold_cache.misses) == (0, 7)

        warm_cache = CellCache(store)
        warm = evaluate_scheme(scheme, samples=SAMPLES, seed=SEED,
                               cache=warm_cache)
        assert (warm_cache.hits, warm_cache.misses) == (7, 0)

        assert warm == cold
        for pattern in ErrorPattern:
            assert warm[pattern].sdc.hex() == cold[pattern].sdc.hex()
            assert warm[pattern].dce.hex() == cold[pattern].dce.hex()
            assert warm[pattern].due.hex() == cold[pattern].due.hex()

    def test_cache_matches_uncached(self, store):
        scheme = get_scheme("duet")
        plain = evaluate_scheme(scheme, samples=SAMPLES, seed=SEED)
        cached = evaluate_scheme(scheme, samples=SAMPLES, seed=SEED,
                                 cache=CellCache(store))
        assert cached == plain

    def test_exhaustive_cells_shared_across_configs(self, store):
        scheme = get_scheme("trio")
        evaluate_scheme(scheme, samples=SAMPLES, seed=SEED,
                        cache=CellCache(store))
        other = CellCache(store)
        evaluate_scheme(scheme, samples=SAMPLES * 2, seed=SEED + 1,
                        cache=other)
        # BIT/PIN/BYTE/2-bit are enumerated, so they hit despite the new
        # samples/seed; the three sampled patterns are genuine misses.
        assert (other.hits, other.misses) == (4, 3)


class TestResumeAfterInterrupt:
    def test_only_unfinished_cells_recompute(self, store):
        schemes = [get_scheme("trio"), get_scheme("duet")]
        baseline = sdc_risk_table(schemes, samples=SAMPLES, seed=SEED)

        class _Interrupted(CellCache):
            """Dies mid-sweep, like a user hitting Ctrl-C."""

            recorded = 0

            def record(self, *args, **kwargs):
                super().record(*args, **kwargs)
                type(self).recorded += 1
                if self.recorded >= 3:
                    raise KeyboardInterrupt

        first = _Interrupted(store)
        with pytest.raises(KeyboardInterrupt):
            sdc_risk_table(schemes, samples=SAMPLES, seed=SEED, cache=first)

        resumed_cache = CellCache(store)
        resumed = sdc_risk_table(schemes, samples=SAMPLES, seed=SEED,
                                 cache=resumed_cache)
        assert resumed_cache.hits == 3
        assert resumed_cache.misses == 14 - 3
        assert resumed == baseline


class TestRecordAsCompleted:
    """Each fresh cell reaches the store as it completes, in job order,
    so a sweep that dies late keeps every cell it finished."""

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_cells_before_a_late_failure_are_hits(self, store, monkeypatch,
                                                  workers):
        from repro.core.pool import PoisonedJobs, RetryPolicy

        schemes = [get_scheme("trio"), get_scheme("duet")]
        baseline = sdc_risk_table(schemes, samples=SAMPLES, seed=SEED,
                                  workers=1)
        original = montecarlo.evaluate_pattern

        def broken(scheme, pattern, **kwargs):
            if (scheme.name, pattern) == ("duet", ErrorPattern.ENTRY):
                raise RuntimeError("late cell failed")
            return original(scheme, pattern, **kwargs)

        monkeypatch.setattr(montecarlo, "evaluate_pattern", broken)
        first = CellCache(store)
        with pytest.raises((RuntimeError, PoisonedJobs)) as excinfo:
            sdc_risk_table(schemes, samples=SAMPLES, seed=SEED, cache=first,
                           workers=workers,
                           retry=RetryPolicy(backoff_base_s=0.0))
        # a pool that gave up quarantines the cell; in-process paths
        # hand the cell's own error to the caller
        assert isinstance(excinfo.value, PoisonedJobs) == (workers == 2)
        monkeypatch.setattr(montecarlo, "evaluate_pattern", original)

        again = CellCache(store)
        resumed = sdc_risk_table(schemes, samples=SAMPLES, seed=SEED,
                                 cache=again)
        assert (again.hits, again.misses) == (13, 1)
        assert resumed == baseline

    def test_threaded_sweep_rows_clear_the_threshold(self):
        # the sweep above must take the threaded path when workers is
        # unset, or its None case would only repeat the serial one
        jobs = [montecarlo._CellJob(
            key=(name, pattern), scheme=get_scheme(name), pattern=pattern,
            samples=SAMPLES, seed_seq=None, exhaustive_triples=False)
            for name in ("trio", "duet") for pattern in ErrorPattern]
        assert montecarlo._cell_threads(jobs, None) >= 1


class _FakeFuture:
    def __init__(self, exc):
        self._exc = exc

    def result(self, timeout=None):
        raise self._exc

    def cancel(self):
        pass


class _FakePool:
    """Stands in for ProcessPoolExecutor; every cell fails the same way."""

    exc_factory = None

    def __init__(self, max_workers=None, initializer=None):
        pass

    def submit(self, fn, *args, **kwargs):
        return _FakeFuture(self.exc_factory())

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestGracefulDegradation:
    def _patched(self, monkeypatch, exc_factory):
        pool = type("_Pool", (_FakePool,), {"exc_factory": staticmethod(exc_factory)})
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", pool)

    def test_broken_pool_falls_back_to_serial(self, monkeypatch, caplog):
        self._patched(monkeypatch, lambda: montecarlo.BrokenExecutor("fake"))
        scheme = get_scheme("trio")
        serial = evaluate_scheme(scheme, samples=SAMPLES, seed=SEED)
        with caplog.at_level(logging.WARNING,
                             logger="repro.errormodel.montecarlo"):
            fanned = evaluate_scheme(scheme, samples=SAMPLES, seed=SEED,
                                     workers=4)
        assert fanned == serial
        assert any("worker pool broke" in rec.message for rec in caplog.records)
        assert any("falling back" in rec.message for rec in caplog.records)

    def test_cell_timeout_falls_back_to_serial(self, monkeypatch, caplog):
        self._patched(monkeypatch, lambda: montecarlo._FuturesTimeout())
        scheme = get_scheme("trio")
        serial = evaluate_scheme(scheme, samples=SAMPLES, seed=SEED)
        with caplog.at_level(logging.WARNING,
                             logger="repro.errormodel.montecarlo"):
            fanned = evaluate_scheme(scheme, samples=SAMPLES, seed=SEED,
                                     workers=4, cell_timeout=0.01)
        assert fanned == serial
        assert any("exceeded" in rec.message for rec in caplog.records)

    def test_pool_that_cannot_start_falls_back(self, monkeypatch, caplog):
        def _raise(max_workers=None, initializer=None):
            raise OSError("no more processes")

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _raise)
        scheme = get_scheme("duet")
        serial = evaluate_scheme(scheme, samples=SAMPLES, seed=SEED)
        with caplog.at_level(logging.WARNING,
                             logger="repro.errormodel.montecarlo"):
            fanned = evaluate_scheme(scheme, samples=SAMPLES, seed=SEED,
                                     workers=4)
        assert fanned == serial
        assert any("cannot start worker pool" in rec.message
                   for rec in caplog.records)

    @pytest.mark.parametrize("timeout", [-1, 0, float("nan")])
    def test_non_positive_cell_timeout_raises_before_any_pool(
            self, monkeypatch, timeout):
        def _no_pool(max_workers=None, initializer=None):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _no_pool)
        with pytest.raises(ValueError, match="timeout must be above 0"):
            evaluate_scheme(get_scheme("trio"), samples=SAMPLES, seed=SEED,
                            workers=2, cell_timeout=timeout)
