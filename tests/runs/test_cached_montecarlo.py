"""The run store wired into the Monte Carlo harness.

Covers the acceptance-critical behaviors: warm-cache runs bit-identical to
cold ones, interrupted sweeps resuming with only the unfinished cells
recomputed, and a failing cell keeping every cell finished before it.
"""

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
        from repro.core.pool import RetryPolicy

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
        # serial or threaded, the cell's own error reaches the caller
        with pytest.raises(RuntimeError, match="late cell failed"):
            sdc_risk_table(schemes, samples=SAMPLES, seed=SEED, cache=first,
                           workers=workers,
                           retry=RetryPolicy(backoff_base_s=0.0))
        monkeypatch.setattr(montecarlo, "evaluate_pattern", original)

        again = CellCache(store)
        resumed = sdc_risk_table(schemes, samples=SAMPLES, seed=SEED,
                                 cache=again)
        assert (again.hits, again.misses) == (13, 1)
        assert resumed == baseline

    def test_threaded_sweep_rows_clear_the_threshold(self):
        # the sweep above must take the threaded path when workers is
        # unset or 2, or those cases would only repeat the serial one
        jobs = [montecarlo._CellJob(
            key=(name, pattern), scheme=get_scheme(name), pattern=pattern,
            samples=SAMPLES, seed_seq=None, exhaustive_triples=False)
            for name in ("trio", "duet") for pattern in ErrorPattern]
        assert montecarlo._cell_threads(jobs, None) >= 1
        assert montecarlo._cell_threads(jobs, 2) == 2
