"""Run-store cache speedup (library performance).

Tracks the tentpole promise of the persistent run store: a warm
:class:`repro.runs.CellCache` makes a full :func:`evaluate_scheme` sweep
essentially free while staying bit-identical to the cold computation —
and that a served job costs the same on a store holding thousands of
completed runs as on an empty one (the resumable-run index).
"""

import json
import time

from benchmarks._output import emit
from repro.core import get_scheme
from repro.errormodel.montecarlo import evaluate_scheme
from repro.runs import CellCache, RunStore

SAMPLES = 20_000
SEED = 20211018


def test_runs_cache_warm_speedup(tmp_path):
    """Warm lookups skip injection + decode entirely and stay identical."""
    scheme = get_scheme("trio")
    store = RunStore(tmp_path / "store")

    cold_cache = CellCache(store)
    start = time.perf_counter()
    cold = evaluate_scheme(scheme, samples=SAMPLES, seed=SEED,
                           cache=cold_cache)
    cold_s = time.perf_counter() - start

    warm_cache = CellCache(store)
    start = time.perf_counter()
    warm = evaluate_scheme(scheme, samples=SAMPLES, seed=SEED,
                           cache=warm_cache)
    warm_s = time.perf_counter() - start

    assert warm == cold
    assert (cold_cache.hits, cold_cache.misses) == (0, 7)
    assert (warm_cache.hits, warm_cache.misses) == (7, 0)

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    emit(
        "Throughput — run-store cache (trio)",
        f"cold {cold_s:6.3f} s (7 misses)\n"
        f"warm {warm_s:6.3f} s (7 hits, bit-identical)\n"
        f"speedup {speedup:,.0f}x",
    )
    # The acceptance bar is 10x on the full fig8 sweep; a single scheme
    # clears it comfortably unless artifact IO regresses badly.
    assert speedup > 10


#: completed runs pre-filled into the "long history" store
HISTORY_RUNS = 5_000
#: timed served jobs per store
SERVED_JOBS = 20


def _p90(values):
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * 9 // 10) - 1)]


def test_served_job_latency_ignores_store_history(tmp_path):
    """p90 of a warm served evaluate job: 5,000 completed runs in the store
    may cost at most 25% over an empty store (the resume lookup reads the
    resumable index, not every manifest)."""
    from repro.serve.jobs import normalize_params
    from repro.serve.runner import execute_job

    params = normalize_params("evaluate", {"scheme": "trio", "samples": 200,
                                           "seed": SEED})
    empty, full = tmp_path / "empty", tmp_path / "full"
    for i in range(HISTORY_RUNS):
        run_dir = full / "runs" / f"20200101T000000-{i:06x}"
        run_dir.mkdir(parents=True)
        (run_dir / "manifest.json").write_text(json.dumps({
            "run_id": run_dir.name, "command": "evaluate",
            "config": {"scheme": "trio", "samples": 200, "seed": SEED,
                       "workers": None},
            "status": "completed", "started_at": float(i),
        }))
    times = {empty: [], full: []}
    for root in times:  # computes the cells once; every timed job hits
        execute_job("evaluate", params, runs_dir=root)
    for _ in range(SERVED_JOBS):
        for root, elapsed in times.items():  # interleaved: drift hits both
            start = time.perf_counter()
            result = execute_job("evaluate", params, runs_dir=root)
            elapsed.append(time.perf_counter() - start)
            assert (result["cache_hits"], result["resumed_from"]) \
                == (7, None)
    p90_empty, p90_full = _p90(times[empty]), _p90(times[full])
    emit(
        "Throughput — served job on a long store history (trio, 200 samples)",
        f"{'empty store':<22} p90 {p90_empty * 1e3:7.2f} ms "
        f"({SERVED_JOBS} warm jobs)\n"
        f"{f'{HISTORY_RUNS:,} completed runs':<22} p90 "
        f"{p90_full * 1e3:7.2f} ms ({SERVED_JOBS} warm jobs)\n"
        f"ratio {p90_full / p90_empty:.2f} (bound 1.25)",
    )
    assert p90_full <= 1.25 * p90_empty
