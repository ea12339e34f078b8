"""Beam statistics-campaign throughput (library performance).

Tracks the two statistics engines of :mod:`repro.beam.engine` over the
full generate → scan → post-process pipeline, asserting the derived
Figure 4/5 statistics and Table 1 stay bit-identical while the fast
path clears its floors:

* ``shm`` vs the retained scalar ``reference``: ≥ 10x at the full
  3,000 events, statistics bit-identical;
* ``shm`` alone at campaign scale: ≥ 20,000 events/s end to end at
  1,000,000 events or more, streamed, in a fresh process, leaving no
  orphaned shared-memory segment (an absolute bound — the scalar oracle
  is far too slow to race at that size).

The campaign-scale legs each run in a *fresh subprocess*: at campaign
scale the engine is sensitive to inherited heap state (a leg that rides
an earlier leg's already-faulted pages measures the allocator, not the
engine), so process isolation is what makes the numbers repeatable —
the same way standalone CLI campaigns run.  Bit-identity across the
process boundary is asserted on a canonical rendering of every derived
statistic (floats via ``repr``, which round-trips exactly).

``REPRO_BEAM_BENCH_EVENTS`` scales the shm-vs-reference campaign,
``REPRO_BEAM_BENCH_SHM_EVENTS`` the campaign-scale shm leg, and
``REPRO_BEAM_BENCH_FANOUT_EVENTS`` the worker fan-out sweep (the CI
smoke job runs all three scaled down; the floors relax below full size).

Also guards the observability contract: running with the full obs stack
(explicit tracer, heartbeat, trace export) must stay within 2% of the
plain run — measured on the shm engine, whose fused dispatch leaves the
least overhead to hide in.  Set ``REPRO_BEAM_BENCH_TRACE`` to a path to
export the traced run's JSONL trace artifact (the CI smoke job uploads
and validates it).
"""

import json
import os
import subprocess
import sys
import time

from benchmarks._output import emit
from repro.beam.engine import run_statistics_campaign
from repro.core.shm import orphaned_segments
from repro.obs import Heartbeat, Tracer, write_trace

EVENTS = int(os.environ.get("REPRO_BEAM_BENCH_EVENTS", "3000"))
SHM_EVENTS = int(os.environ.get("REPRO_BEAM_BENCH_SHM_EVENTS",
                                str(max(EVENTS, 3000))))
FANOUT_EVENTS = int(os.environ.get("REPRO_BEAM_BENCH_FANOUT_EVENTS",
                                   "100000"))
STREAM_EVENTS = int(os.environ.get("REPRO_BEAM_BENCH_STREAM_EVENTS",
                                   "30000"))
#: the bounded-memory contracts are asserted from 1e6 events (1e5-event
#: baseline) up.  Streamed RSS there is the process baseline plus the
#: scout's occupancy index: a sorted entry set (~0.5M entries, 4 MB, at
#: 1e5 events; ~5M, 40 MB, at 1e6), then the 128 MiB device bitmap past
#: ~8.4M distinct entries (1e7 events), peaking under 1.5x the bitmap at
#: the switch.  Smaller runs check only the equivalence half.
STREAM_FULL_SCALE = STREAM_EVENTS >= 1_000_000
SEED = 20211018
#: full-size campaigns must clear 10x; scaled-down smoke runs just beat 1x
SPEEDUP_FLOOR = 10.0 if EVENTS >= 3000 else 1.0
#: the shm engine's absolute throughput floor (events/s, end to end)
#: applies from the full 1e6-event campaign up; smaller runs need only
#: finish
SHM_EVENTS_PER_S_FLOOR = 20_000.0 if SHM_EVENTS >= 1_000_000 else 0.0
#: tracing overhead bound: 2% relative plus absolute slack for tiny smoke
#: campaigns where scheduler noise dwarfs the pipeline itself
TRACE_OVERHEAD = 1.02
TRACE_SLACK_S = 0.05


def _run(engine: str, events: int = EVENTS, **kwargs):
    start = time.perf_counter()
    result = run_statistics_campaign(events, seed=SEED, engine=engine,
                                     **kwargs)
    return result, time.perf_counter() - start


def _assert_stats_identical(a, b):
    assert a.class_fractions == b.class_fractions
    assert a.mbme_histogram == b.mbme_histogram
    assert a.byte_alignment == b.byte_alignment
    assert a.bits_per_word_aligned == b.bits_per_word_aligned
    assert a.bits_per_word_non_aligned == b.bits_per_word_non_aligned
    assert a.table1 == b.table1  # exact float equality
    assert a.n_records == b.n_records
    assert a.n_observed == b.n_observed


def _stage_rows(fast, fast_s, slow, slow_s, fast_name, slow_name, events):
    rows = [
        f"{'stage':<12} {slow_name + ' s':>12} {fast_name + ' s':>11} "
        f"{fast_name + ' events/s':>20}",
    ]
    for stage in fast.stage_seconds:
        rows.append(
            f"{stage:<12} {slow.stage_seconds[stage]:>12.3f} "
            f"{fast.stage_seconds[stage]:>11.3f} "
            f"{fast.events_per_second[stage]:>20,.0f}"
        )
    rows.append(
        f"{'total':<12} {slow_s:>12.3f} {fast_s:>11.3f} "
        f"{events / fast_s:>20,.0f}"
    )
    return rows


def test_beam_engine_throughput():
    """shm vs reference: identical statistics, >=10x wall-clock.

    Both legs materialize, so their stage rows (synthesize, scan,
    postprocess) line up.
    """
    run_statistics_campaign(64, seed=SEED)  # warm imports and caches
    shm, shm_s = _run("shm", stats="materialize")
    reference, reference_s = _run("reference")

    _assert_stats_identical(shm, reference)

    speedup = reference_s / shm_s
    rows = _stage_rows(shm, shm_s, reference, reference_s,
                       "shm", "reference", EVENTS)
    rows.append(
        f"\n{EVENTS:,} events, {shm.n_records:,} mismatch records, "
        f"{shm.n_observed:,} observed events"
    )
    rows.append(f"speedup {speedup:.1f}x (floor {SPEEDUP_FLOOR:g}x) — "
                "derived Table 1 / Figure 4/5 statistics bit-identical")
    emit("Throughput — beam statistics campaign (shm vs reference)",
         "\n".join(rows))
    assert speedup >= SPEEDUP_FLOOR


#: one isolated campaign leg: run, then report wall/stages, peak RSS and
#: a canonical rendering of every derived statistic on stdout as JSON
_LEG_CODE = """
import json, resource, sys, time
from repro.beam.engine import run_statistics_campaign

engine, events, seed, stats = (sys.argv[1], int(sys.argv[2]),
                               int(sys.argv[3]), sys.argv[4])
t0 = time.perf_counter()
res = run_statistics_campaign(events, seed=seed, engine=engine,
                              stats=stats)
elapsed = time.perf_counter() - t0
print(json.dumps({
    "elapsed": elapsed,
    "stages": {k: float(v) for k, v in res.stage_seconds.items()},
    "n_records": res.n_records,
    "n_observed": res.n_observed,
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "stats": repr((res.class_fractions, res.mbme_histogram,
                   res.byte_alignment, res.bits_per_word_aligned,
                   res.bits_per_word_non_aligned, res.table1)),
}))
"""


def _run_fresh(engine: str, events: int,
               stats: str = "materialize") -> dict:
    """One campaign in a fresh interpreter — no inherited heap state."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", _LEG_CODE, engine, str(events), str(SEED),
         stats],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_beam_shm_engine_throughput():
    """The shm engine at campaign scale: >= 20,000 events/s at 1e6.

    One fresh-process leg on the engine's default statistics mode
    (streaming), the production path; the materialized path at the same
    scale is timed by :func:`test_beam_streaming_bounded_memory`.
    """
    shm = _run_fresh("shm", SHM_EVENTS, stats="streaming")
    assert orphaned_segments() == []  # transport hygiene rides along

    events_per_s = SHM_EVENTS / shm["elapsed"]
    rows = [f"{'stage':<12} {'shm s':>11} {'shm events/s':>20}"]
    for stage, stage_s in shm["stages"].items():
        rows.append(
            f"{stage:<12} {stage_s:>11.3f} "
            f"{SHM_EVENTS / stage_s if stage_s else 0:>20,.0f}"
        )
    rows.append(f"{'total':<12} {shm['elapsed']:>11.3f} "
                f"{events_per_s:>20,.0f}")
    rows.append(
        f"\n{SHM_EVENTS:,} events, {shm['n_records']:,} mismatch records, "
        f"{shm['n_observed']:,} observed events (fresh process)"
    )
    rows.append(f"{events_per_s:,.0f} events/s (floor "
                f"{SHM_EVENTS_PER_S_FLOOR:,.0f}) — no orphaned shm segments")
    emit("Throughput — beam campaign shm engine at campaign scale",
         "\n".join(rows))
    assert events_per_s >= SHM_EVENTS_PER_S_FLOOR


def test_beam_streaming_bounded_memory():
    """Streaming vs materialize: identical statistics in bounded memory.

    Three fresh-process legs on the shm engine: a streamed campaign at
    ``STREAM_EVENTS``, the materialized oracle at the same size, and a
    streamed baseline at a tenth the events.  The streamed peak RSS must
    stay *flat* as the campaign grows (< 2x the baseline — the state is
    the device-occupancy bitmap plus O(KB) accumulators, not per-event
    columns), it must not exceed the materialized peak, and the derived
    statistics must be float-identical.  Numbers land in
    ``benchmarks/results/BENCH_streaming.json`` for trend tracking; scale
    with ``REPRO_BEAM_BENCH_STREAM_EVENTS`` (1e6/1e7 in the memory table
    of EXPERIMENTS.md).
    """
    baseline_events = max(STREAM_EVENTS // 10, 1000)
    baseline = _run_fresh("shm", baseline_events, stats="streaming")
    streamed = _run_fresh("shm", STREAM_EVENTS, stats="streaming")
    materialized = _run_fresh("shm", STREAM_EVENTS, stats="materialize")

    assert streamed["stats"] == materialized["stats"]  # exact floats
    assert streamed["n_records"] == materialized["n_records"]
    assert streamed["n_observed"] == materialized["n_observed"]
    assert orphaned_segments() == []

    flatness = streamed["peak_rss_kb"] / baseline["peak_rss_kb"]
    payload = {
        "events": STREAM_EVENTS,
        "baseline_events": baseline_events,
        "streaming": {
            "elapsed_s": streamed["elapsed"],
            "events_per_s": STREAM_EVENTS / streamed["elapsed"],
            "peak_rss_kb": streamed["peak_rss_kb"],
        },
        "materialize": {
            "elapsed_s": materialized["elapsed"],
            "events_per_s": STREAM_EVENTS / materialized["elapsed"],
            "peak_rss_kb": materialized["peak_rss_kb"],
        },
        "baseline_streaming_peak_rss_kb": baseline["peak_rss_kb"],
        "rss_flatness": flatness,
        "statistics_identical": True,
    }
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "BENCH_streaming.json"),
              "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    rows = [
        f"{'leg':<24} {'events':>10} {'wall s':>8} {'events/s':>11} "
        f"{'peak RSS MB':>12}",
    ]
    for label, leg, events in (
        ("streaming (baseline)", baseline, baseline_events),
        ("streaming", streamed, STREAM_EVENTS),
        ("materialize", materialized, STREAM_EVENTS),
    ):
        rows.append(
            f"{label:<24} {events:>10,} {leg['elapsed']:>8.2f} "
            f"{events / leg['elapsed']:>11,.0f} "
            f"{leg['peak_rss_kb'] / 1024:>12,.0f}"
        )
    bound = "bound 2x" if STREAM_FULL_SCALE else "bound relaxed below 1e6"
    rows.append(
        f"\nstreamed RSS flatness {flatness:.2f}x of the "
        f"{baseline_events:,}-event baseline ({bound}); statistics "
        "float-identical to the materialized oracle"
    )
    emit("Memory — beam campaign streaming statistics (vs materialize)",
         "\n".join(rows))
    if STREAM_FULL_SCALE:
        assert flatness < 2.0
        assert streamed["peak_rss_kb"] <= materialized["peak_rss_kb"]
        # 2 sweeps must still be at least competitive with 1 materialized
        # pass + postprocess (in practice streaming wins: no
        # concatenation and no column transport)
        assert streamed["elapsed"] <= materialized["elapsed"] * 1.25


def test_beam_engine_workers_fan_out():
    """events/s per worker count on the shm engine, all bit-identical.

    Single-core hosts see the pool's dispatch overhead rather than a
    speedup; the table records throughput per worker count either way,
    and every row must reproduce the serial statistics exactly.
    """
    serial = None
    rows = [f"{'workers':<8} {'wall s':>8} {'events/s':>12}"]
    for workers in (1, 2, 4):
        result, elapsed = _run(
            "shm", events=FANOUT_EVENTS,
            workers=None if workers == 1 else workers)
        if serial is None:
            serial = result
        else:
            _assert_stats_identical(result, serial)
        rows.append(f"{workers:<8} {elapsed:>8.2f} "
                    f"{FANOUT_EVENTS / elapsed:>12,.0f}")
    assert orphaned_segments() == []
    rows.append(
        f"\n{FANOUT_EVENTS:,} events (shm engine); statistics "
        "bit-identical across all worker counts"
    )
    emit("Throughput — beam campaign workers fan-out", "\n".join(rows))


def test_beam_engine_tracing_overhead():
    """The obs layer (tracer + heartbeat + export) costs <2% throughput."""
    run_statistics_campaign(64, seed=SEED, engine="shm")  # warm caches

    def _best(runner, repeats=3):
        best_s, best_result = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            result = runner()
            elapsed = time.perf_counter() - start
            if elapsed < best_s:
                best_s, best_result = elapsed, result
        return best_s, best_result

    plain_s, plain = _best(
        lambda: run_statistics_campaign(EVENTS, seed=SEED, engine="shm"))

    def _traced():
        tracer = Tracer()
        heartbeat = Heartbeat("bench", unit="chunks", interval_s=0.5,
                              callback=lambda line: None)
        result = run_statistics_campaign(EVENTS, seed=SEED, engine="shm",
                                         tracer=tracer, heartbeat=heartbeat)
        return result, tracer

    traced_s, (traced, tracer) = _best(_traced)

    assert traced.table1 == plain.table1  # observability never perturbs
    assert traced.n_records == plain.n_records

    trace_out = os.environ.get("REPRO_BEAM_BENCH_TRACE")
    if trace_out:
        write_trace(trace_out, tracer.records,
                    meta={"bench": "beam_throughput", "events": EVENTS})

    overhead = traced_s / plain_s - 1.0
    emit(
        "Throughput — beam campaign tracing overhead (shm)",
        f"plain  {plain_s:6.3f} s\n"
        f"traced {traced_s:6.3f} s ({len(tracer.records)} spans, "
        f"overhead {overhead:+.1%}; bound {TRACE_OVERHEAD - 1:.0%} "
        f"+ {TRACE_SLACK_S:g}s slack)",
    )
    assert traced_s <= plain_s * TRACE_OVERHEAD + TRACE_SLACK_S
