"""Benchmark of ``repro``: whole commands, and the layers beneath them.

    python3 perfbench/run.py --workload report|campaign|serve \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line on stdout is one JSON
object, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is the run's full record (environment
fingerprint, sample counts, per-unit times, check results).  Records are
also kept under ``.perfbench-work/records``.  See ``perfbench/README.md``
for the workloads, the metrics, and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import envinfo  # noqa: E402
import loadgen  # noqa: E402
from metrics import (  # noqa: E402
    PER_LAYER,
    Tally,
    TooFewSamples,
    metric,
    percentile,
    result_line,
    rss_mib_from_kib,
)
from tracing import SpanLog, layer_metrics, union_seconds  # noqa: E402

#: fresh interpreters whose set-up times give the ``setup_s`` median
SETUP_LAUNCHES = 5
#: Monte Carlo samples per sampled Table 2 pattern (the CLI default)
REPORT_SAMPLES = 20_000
#: statistics-campaign events per ``repro campaign``
CAMPAIGN_EVENTS = 2_500
#: served ``evaluate`` jobs: scheme, samples, jobs per requested second
#: (a fixed count per run, because the store grows with every job), and
#: the fixed seeds that half of the submissions repeat
SERVE_SCHEME = "trio"
SERVE_SAMPLES = 200
SERVE_JOBS_PER_SECOND = 16
SERVE_MIN_JOBS = 120
SERVE_REPEAT_POOL = 4
#: a run must end within 180 s; this leaves a margin
DEADLINE_S = 170.0

WORK_ROOT = ".perfbench-work"


class BenchError(RuntimeError):
    """The benchmark could not measure (not a wrong output)."""


def pinned_env(base: dict, src: str, runs_dir: str) -> dict:
    """Child environment: the checkout's sources, a run store inside the
    run's directory, one BLAS/OpenMP thread, no inherited fault plan."""
    env = dict(base)
    env["PYTHONPATH"] = src
    env["REPRO_RUNS_DIR"] = runs_dir
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS"):
        env[name] = "1"
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_SERVE_URL", None)
    return env


class Context:
    def __init__(self, args, root: Path, rundir: Path) -> None:
        self.args = args
        self.root = root
        self.rundir = rundir
        self.started = time.perf_counter()
        self.env = pinned_env(os.environ, str(root / "src"),
                              str(rundir / "default-store"))
        self.record: dict = {}
        #: the traced leg's spans, kept next to the record
        self.spans: dict | None = None

    def remaining(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError("out of time")
        return left

    def worker(self, *argv) -> list[str]:
        return [sys.executable, str(HERE / "worker.py"), *map(str, argv)]

    def fresh(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.rundir))


# ---------------------------------------------------------------------------
# report and campaign: units of a CLI command, forked from one warm worker
# ---------------------------------------------------------------------------

def launch_setup(ctx: Context, workload: str) -> tuple[float, dict]:
    """One fresh interpreter: seconds until it is ready, and its split."""
    started = time.perf_counter()
    process = subprocess.Popen(ctx.worker("setup", "--workload", workload),
                               stdout=subprocess.PIPE, env=ctx.env,
                               cwd=ctx.root, text=True)
    line = process.stdout.readline()
    ready_s = time.perf_counter() - started
    process.communicate(timeout=ctx.remaining())
    if process.returncode or not line:
        raise BenchError(f"set-up launch exited {process.returncode}")
    return ready_s, json.loads(line)["ready"]


def run_worker(ctx: Context, workload: str) -> tuple[float, dict, dict]:
    """The measuring worker: its readiness time, readiness split, and
    the units it timed."""
    args = ctx.args
    out = ctx.rundir / "worker.json"
    argv = ctx.worker("run", "--workload", workload, "--seed", args.seed,
                      "--seconds", args.seconds, "--samples", REPORT_SAMPLES,
                      "--events", CAMPAIGN_EVENTS, "--dir", ctx.rundir,
                      "--out", out)
    if args.trace:
        argv.append("--trace")
    started = time.perf_counter()
    process = subprocess.Popen(argv, stdout=subprocess.PIPE, env=ctx.env,
                               cwd=ctx.root, text=True)
    line = process.stdout.readline()
    ready_s = time.perf_counter() - started
    try:
        process.communicate(timeout=ctx.remaining())
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchError("worker overran the deadline") from None
    if process.returncode or not line:
        raise BenchError(f"worker exited {process.returncode}")
    return ready_s, json.loads(line)["ready"], json.loads(out.read_text())


def typical(values: list[float]) -> float:
    """The median of per-unit values where the run has enough units for
    one (ten beyond it), else their mean."""
    try:
        return percentile(values, 0.5)
    except TooFewSamples:
        return statistics.fmean(values)


def report_events(store: Path) -> int:
    """Error patterns evaluated for Table 2: the events of every cell the
    run stored."""
    total = 0
    for path in store.glob("cells/*/*.jsonl"):
        total += json.loads(path.read_text().splitlines()[1])["events"]
    return total


def campaign_events(store: Path) -> int:
    """Injected events, as the run's manifest counted them."""
    return sum(m.get("counters", {}).get("events", 0)
               for m in checks.manifests(store))


def check_units(workload: str, units: list, tally: Tally,
                oracle: dict | None) -> None:
    reference = None
    if workload == "report":
        reference = json.loads((HERE / "reference" / "report.json")
                               .read_text())
        cells = sum(len(row) for row in reference["table2"].values())
    for unit in units:
        store = Path(unit["store"])
        if unit["exit"]:
            tally.record(False, f"exit code {unit['exit']}")
            continue
        text = (Path(unit["dir"]) / "output.txt").read_text()
        if workload == "report":
            problems = checks.check_report(text, reference, REPORT_SAMPLES)
            problems += checks.check_store(store, hits=0, misses=cells)
        else:
            problems = checks.check_same_report(text,
                                                oracle[str(unit["seed"])])
            problems += checks.check_store(store, hits=0, misses=1)
        tally.record(not problems, "; ".join(problems))


def campaign_oracle(ctx: Context, seeds) -> dict:
    """The streaming shared-memory path's report for every unit seed."""
    out = ctx.rundir / "oracle.json"
    subprocess.run(ctx.worker("oracle", "--seeds", ",".join(map(str, seeds)),
                              "--events", CAMPAIGN_EVENTS, "--out", out),
                   env=ctx.env, cwd=ctx.root, check=True,
                   stdout=subprocess.DEVNULL, timeout=ctx.remaining())
    return json.loads(out.read_text())


def hit_ratio(stores) -> float:
    found = [m for store in stores for m in checks.manifests(Path(store))]
    hits = sum(m.get("cache_hits", 0) for m in found)
    lookups = hits + sum(m.get("cache_misses", 0) for m in found)
    return hits / lookups if lookups else 0.0


def run_units(ctx: Context, workload: str) -> tuple[dict, Tally]:
    setups = [launch_setup(ctx, workload)
              for _ in range(SETUP_LAUNCHES - 1)]
    ready_s, ready, result = run_worker(ctx, workload)
    setups.append((ready_s, ready))
    legs = [result["untraced"]] + ([result["traced"]] if ctx.args.trace
                                   else [])
    oracle = None
    if workload == "campaign":
        oracle = campaign_oracle(ctx, sorted({
            unit["seed"] for leg in legs for unit in leg["units"]}))
    tally = Tally()
    for leg in legs:
        check_units(workload, leg["units"], tally, oracle)

    untraced = result["untraced"]["units"]
    walls = [unit["wall_s"] for unit in untraced]
    count = report_events if workload == "report" else campaign_events
    work = [count(Path(unit["store"])) for unit in untraced]
    ctx.record.update({
        "setup_launches_s": [s for s, _ in setups],
        "unit_walls_s": walls,
        "unit_seeds": [unit["seed"] for unit in untraced],
        "work_items": work,
    })
    peaks = [unit["peak_rss_kib"] for unit in untraced]
    ctx.record["unit_peak_rss_kib"] = peaks
    if not ctx.args.trace:
        # times are means: on a shared 2-vCPU VM, whose speed drifts by
        # 10-20% over tens of seconds, the mean of a run's units varied
        # less from run to run than their median; peak RSS does not drift,
        # and its median resists the seeds whose campaigns are very large
        return {
            "setup_s": statistics.median(s for s, _ in setups),
            "wall_s": statistics.fmean(walls),
            "work_per_s": sum(work) / sum(walls),
            "peak_rss_mib": rss_mib_from_kib(typical(peaks)),
        }, tally

    traced = result["traced"]
    if traced["leftover"]:
        tally.fail_all(f"wrappers left installed: {traced['leftover']}")
    traced_walls = [unit["wall_s"] for unit in traced["units"]]
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(traced["layers"])
    values.update({
        "runs.cache.hit_ratio": hit_ratio(
            unit["store"] for unit in traced["units"]),
        "setup.import_s": statistics.median(r["import_s"] for _, r in setups),
        "setup.warm_s": statistics.median(r["warm_s"] for _, r in setups),
        "trace.coverage": traced["coverage"],
        "obs.trace_overhead_ratio": statistics.fmean(traced_walls)
        / statistics.fmean(walls) - 1.0,
    })
    ctx.record.update({"traced_unit_walls_s": traced_walls,
                       "wrapped_attributes": traced["wrapped"]})
    ctx.spans = traced["spans"]
    return values, tally


# ---------------------------------------------------------------------------
# serve: a closed loop of clients against a fresh daemon
# ---------------------------------------------------------------------------

def serve_argv(ctx: Context, store: Path, trace_out: Path | None) -> list:
    serve = ["--port", "0", "--runs-dir", str(store)]
    if trace_out is None:
        return [sys.executable, "-m", "repro", "serve", *serve]
    return ctx.worker("daemon", "--trace-out", trace_out, "--", *serve)


def serve_leg(ctx: Context, tally: Tally, seeds: list[int],
              trace_out: Path | None = None) -> dict:
    """One fresh daemon and store, the closed loop, then every check."""
    store = ctx.fresh("serve-")
    daemon = loadgen.launch(serve_argv(ctx, store, trace_out), ctx.env,
                            str(ctx.root))
    try:
        params = {"scheme": SERVE_SCHEME, "samples": SERVE_SAMPLES}
        subs, wall = loadgen.closed_loop(daemon, seeds, loadgen.nproc(),
                                         params)
        rss_kib = daemon.peak_rss_kib()
    finally:
        code = daemon.stop(timeout=min(60.0, ctx.remaining()))
    if code:
        raise BenchError(f"daemon exited {code}")
    check_served(ctx, tally, subs, store)
    return {"subs": subs, "wall_s": wall, "rss_kib": rss_kib,
            "setup_s": daemon.setup_s, "store": store}


def check_served(ctx: Context, tally: Tally, subs, store: Path) -> None:
    distinct = sorted({sub.seed for sub in subs})
    out = ctx.rundir / "evaluate.json"
    subprocess.run(ctx.worker(
        "evaluate", "--scheme", SERVE_SCHEME, "--samples", SERVE_SAMPLES,
        "--seeds", ",".join(map(str, distinct)),
        "--store", ctx.fresh("reference-"), "--out", out),
        env=ctx.env, cwd=ctx.root, check=True, stdout=subprocess.DEVNULL,
        timeout=ctx.remaining())
    reference = json.loads(out.read_text())
    by_run = {m["run_id"]: m for m in checks.manifests(store)}
    for sub in subs:
        result = sub.job.get("result") or {}
        if sub.error or sub.terminal != "completed" \
                or sub.job.get("state") != "completed":
            problem = sub.error or f"job ended {sub.terminal}"
        elif checks.check_same_report(result.get("report", ""),
                                      reference[str(sub.seed)]):
            problem = "result differs from in-process repro evaluate"
        elif (by_run.get(result.get("run_id"), {}).get("cache_hits"),
              by_run.get(result.get("run_id"), {}).get("cache_misses")) \
                != (result.get("cache_hits"), result.get("cache_misses")):
            problem = "job result and its run manifest disagree on hits"
        else:
            problem = ""
        tally.record(not problem, problem)
    owners = sum(1 for sub in subs if sub.status == 201)
    hits, misses = checks.serve_store_expectation(owners, len(distinct))
    problems = checks.check_store(store, hits, misses, runs=owners)
    if problems:
        tally.fail_all("; ".join(problems))


def tail(values, q: float):
    """A percentile with its sample count, or None below the rule."""
    try:
        return percentile(values, q)
    except TooFewSamples:
        return None


def serve_layers(leg: dict) -> dict:
    """The serve layer's numbers, from the HTTP API and job timestamps."""
    subs = leg["subs"]
    owned = [sub for sub in subs if sub.status == 201]
    ack = [sub.ack_s for sub in subs]
    queue = [sub.job["started_at"] - sub.job["submitted_at"]
             for sub in owned]
    run = [sub.job["finished_at"] - sub.job["started_at"] for sub in owned]
    deliver = [sub.terminal_at - sub.job["finished_at"] for sub in subs]
    latency = [sub.latency_s for sub in subs]
    n = len(subs)
    return {
        "serve.latency_p50_s": percentile(latency, 0.5),
        "serve.latency_p90_s": percentile(latency, 0.9),
        "serve.submit_ack_s.p50": percentile(ack, 0.5),
        "serve.submit_ack_s.p90": percentile(ack, 0.9),
        "serve.queue_wait_s.p50": percentile(queue, 0.5),
        "serve.queue_wait_s.p90": percentile(queue, 0.9),
        "serve.run_s.p50": percentile(run, 0.5),
        "serve.run_s.p90": percentile(run, 0.9),
        "serve.deliver_s.p50": percentile(deliver, 0.5),
        "serve.attach_ratio": sum(sub.deduped for sub in subs) / n,
        "serve.precached_ratio": sum(sub.precached and not sub.deduped
                                     for sub in subs) / n,
        "serve.rejected": sum(sub.status not in (200, 201) for sub in subs),
    }


def run_serve(ctx: Context) -> tuple[dict, Tally]:
    args = ctx.args
    jobs = max(int(SERVE_JOBS_PER_SECOND * args.seconds), SERVE_MIN_JOBS)
    seeds = loadgen.job_mix(args.seed, jobs, SERVE_REPEAT_POOL)
    tally = Tally()
    if not args.trace:
        setups = []
        for _ in range(SETUP_LAUNCHES - 1):
            daemon = loadgen.launch(
                serve_argv(ctx, ctx.fresh("setup-"), None), ctx.env,
                str(ctx.root))
            setups.append(daemon.setup_s)
            if daemon.stop(timeout=min(60.0, ctx.remaining())):
                raise BenchError("set-up daemon did not exit cleanly")
        leg = serve_leg(ctx, tally, seeds)
        setups.append(leg["setup_s"])
        latency = [sub.latency_s for sub in leg["subs"]]
        ctx.record.update({
            "setup_launches_s": setups, "jobs": jobs,
            "loop_wall_s": leg["wall_s"],
            "latency_p90_s": tail(latency, 0.9),
            "latency_samples": len(latency),
        })
        completed = sum(sub.terminal == "completed" for sub in leg["subs"])
        return {
            "setup_s": statistics.median(setups),
            "wall_s": percentile(latency, 0.5),
            "work_per_s": completed / leg["wall_s"],
            "peak_rss_mib": rss_mib_from_kib(leg["rss_kib"]),
        }, tally

    splits = [launch_setup(ctx, "serve")[1]
              for _ in range(SETUP_LAUNCHES)]
    plain = serve_leg(ctx, tally, seeds)
    trace_out = ctx.rundir / "daemon-trace.json"
    traced = serve_leg(ctx, tally, seeds, trace_out)
    dump = json.loads(trace_out.read_text())
    if dump["leftover"]:
        tally.fail_all(f"wrappers left installed: {dump['leftover']}")
    log = SpanLog.from_json(dump["log"])
    ctx.spans = dump["log"]
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(layer_metrics(log, len(traced["subs"])))
    values.update(serve_layers(plain))
    # the daemon runs one job at a time (default slots), so the job
    # threads' spans never overlap across jobs
    run_s = sum(sub.job["finished_at"] - sub.job["started_at"]
                for sub in traced["subs"] if sub.status == 201)
    covered = union_seconds([(start, end) for _, ident, start, end
                             in log.spans if ident != dump["main_thread"]])
    values.update({
        "runs.cache.hit_ratio": hit_ratio([traced["store"]]),
        "setup.import_s": statistics.median(r["import_s"] for r in splits),
        "setup.warm_s": statistics.median(r["warm_s"] for r in splits),
        "trace.coverage": covered / run_s,
        "obs.trace_overhead_ratio": traced["wall_s"] / plain["wall_s"] - 1,
    })
    ctx.record.update({"jobs": jobs, "untraced_wall_s": plain["wall_s"],
                       "traced_wall_s": traced["wall_s"],
                       "wrapped_attributes": dump["wrapped"]})
    return values, tally


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("report", "campaign", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("perfbench: no src/repro/cli.py here; run from the root of a "
              "checkout of the program", file=sys.stderr)
        return 2
    work = root / WORK_ROOT
    (work / "records").mkdir(parents=True, exist_ok=True)
    rundir = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-s{args.seed}-t{args.trace}-", dir=work))
    ctx = Context(args, root, rundir)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": envinfo.fingerprint(root, rundir),
              "loadavg_before": envinfo.loadavg()}
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                   cwd=root, env=ctx.env, check=True,
                   stdout=subprocess.DEVNULL)
    try:
        if args.workload == "serve":
            values, tally = run_serve(ctx)
        else:
            values, tally = run_units(ctx, args.workload)
    except (BenchError, loadgen.LaunchError, subprocess.SubprocessError,
            OSError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    record.update(ctx.record)
    record.update({"loadavg_after": envinfo.loadavg(),
                   "failed_frac": tally.failed_frac,
                   "failures": tally.reasons[:20]})
    metrics = {name: metric(name, value) for name, value in values.items()}
    line = result_line(tally, metrics)
    record["result"] = line
    name = f"{time.strftime('%Y%m%dT%H%M%S')}-{rundir.name}"
    (work / "records" / f"{name}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    if ctx.spans is not None:
        (work / "records" / f"{name}.spans.json").write_text(
            json.dumps(ctx.spans))
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
