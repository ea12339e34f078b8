"""Child processes of the benchmark; each imports ``repro`` fresh.

``python perfbench/worker.py <mode> ...``, started by ``run.py`` with
``PYTHONPATH`` pointing at the checkout's ``src``:

``setup``     import and warm for one workload, announce readiness, exit
``run``       the same set-up, then the timed units of ``report`` or
              ``campaign`` through ``repro.cli.main`` (and with
              ``--trace`` a second, traced leg of units)
``oracle``    the campaign on the streaming shared-memory path, as the
              reference the default path's report must equal
``evaluate``  in-process ``repro evaluate`` runs, as the reference each
              served job's result must equal
``daemon``    ``repro serve`` with the layer wrappers installed; the
              spans are written to a file when the daemon exits

The readiness line is the first line on stdout: a JSON object with the
set-up split, printed the moment the workload could start.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import sys
import tempfile
import threading
import time
from pathlib import Path

_STARTED = time.perf_counter()

#: repro modules each workload's command body imports on first use
IMPORTS = {
    "report": ("repro.cli", "repro.analysis.report", "repro.core",
               "repro.errormodel", "repro.hardware.synth", "repro.beam",
               "repro.runs", "repro.system"),
    "campaign": ("repro.cli", "repro.beam", "repro.runs", "repro.stats",
                 "repro.system"),
    "serve": ("repro.cli",),
}

#: fewest timed units a leg runs, whatever its time budget: a campaign
#: leg runs enough for the median of its units' peak RSS
MIN_UNITS = {"report": 2, "campaign": 20}


def set_up(workload: str) -> dict:
    """Import, then warm what the first unit would otherwise build."""
    import importlib

    for module in IMPORTS[workload]:
        importlib.import_module(module)
    imported = time.perf_counter()
    if workload != "serve":
        # the run store fingerprints the sources once per process
        from repro.runs.fingerprint import code_fingerprint

        code_fingerprint()
    if workload == "report":
        import numpy as np

        from repro.core import all_schemes
        from repro.errormodel import sampling

        probe = np.zeros((1, 5), dtype=np.uint64)
        for scheme in all_schemes():
            scheme.decode_batch_packed(probe)
        for enumerate_packed in (
                sampling.enumerate_bit_errors_packed,
                sampling.enumerate_pin_errors_packed,
                sampling.enumerate_byte_errors_packed,
                sampling.enumerate_double_bit_errors_packed):
            enumerate_packed()
    warmed = time.perf_counter()
    ready = {"import_s": imported - _STARTED, "warm_s": warmed - imported}
    print(json.dumps({"ready": ready}), flush=True)
    return ready


def unit_seeds(seed: int):
    """The seeds of a leg's units, drawn from the run's seed: every unit
    gets other inputs, so one run averages over many of them, and both
    legs of a traced run replay the same sequence."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1 << 31)


def _cli_argv(workload: str, args, seed: int, store: Path,
              unit_dir: Path) -> list:
    if workload == "report":
        return ["report", "--samples", str(args.samples),
                "--seed", str(seed), "--runs-dir", str(store),
                "--heartbeat", "0", "-o", str(unit_dir / "output.txt")]
    return ["campaign", "--runs", "1", "--events", str(args.events),
            "--seed", str(seed), "--runs-dir", str(store),
            "--heartbeat", "0"]


def peak_rss_kib() -> int:
    """``VmHWM`` of this process: its own peak resident set."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _unit_body(workload: str, args, seed: int, unit_dir: Path,
               log) -> dict:
    """One command, in the forked child; what the parent needs back."""
    from repro import cli

    argv = _cli_argv(workload, args, seed, unit_dir / "store", unit_dir)
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    end = time.perf_counter()
    if workload == "campaign":
        (unit_dir / "output.txt").write_text(sink.getvalue())
    return {"start": start, "end": end, "exit": code,
            "peak_rss_kib": peak_rss_kib(),
            "spans": log.to_json() if log is not None else None}


def run_unit(workload: str, args, seed: int, unit_dir: Path, log) -> dict:
    """Fork the warmed process and run one unit in the child.

    Every unit starts from the same warm state, with no heap, caches or
    garbage left by earlier units, as a fresh CLI process would; its peak
    RSS is its own (``VmHWM`` of the child).  The parent never runs the
    program itself, so its memory stays at the set-up level.
    """
    gc.collect()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        status = 0
        try:
            payload = _unit_body(workload, args, seed, unit_dir, log)
        except BaseException as exc:  # reported to the parent, then exit
            payload = {"error": f"{type(exc).__name__}: {exc}"}
            status = 1
        with os.fdopen(write_end, "w") as pipe:
            pipe.write(json.dumps(payload))
        os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        data = pipe.read()
    os.waitpid(pid, 0)
    payload = json.loads(data) if data else {"error": "no result"}
    if "error" in payload:
        raise RuntimeError(f"unit with seed {seed} failed: "
                           f"{payload['error']}")
    return payload


def run_leg(workload: str, args, leg: str, log=None) -> dict:
    """Units of one workload for ``args.seconds``; one cold store each."""
    units = []
    seeds = unit_seeds(args.seed)
    began = time.perf_counter()
    while True:
        unit_dir = Path(tempfile.mkdtemp(prefix=f"{leg}-", dir=args.dir))
        seed = next(seeds)
        result = run_unit(workload, args, seed, unit_dir, log)
        wall = result["end"] - result["start"]
        units.append({"dir": str(unit_dir), "store": str(unit_dir / "store"),
                      "seed": seed, "wall_s": wall, "exit": result["exit"],
                      "peak_rss_kib": result["peak_rss_kib"],
                      "window": (result["start"], result["end"]),
                      "spans": result["spans"]})
        elapsed = time.perf_counter() - began
        if len(units) >= MIN_UNITS[workload] and \
                elapsed + wall / 2 >= args.seconds:
            return {"units": units}


def cmd_run(args) -> int:
    set_up(args.workload)
    result = {"untraced": run_leg(args.workload, args, "untraced")}
    if args.trace:
        from tracing import (
            Patches,
            SpanLog,
            covered_seconds,
            install_repro_layers,
            layer_metrics,
            leftover_wrappers,
        )

        # installed here and inherited by every forked unit, each of which
        # fills its own copy of the log and sends it back
        log = SpanLog()
        patches = Patches()
        install_repro_layers(log, patches)
        try:
            traced = run_leg(args.workload, args, "traced", log=log)
        finally:
            targets = patches.targets
            patches.restore()
        log = SpanLog()
        for unit in traced["units"]:
            log.merge(SpanLog.from_json(unit.pop("spans")))
        windows = [unit["window"] for unit in traced["units"]]
        traced["layers"] = layer_metrics(log, len(traced["units"]))
        traced["coverage"] = covered_seconds(log, windows) / sum(
            end - start for start, end in windows)
        traced["wrapped"] = len(targets)
        traced["leftover"] = leftover_wrappers(targets)
        traced["spans"] = log.to_json()
        result["traced"] = traced
    for leg in result.values():
        for unit in leg["units"]:
            unit.pop("spans", None)
    Path(args.out).write_text(json.dumps(result))
    return 0


def cmd_setup(args) -> int:
    set_up(args.workload)
    return 0


def _outputs_per_seed(argv_for, seeds: str, out: str) -> int:
    """Run ``repro`` in this process once per seed; write the printed
    outputs, keyed by seed, as JSON."""
    from repro import cli

    outputs = {}
    for seed in seeds.split(","):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv_for(seed))
        if code:
            return code
        outputs[seed] = sink.getvalue()
    Path(out).write_text(json.dumps(outputs))
    return 0


def cmd_oracle(args) -> int:
    """The campaign on the path whose numbers must equal the default's."""
    return _outputs_per_seed(lambda seed: [
        "campaign", "--runs", "1", "--events", str(args.events),
        "--seed", seed, "--engine", "shm", "--stats", "streaming",
        "--no-cache", "--heartbeat", "0"], args.seeds, args.out)


def cmd_evaluate(args) -> int:
    """``repro evaluate`` per seed, in this process, on its own store."""
    return _outputs_per_seed(lambda seed: [
        "evaluate", args.scheme, "--samples", str(args.samples),
        "--seed", seed, "--runs-dir", args.store, "--heartbeat", "0"],
        args.seeds, args.out)


def cmd_daemon(args) -> int:
    """``repro serve`` traced from here; spans written at exit."""
    from tracing import Patches, SpanLog, install_repro_layers, \
        leftover_wrappers

    from repro import cli

    log = SpanLog()
    patches = Patches()
    install_repro_layers(log, patches)
    try:
        code = cli.main(["serve", *args.serve_args])
    finally:
        targets = patches.targets
        patches.restore()
    Path(args.trace_out).write_text(json.dumps({
        "log": log.to_json(),
        "wrapped": len(targets),
        "leftover": leftover_wrappers(targets),
        "main_thread": threading.main_thread().ident,
    }))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", required=True, choices=sorted(IMPORTS))
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True,
                     choices=("report", "campaign"))
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--samples", type=int, default=0)
    run.add_argument("--events", type=int, default=0)
    run.add_argument("--dir", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--trace", action="store_true")
    oracle = sub.add_parser("oracle")
    oracle.add_argument("--seeds", required=True)
    oracle.add_argument("--events", type=int, required=True)
    oracle.add_argument("--out", required=True)
    evaluate = sub.add_parser("evaluate")
    evaluate.add_argument("--scheme", required=True)
    evaluate.add_argument("--samples", type=int, required=True)
    evaluate.add_argument("--seeds", required=True)
    evaluate.add_argument("--store", required=True)
    evaluate.add_argument("--out", required=True)
    daemon = sub.add_parser("daemon")
    daemon.add_argument("--trace-out", required=True)
    daemon.add_argument("serve_args", nargs=argparse.REMAINDER)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "serve_args", None) and args.serve_args[0] == "--":
        args.serve_args = args.serve_args[1:]
    handler = {"setup": cmd_setup, "run": cmd_run, "oracle": cmd_oracle,
               "evaluate": cmd_evaluate, "daemon": cmd_daemon}[args.mode]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
