"""``repro chaos`` — run a real campaign under a seeded fault schedule.

The harness is the acceptance test for the whole robustness story: it
runs one beam campaign *clean* and the same campaign under a
deterministic fault plan — kill -9'd pool workers, torn artifact and
checkpoint writes, hung chunks — restarting with ``--resume`` every time
an injected fault kills the process, then verdicts on three things:

1. the faulted campaign eventually completes (retry / quarantine /
   resume actually recover);
2. its stdout — the derived statistics — is bit-identical to the clean
   run's (determinism survives every degraded path);
3. every injected incident is visible: ``fault.*`` counters (fed by the
   cross-process activation ledger) and the quarantine counter appear in
   the final run's manifest.

Campaign processes are separate interpreters, launched with
``--inject-faults`` so each installs the plan as its *own* host —
``host=1`` rules (torn writes in the coordinating process) genuinely
kill it, while plain destructive rules stay confined to pool workers.
The shared ledger keeps ``times=`` budgets global across the
crash-restart cycles, so a schedule of N faults injects exactly N faults
no matter how many restarts they cause.

This module imports :mod:`repro.runs` and therefore lives outside the
``repro.faults`` package namespace exports — the injection runtime must
stay leaf-level.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.shm import orphaned_segments
from repro.faults.plan import (
    ENV_HOST_PID,
    ENV_LEDGER,
    ENV_SEED,
    ENV_SPEC,
    FaultPlan,
    FaultSpecError,
)

__all__ = [
    "DEFAULT_SERVE_SPEC",
    "DEFAULT_SPEC",
    "KILL_SERVE_SPEC",
    "add_chaos_parser",
    "cmd_chaos",
    "run_chaos",
    "run_chaos_serve",
    "run_chaos_serve_kill",
]

#: The stock schedule: four fault classes across three layers — a pool
#: worker killed mid-chunk, the campaign artifact and a checkpoint line
#: torn mid-write (killing the host), and two hung chunks.
DEFAULT_SPEC = (
    "pool.worker.crash:mode=exit,times=1;"
    "store.save_campaign.pre_rename:mode=torn,host=1,times=1;"
    "checkpoint.torn_write:mode=torn,host=1,times=1;"
    "engine.chunk.hang:mode=hang,s=0.05,times=2"
)

#: The ``--serve`` schedule: a pool worker killed mid-chunk (the daemon's
#: warm pool absorbs it) and a torn campaign-artifact write with
#: ``host=1`` — the *daemon* is the host, so the fault kills the whole
#: service mid-job and recovery must come from restart + store resume.
DEFAULT_SERVE_SPEC = (
    "pool.worker.crash:mode=exit,times=1;"
    "store.save_campaign.pre_rename:mode=torn,host=1,times=1"
)

#: The ``--serve --kill-daemon`` schedule: one long chunk hang holds the
#: first job provably mid-run so the harness's external SIGKILL lands
#: while it is RUNNING (with a second job queued behind it and a
#: deduplicated attach recorded).  The shared ledger spends the hang
#: budget, so the restarted daemon replays its journal and finishes the
#: remainder at full speed.
KILL_SERVE_SPEC = "engine.chunk.hang:mode=hang,s=8.0,times=1"

#: wall-clock bound per campaign invocation (a hung subprocess must not
#: hang the harness)
_SUBPROCESS_TIMEOUT_S = 600.0

#: daemon must write its ready file within this window
_SERVE_START_TIMEOUT_S = 60.0
#: a killed daemon's pool workers must exit on their own within this
#: window (they poll their parent every ``core.pool._PARENT_POLL_S``)
_ORPHAN_EXIT_TIMEOUT_S = 10.0


def add_chaos_parser(sub) -> None:
    """Register the ``chaos`` subcommand on the main CLI's subparsers."""
    chaos = sub.add_parser(
        "chaos",
        help="campaign under a seeded fault schedule; asserts recovery "
             "and clean-run-identical statistics",
    )
    chaos.add_argument("--events", type=int, default=1200,
                       help="generator-truth events (>= 2 chunks so the "
                            "worker pool engages; default 1200)")
    chaos.add_argument("--runs", type=int, default=1)
    chaos.add_argument("--seed", type=int, default=2021)
    chaos.add_argument("--workers", type=int, default=2)
    chaos.add_argument("--engine", choices=["shm", "reference"],
                       default="shm",
                       help="statistics engine for both campaigns "
                            "(default shm)")
    chaos.add_argument("--stats", choices=["materialize", "streaming"],
                       default=None,
                       help="statistics path for both campaigns (default "
                            "streaming; materialize on --engine "
                            "reference).  '--engine shm --stats "
                            "materialize' exercises the shared-memory "
                            "arena faultpoints (shm.arena.*)")
    chaos.add_argument("--inject-faults", default=DEFAULT_SPEC,
                       metavar="SPEC",
                       help="fault schedule for the faulted campaign "
                            "(default: worker crash + torn artifact + "
                            "torn checkpoint + chunk hangs)")
    chaos.add_argument("--faults-seed", type=int, default=7)
    chaos.add_argument("--max-restarts", type=int, default=8,
                       help="resume attempts before declaring the "
                            "schedule unrecoverable (default 8)")
    chaos.add_argument("--chunk-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-chunk timeout passed through to the "
                            "campaigns (exercises the requeue path for "
                            "hang faults longer than it)")
    chaos.add_argument("--keep", action="store_true",
                       help="keep the scratch stores and ledger for "
                            "post-mortem instead of deleting them")
    chaos.add_argument("--serve", action="store_true",
                       help="run the faulted campaign through a repro "
                            "serve daemon instead of the CLI: faults "
                            "kill the daemon mid-job and recovery is "
                            "restart + resubmit (store resume), still "
                            "asserting clean-run-identical statistics")
    chaos.add_argument("--kill-daemon", action="store_true",
                       help="(implies --serve) SIGKILL the daemon with "
                            "a job running, one queued, and a "
                            "deduplicated attach recorded; the restarted "
                            "daemon must replay its journal so every "
                            "pre-kill job reaches a terminal state with "
                            "clean-run-identical statistics and no "
                            "duplicate computation")


def _engine_params(args) -> dict:
    """The campaigns' ``engine`` and ``stats`` (None: the engine's
    default, resolved by the campaign itself)."""
    return {"engine": getattr(args, "engine", "shm"),
            "stats": getattr(args, "stats", None)}


def _campaign_argv(args, store: Path) -> list[str]:
    engine = _engine_params(args)
    argv = [
        sys.executable, "-m", "repro", "campaign",
        "--runs", str(args.runs),
        "--events", str(args.events),
        "--seed", str(args.seed),
        "--workers", str(args.workers),
        "--engine", engine["engine"],
        "--heartbeat", "0",
        "--runs-dir", str(store),
    ]
    if engine["stats"] is not None:
        argv += ["--stats", engine["stats"]]
    if args.chunk_timeout is not None:
        argv += ["--chunk-timeout", str(args.chunk_timeout)]
    return argv


def _scrubbed_env() -> dict:
    """A child environment with no inherited fault activation and the
    library importable whether or not it is pip-installed."""
    env = dict(os.environ)
    for var in (ENV_SPEC, ENV_SEED, ENV_LEDGER, ENV_HOST_PID):
        env.pop(var, None)
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _run(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, env=env, capture_output=True, text=True,
        timeout=_SUBPROCESS_TIMEOUT_S,
    )


def _report_lines(stdout: str) -> list[str]:
    """The comparable statistics lines: everything except the run-store
    chatter (run ids differ between invocations by construction)."""
    return [line for line in stdout.splitlines()
            if line.strip() and not line.startswith("[repro")]


def _resume_id(store: Path) -> str | None:
    """Newest interrupted campaign run in the store, if any."""
    from repro.runs import RunStore

    for manifest in RunStore(store).list_runs():
        if manifest.command == "campaign" and manifest.status != "completed":
            return manifest.run_id
    return None


def run_chaos(args, out=print) -> int:
    """Execute the clean-vs-faulted comparison; returns an exit code."""
    try:
        FaultPlan.parse(args.inject_faults)  # fail fast on a bad spec
    except FaultSpecError as exc:
        out(f"repro chaos: error: bad fault spec: {exc}")
        return 2

    work = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    clean_store = work / "clean-store"
    chaos_store = work / "chaos-store"
    ledger = work / "faults-ledger.jsonl"
    env = _scrubbed_env()
    try:
        out(f"[repro chaos] schedule: {args.inject_faults}")
        out(f"[repro chaos] scratch dir: {work}")

        clean = _run(_campaign_argv(args, clean_store), env)
        if clean.returncode != 0:
            out("[repro chaos] FAIL: the clean (fault-free) campaign "
                f"exited {clean.returncode}")
            out(clean.stderr)
            return 1
        leaked = orphaned_segments()
        if leaked:
            out("[repro chaos] FAIL: the clean campaign leaked "
                f"shared-memory segments: {', '.join(leaked)}")
            return 1

        fault_flags = [
            "--inject-faults", args.inject_faults,
            "--faults-seed", str(args.faults_seed),
            "--faults-ledger", str(ledger),
        ]
        restarts = 0
        faulted = None
        for attempt in range(args.max_restarts + 1):
            argv = _campaign_argv(args, chaos_store) + fault_flags
            resume = _resume_id(chaos_store)
            if resume is not None:
                argv += ["--resume", resume]
            faulted = _run(argv, env)
            if faulted.returncode == 0:
                break
            restarts += 1
            out(f"[repro chaos] campaign killed (exit "
                f"{faulted.returncode}); restart {restarts} "
                f"{'resuming ' + resume if resume else 'fresh'}"
                .rstrip())
        else:
            out(f"[repro chaos] FAIL: campaign still failing after "
                f"{args.max_restarts} restarts")
            if faulted is not None:
                out(faulted.stderr)
            return 1
        out(f"[repro chaos] faulted campaign completed after "
            f"{restarts} restart(s)")

        # Incident accounting: the ledger is the ground truth of what was
        # injected; the final manifest must expose the same incidents.
        plan = FaultPlan.parse(args.inject_faults, ledger=ledger)
        injected = plan.ledger_counts()
        out("[repro chaos] injected incidents (ledger):")
        for point, count in sorted(injected.items()):
            out(f"  {point}: {count}")
        if not injected:
            out("[repro chaos] FAIL: the schedule injected nothing — "
                "the run never reached its fault points")
            return 1

        from repro.runs import RunStore

        final = next(
            m for m in RunStore(chaos_store).list_runs()
            if m.command == "campaign" and m.status == "completed"
        )
        problems = []
        for point, count in injected.items():
            seen = final.counters.get(f"fault.{point}")
            if seen != count:
                problems.append(
                    f"manifest counter fault.{point} is {seen}, "
                    f"ledger says {count}")
        quarantined = final.counters.get("artifacts_quarantined", 0)
        out(f"[repro chaos] final manifest: run {final.run_id}, "
            f"{quarantined} artifact(s) quarantined")
        torn_artifact = any(point.startswith("store.")
                            for point in injected)
        if torn_artifact and not quarantined:
            problems.append(
                "a store write was torn but nothing was quarantined")

        # Arena hygiene: every campaign process is dead by now, so any
        # surviving repro-shm segment is a leak the recovery story missed.
        leaked = orphaned_segments()
        if leaked:
            problems.append("orphaned shared-memory segments after "
                            "recovery: " + ", ".join(leaked))

        clean_lines = _report_lines(clean.stdout)
        fault_lines = _report_lines(faulted.stdout)
        if clean_lines != fault_lines:
            problems.append("faulted statistics differ from the clean run")
            for a, b in zip(clean_lines, fault_lines):
                if a != b:
                    out(f"  clean:   {a}")
                    out(f"  faulted: {b}")
            if len(clean_lines) != len(fault_lines):
                out(f"  ({len(clean_lines)} clean lines vs "
                    f"{len(fault_lines)} faulted)")

        if problems:
            for problem in problems:
                out(f"[repro chaos] FAIL: {problem}")
            return 1
        out(f"[repro chaos] PASS: {sum(injected.values())} injected "
            f"fault(s) across {len(injected)} point(s), "
            f"{restarts} restart(s), statistics bit-identical to the "
            "clean run")
        return 0
    finally:
        if args.keep:
            out(f"[repro chaos] kept scratch dir {work}")
        else:
            shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# --serve: the same verdicts, with the faulted campaign inside a daemon
# ---------------------------------------------------------------------------

def _serve_argv(args, store: Path, ready: Path, ledger: Path,
                spec: str) -> list[str]:
    return [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--ready-file", str(ready),
        "--runs-dir", str(store),
        "--workers", str(args.workers),
        "--inject-faults", spec,
        "--faults-seed", str(args.faults_seed),
        "--faults-ledger", str(ledger),
    ]


def _start_daemon(argv: list[str], env: dict, ready: Path,
                  log_path: Path) -> subprocess.Popen:
    """Launch the daemon and wait for its ready file (or early death)."""
    ready.unlink(missing_ok=True)
    log = open(log_path, "a")
    # its own session: the daemon's pid is its pool workers' group id
    daemon = subprocess.Popen(argv, env=env, stdout=log, stderr=log,
                              start_new_session=True)
    log.close()  # the child holds its own descriptor
    deadline = time.monotonic() + _SERVE_START_TIMEOUT_S
    while time.monotonic() < deadline:
        if ready.exists():
            return daemon
        if daemon.poll() is not None:
            raise RuntimeError(
                f"daemon exited {daemon.returncode} before becoming "
                f"ready (log: {log_path})")
        time.sleep(0.05)
    daemon.kill()
    raise RuntimeError(f"daemon not ready after "
                       f"{_SERVE_START_TIMEOUT_S:.0f}s (log: {log_path})")


def _kill_daemon_group(daemon: subprocess.Popen) -> None:
    """SIGKILL the daemon together with its pool workers (cleanup)."""
    try:
        os.killpg(daemon.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    daemon.wait()


def _live_group_members(pgid: int) -> list[int]:
    """Pids in process group ``pgid`` that still run (zombies waiting for
    a reaper excluded); empty where there is no Linux ``/proc``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we looked
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(stat.parent.name))
    return members


def _wait_group_gone(pgid: int, timeout_s: float) -> list[int]:
    """Poll until no member of ``pgid`` runs; returns the stragglers."""
    deadline = time.monotonic() + timeout_s
    while (members := _live_group_members(pgid)) \
            and time.monotonic() < deadline:
        time.sleep(0.1)
    return members


def _serve_job_once(url: str, params: dict):
    """Submit + watch one campaign job; returns the terminal event pair.

    Returns ``(job_id, event_name, report_or_error)`` — ``event_name`` is
    ``None`` when the daemon died under us (connection drop, stream
    ending without a terminal event).
    """
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(url, timeout=30.0)
    try:
        status, payload = client.submit("campaign", params)
        if status not in (200, 201):
            return None, "rejected", str(payload)
        job_id = payload["job"]["job_id"]
        final = None
        for event in client.watch(job_id, timeout=_SUBPROCESS_TIMEOUT_S):
            if event["event"] in ("completed", "failed", "cancelled"):
                final = event
        if final is None:
            return job_id, None, None
        if final["event"] == "completed":
            job = client.job(job_id)
            return job_id, "completed", (job.get("result") or {}).get(
                "report", "")
        return job_id, final["event"], (final.get("data") or {}).get(
            "error")
    except (ServeError, OSError) as exc:
        return None, None, str(exc)


def run_chaos_serve(args, out=print) -> int:
    """Clean-vs-faulted comparison with the faulted side behind a
    ``repro serve`` daemon; returns an exit code.

    ``host=1`` faults now kill the *daemon* mid-job: recovery is
    restarting the daemon and resubmitting, and the daemon's own
    store-resume picks the interrupted run back up.  The verdicts are the
    same as :func:`run_chaos` — completion, incident accounting in ledger
    and manifest, no shm leaks — plus the service-layer one: the report a
    client finally receives is byte-identical to a direct CLI run.
    """
    spec = (DEFAULT_SERVE_SPEC if args.inject_faults == DEFAULT_SPEC
            else args.inject_faults)
    try:
        FaultPlan.parse(spec)
    except FaultSpecError as exc:
        out(f"repro chaos: error: bad fault spec: {exc}")
        return 2

    work = Path(tempfile.mkdtemp(prefix="repro-chaos-serve-"))
    clean_store = work / "clean-store"
    chaos_store = work / "chaos-store"
    ledger = work / "faults-ledger.jsonl"
    ready = work / "serve-ready.txt"
    serve_log = work / "serve.log"
    env = _scrubbed_env()
    daemon = None
    try:
        out(f"[repro chaos] schedule: {spec} (daemon-hosted)")
        out(f"[repro chaos] scratch dir: {work}")

        clean = _run(_campaign_argv(args, clean_store), env)
        if clean.returncode != 0:
            out("[repro chaos] FAIL: the clean (fault-free) campaign "
                f"exited {clean.returncode}")
            out(clean.stderr)
            return 1

        params = {
            "runs": args.runs, "events": args.events, "seed": args.seed,
            "workers": args.workers, **_engine_params(args),
        }
        if args.chunk_timeout is not None:
            params["chunk_timeout"] = args.chunk_timeout
        argv = _serve_argv(args, chaos_store, ready, ledger, spec)

        restarts = 0
        report = None
        for _attempt in range(args.max_restarts + 1):
            if daemon is None or daemon.poll() is not None:
                daemon = _start_daemon(argv, env, ready, serve_log)
            url = ready.read_text().strip()
            job_id, outcome, detail = _serve_job_once(url, params)
            if outcome == "completed":
                report = detail
                break
            restarts += 1
            try:  # give an injected kill a moment to register
                daemon.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
            if daemon.poll() is not None:
                out(f"[repro chaos] daemon killed (exit "
                    f"{daemon.returncode}); restart {restarts}, "
                    "resubmitting")
            else:
                out(f"[repro chaos] job {job_id or '?'} ended "
                    f"{outcome or 'without a terminal event'}"
                    + (f": {detail}" if detail else "")
                    + f"; resubmission {restarts}")
        else:
            out(f"[repro chaos] FAIL: no completed job after "
                f"{args.max_restarts} restarts (daemon log: {serve_log})")
            return 1
        out(f"[repro chaos] faulted campaign completed through the "
            f"daemon after {restarts} restart(s)/resubmission(s)")

        plan = FaultPlan.parse(spec, ledger=ledger)
        injected = plan.ledger_counts()
        out("[repro chaos] injected incidents (ledger):")
        for point, count in sorted(injected.items()):
            out(f"  {point}: {count}")
        if not injected:
            out("[repro chaos] FAIL: the schedule injected nothing — "
                "the run never reached its fault points")
            return 1

        from repro.runs import RunStore

        final = next(
            m for m in RunStore(chaos_store).list_runs()
            if m.command == "campaign" and m.status == "completed"
        )
        problems = []
        for point, count in injected.items():
            seen = final.counters.get(f"fault.{point}")
            if seen != count:
                problems.append(
                    f"manifest counter fault.{point} is {seen}, "
                    f"ledger says {count}")
        quarantined = final.counters.get("artifacts_quarantined", 0)
        out(f"[repro chaos] final manifest: run {final.run_id}, "
            f"{quarantined} artifact(s) quarantined")
        if any(point.startswith("store.") for point in injected) \
                and not quarantined:
            problems.append(
                "a store write was torn but nothing was quarantined")

        clean_lines = _report_lines(clean.stdout)
        fault_lines = _report_lines(report or "")
        if clean_lines != fault_lines:
            problems.append("statistics served by the daemon differ "
                            "from the clean run")
            for a, b in zip(clean_lines, fault_lines):
                if a != b:
                    out(f"  clean:  {a}")
                    out(f"  served: {b}")
            if len(clean_lines) != len(fault_lines):
                out(f"  ({len(clean_lines)} clean lines vs "
                    f"{len(fault_lines)} served)")

        # Graceful daemon shutdown is part of the verdict: SIGTERM must
        # drain to exit 0, and nothing may be left in /dev/shm.
        daemon.send_signal(signal.SIGTERM)
        try:
            code = daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            problems.append("daemon did not exit within 60s of SIGTERM")
        else:
            if code != 0:
                problems.append(f"daemon exited {code} on SIGTERM "
                                "(expected 0)")
        daemon = None
        leaked = orphaned_segments()
        if leaked:
            problems.append("orphaned shared-memory segments after "
                            "recovery: " + ", ".join(leaked))

        if problems:
            for problem in problems:
                out(f"[repro chaos] FAIL: {problem}")
            return 1
        out(f"[repro chaos] PASS: {sum(injected.values())} injected "
            f"fault(s) across {len(injected)} point(s), "
            f"{restarts} daemon restart(s), served statistics "
            "bit-identical to the clean run")
        return 0
    except RuntimeError as exc:
        out(f"[repro chaos] FAIL: {exc}")
        return 1
    finally:
        if daemon is not None and daemon.poll() is None:
            _kill_daemon_group(daemon)
        if args.keep:
            out(f"[repro chaos] kept scratch dir {work}")
        else:
            shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# --kill-daemon: SIGKILL mid-campaign; the journal must lose nothing
# ---------------------------------------------------------------------------

def _wait_ready(url: str, timeout_s: float = _SERVE_START_TIMEOUT_S) -> dict:
    """Poll ``/v1/readyz`` until the daemon reports ready (or give up)."""
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(url, timeout=5.0)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            status, payload = client.readyz()
        except ServeError:
            status, payload = None, {}
        if status == 200:
            return payload
        time.sleep(0.05)
    raise RuntimeError(f"daemon at {url} not ready after {timeout_s:.0f}s")


def _wait_job_state(client, job_id: str, states: frozenset | set,
                    timeout_s: float):
    """Poll one job until it reaches any of ``states``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = client.job(job_id)
        if job["state"] in states:
            return job
        time.sleep(0.05)
    raise RuntimeError(f"job {job_id} did not reach {sorted(states)} "
                       f"within {timeout_s:.0f}s")


def _wait_interrupted_run(store: Path, timeout_s: float) -> str:
    """Poll until a campaign run is open in ``store``: a ``running`` job
    writes its run manifest only once its thread has set up, and a kill
    before that would leave nothing to resume."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        run_id = _resume_id(store)
        if run_id is not None:
            return run_id
        time.sleep(0.05)
    raise RuntimeError(f"no campaign run opened in {store} "
                       f"within {timeout_s:.0f}s")


def run_chaos_serve_kill(args, out=print) -> int:
    """SIGKILL the daemon mid-campaign; the journal must make it whole.

    Scenario: job A running (held mid-chunk by a hang fault so the kill
    provably lands mid-run), job B queued behind it, and a duplicate
    submission of A's content key attached.  The daemon is SIGKILL'd,
    restarted against the same store, and the verdict requires:

    * the daemon's pool workers, left running by a SIGKILL of the
      daemon alone, exit on their own;
    * journal replay requeues both jobs (A marked recovered-from-running);
    * A's content key, resubmitted after the restart, attaches to the
      *original* job id (dedupe survives the crash);
    * both jobs complete with statistics byte-identical to direct CLI
      runs, A resuming its interrupted run-store manifest;
    * zero duplicate computation: exactly one completed campaign
      manifest per identity, and every job's ``run_id`` maps to one
      (journal <-> manifest parity);
    * SIGTERM then drains to exit 0 and leaves a compacted journal whose
      replay shows only terminal jobs, with no shm leaks.
    """
    from argparse import Namespace

    spec = (KILL_SERVE_SPEC if args.inject_faults == DEFAULT_SPEC
            else args.inject_faults)
    try:
        FaultPlan.parse(spec)
    except FaultSpecError as exc:
        out(f"repro chaos: error: bad fault spec: {exc}")
        return 2

    work = Path(tempfile.mkdtemp(prefix="repro-chaos-kill-"))
    clean_store = work / "clean-store"
    chaos_store = work / "chaos-store"
    ledger = work / "faults-ledger.jsonl"
    ready = work / "serve-ready.txt"
    serve_log = work / "serve.log"
    env = _scrubbed_env()
    daemon = None
    terminal = {"completed", "failed", "cancelled"}
    try:
        out(f"[repro chaos] schedule: {spec} + daemon SIGKILL")
        out(f"[repro chaos] scratch dir: {work}")

        args_b = Namespace(**vars(args))
        args_b.seed = args.seed + 1
        clean_a = _run(_campaign_argv(args, clean_store), env)
        clean_b = _run(_campaign_argv(args_b, clean_store), env)
        for name, clean in (("A", clean_a), ("B", clean_b)):
            if clean.returncode != 0:
                out(f"[repro chaos] FAIL: clean campaign {name} exited "
                    f"{clean.returncode}")
                out(clean.stderr)
                return 1

        base_params = {
            "runs": args.runs, "events": args.events,
            "workers": args.workers, **_engine_params(args),
        }
        if args.chunk_timeout is not None:
            base_params["chunk_timeout"] = args.chunk_timeout
        params_a = dict(base_params, seed=args.seed)
        params_b = dict(base_params, seed=args.seed + 1)

        from repro.serve.client import ServeClient

        argv = _serve_argv(args, chaos_store, ready, ledger, spec)
        daemon = _start_daemon(argv, env, ready, serve_log)
        url = ready.read_text().strip()
        _wait_ready(url)
        client = ServeClient(url, timeout=30.0)

        status, payload = client.submit("campaign", params_a)
        if status != 201:
            out(f"[repro chaos] FAIL: job A not accepted "
                f"({status}: {payload})")
            return 1
        job_a = payload["job"]["job_id"]
        _wait_job_state(client, job_a, {"running"}, 30.0)
        _wait_interrupted_run(chaos_store, 30.0)
        status, payload = client.submit("campaign", params_b)
        if status != 201:
            out(f"[repro chaos] FAIL: job B not accepted "
                f"({status}: {payload})")
            return 1
        job_b = payload["job"]["job_id"]
        status, payload = client.submit("campaign", params_a)
        if not (status == 200 and payload.get("deduped")
                and payload["job"]["job_id"] == job_a):
            out(f"[repro chaos] FAIL: duplicate submission did not "
                f"attach to {job_a} ({status}: {payload})")
            return 1
        out(f"[repro chaos] staged: {job_a} running, {job_b} queued, "
            f"one deduplicated attach; sending SIGKILL")

        # the daemon alone, as the OOM killer would: its pool workers
        # must notice and exit on their own
        workers = [pid for pid in _live_group_members(daemon.pid)
                   if pid != daemon.pid]
        daemon.kill()
        daemon.wait()
        orphans = _wait_group_gone(daemon.pid, _ORPHAN_EXIT_TIMEOUT_S)
        if orphans:
            os.killpg(daemon.pid, signal.SIGKILL)
            out(f"[repro chaos] FAIL: pool workers {orphans} outlived the "
                f"killed daemon by {_ORPHAN_EXIT_TIMEOUT_S:.0f}s")
            return 1
        if workers:
            out(f"[repro chaos] pool workers exited with the killed "
                f"daemon ({len(workers)})")
        else:
            out("[repro chaos] no pool workers were up at the kill")

        daemon = _start_daemon(argv, env, ready, serve_log)
        url = ready.read_text().strip()
        readyz = _wait_ready(url)
        client = ServeClient(url, timeout=30.0)
        replay = readyz.get("journal", {})
        out(f"[repro chaos] journal replay after restart: {replay}")

        problems = []
        if replay.get("requeued") != 2:
            problems.append(f"replay requeued {replay.get('requeued')} "
                            "jobs, expected 2")
        if replay.get("recovered_running") != 1:
            problems.append("replay recovered "
                            f"{replay.get('recovered_running')} mid-run "
                            "jobs, expected 1")
        if replay.get("terminal") != 0:
            problems.append(f"replay saw {replay.get('terminal')} "
                            "terminal jobs before the kill, expected 0")

        status, payload = client.submit("campaign", params_a)
        if not (status == 200 and payload.get("deduped")
                and payload["job"]["job_id"] == job_a):
            problems.append(
                "a resubmitted content key did not attach to the "
                f"original job after the restart ({status}: "
                f"{payload.get('job', {}).get('job_id')})")

        finals = {}
        for job_id in (job_a, job_b):
            finals[job_id] = _wait_job_state(
                client, job_id, terminal, _SUBPROCESS_TIMEOUT_S)
        for job_id, job in finals.items():
            if job["state"] != "completed":
                problems.append(f"job {job_id} ended {job['state']}: "
                                f"{job.get('error')}")
        if finals[job_a].get("recovered") is not True:
            problems.append(f"job {job_a} was not flagged as recovered "
                            "from a mid-run crash")
        if finals[job_a]["state"] == "completed" and \
                not (finals[job_a].get("result") or {}).get("resumed_from"):
            problems.append(f"job {job_a} recomputed from scratch "
                            "instead of resuming its interrupted run")

        for job_id, clean in ((job_a, clean_a), (job_b, clean_b)):
            if finals[job_id]["state"] != "completed":
                continue
            served = _report_lines(
                (finals[job_id].get("result") or {}).get("report", ""))
            if served != _report_lines(clean.stdout):
                problems.append(f"job {job_id} statistics differ from "
                                "its clean CLI run")

        from repro.runs import RunStore

        completed = [m for m in RunStore(chaos_store).list_runs()
                     if m.command == "campaign"
                     and m.status == "completed"]
        if len(completed) != 2:
            problems.append(f"{len(completed)} completed campaign "
                            "manifests in the store, expected exactly 2 "
                            "(duplicate or lost computation)")
        run_ids = {m.run_id for m in completed}
        for job_id, job in finals.items():
            run_id = (job.get("result") or {}).get("run_id")
            if run_id not in run_ids:
                problems.append(f"job {job_id} result run {run_id} has "
                                "no completed manifest")

        daemon.send_signal(signal.SIGTERM)
        try:
            code = daemon.wait(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            problems.append("daemon did not exit within 60s of SIGTERM")
        else:
            if code != 0:
                problems.append(f"daemon exited {code} on SIGTERM "
                                "(expected 0)")
        daemon = None

        from repro.serve.journal import JobJournal

        compacted = JobJournal(chaos_store).replay()
        if compacted.requeued != 0 or len(compacted.jobs) != 2:
            problems.append(
                f"compacted journal replays {len(compacted.jobs)} jobs "
                f"with {compacted.requeued} requeued, expected 2 "
                "terminal jobs and 0 requeued")
        journal_runs = {(job.result or {}).get("run_id")
                        for job in compacted.jobs}
        if journal_runs != run_ids:
            problems.append(
                f"journal result runs {sorted(map(str, journal_runs))} "
                f"!= completed manifests {sorted(run_ids)}")

        leaked = orphaned_segments()
        if leaked:
            problems.append("orphaned shared-memory segments after "
                            "recovery: " + ", ".join(leaked))

        if problems:
            for problem in problems:
                out(f"[repro chaos] FAIL: {problem}")
            return 1
        out("[repro chaos] PASS: SIGKILL with 1 running + 1 queued + 1 "
            "deduplicated job; journal replay requeued both, dedupe "
            "held the original job id, statistics bit-identical to the "
            "clean runs, no duplicate computation, clean SIGTERM left a "
            "compacted journal")
        return 0
    except RuntimeError as exc:
        out(f"[repro chaos] FAIL: {exc}")
        return 1
    finally:
        if daemon is not None and daemon.poll() is None:
            _kill_daemon_group(daemon)
        if args.keep:
            out(f"[repro chaos] kept scratch dir {work}")
        else:
            shutil.rmtree(work, ignore_errors=True)


def cmd_chaos(args) -> int:
    """Dispatch ``repro chaos``; returns a process exit code."""
    if getattr(args, "kill_daemon", False):
        return run_chaos_serve_kill(args)
    if getattr(args, "serve", False):
        return run_chaos_serve(args)
    return run_chaos(args)
