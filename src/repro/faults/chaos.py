"""``repro chaos`` — run a real campaign under a seeded fault schedule.

The harness is the acceptance test for the whole robustness story: it
runs a beam campaign *clean* and again under a deterministic fault plan
— kill -9'd pool workers, torn artifact and checkpoint writes, hung
chunks, a SIGKILL'd daemon — and verdicts that the faulted side
recovered: it completes, its statistics are bit-identical to the clean
run's, and every injected incident is visible.

One runner, :func:`cmd_chaos`, does every shared step once; a
:class:`Leg` keeps only what differs — its default schedule, its clean
seeds, its faulted phase (``drive``) and its verdicts, each a function
from the :class:`Scenario` to problem strings.

Campaigns and daemons are separate interpreters launched with
``--inject-faults``, so each installs the plan as its *own* host —
``host=1`` rules genuinely kill it, while plain destructive rules stay
confined to pool workers.  The shared ledger keeps ``times=`` budgets
global across the crash-restart cycles, so a schedule of N faults
injects exactly N faults no matter how many restarts they cause.

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
from argparse import Namespace
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

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
    "LEGS",
    "add_chaos_arguments",
    "cmd_chaos",
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

#: wall-clock bound per campaign invocation or served job (a hung
#: subprocess must not hang the harness)
_SUBPROCESS_TIMEOUT_S = 120.0
#: daemon must write its ready file and answer /v1/readyz within this
_SERVE_START_TIMEOUT_S = 60.0
#: a killed daemon's pool workers must exit on their own within this
#: window (they poll their parent every ``core.pool._PARENT_POLL_S``)
_ORPHAN_EXIT_TIMEOUT_S = 10.0
#: SIGTERM must drain the daemon to exit 0 within this window
_DRAIN_TIMEOUT_S = 60.0
_TERMINAL = frozenset({"completed", "failed", "cancelled"})


def add_chaos_arguments(chaos) -> None:
    """Add the ``chaos`` command's arguments to its subparser."""
    from repro.cli import _campaign_count, _timeout_seconds, _worker_count

    chaos.add_argument("--events", type=_campaign_count, default=1200,
                       help="generator-truth events (>= 2 chunks so the "
                            "worker pool engages; default 1200)")
    chaos.add_argument("--runs", type=_campaign_count, default=1)
    chaos.add_argument("--seed", type=int, default=2021)
    chaos.add_argument("--workers", type=_worker_count, default=2)
    chaos.add_argument("--engine", choices=["shm", "reference"],
                       default="shm",
                       help="statistics engine for both campaigns "
                            "(default shm)")
    chaos.add_argument("--inject-faults", default=None, metavar="SPEC",
                       help="fault schedule for the faulted side "
                            "(default: a worker crash, a torn artifact and "
                            "checkpoint, two chunk hangs; on --serve, a "
                            "worker crash and a torn artifact; on "
                            "--kill-daemon, one 8 s chunk hang)")
    chaos.add_argument("--faults-seed", type=int, default=7)
    chaos.add_argument("--max-restarts", type=_campaign_count, default=8,
                       help="resume attempts before declaring the "
                            "schedule unrecoverable (default 8)")
    chaos.add_argument("--chunk-timeout", type=_timeout_seconds,
                       default=None, metavar="SECONDS",
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


@dataclass
class Scenario:
    """One chaos run: its inputs, its scratch layout, and what the leg's
    faulted phase observed for the verdicts to judge."""

    args: Namespace
    spec: str
    work: Path
    #: campaign seeds compared clean vs faulted, one clean run each
    seeds: tuple[int, ...]
    out: Callable[[str], object] = print
    env: dict = field(default_factory=dict)
    #: clean campaign stdout, one per seed
    clean: list[str] = field(default_factory=list)
    #: the faulted side's report text, one per seed
    faulted: list[str] = field(default_factory=list)
    restarts: int = 0
    daemon: subprocess.Popen | None = None
    #: what the kill-daemon leg staged and saw: job ids, dedupe attaches,
    #: the pool workers up at the kill and any that outlived it, the
    #: replay counters, the final jobs
    facts: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.clean_store = self.work / "clean-store"
        self.chaos_store = self.work / "chaos-store"
        self.ledger = self.work / "faults-ledger.jsonl"
        self.ready = self.work / "serve-ready.txt"
        self.serve_log = self.work / "serve.log"
        #: how every faulted campaign or daemon installs the schedule
        self.fault_flags = ["--inject-faults", self.spec,
                            "--faults-seed", str(self.args.faults_seed),
                            "--faults-ledger", str(self.ledger)]

    @cached_property
    def injected(self) -> dict[str, int]:
        """Incidents per fault point from the cross-process ledger — the
        ground truth of what the schedule injected."""
        return FaultPlan.parse(self.spec, ledger=self.ledger).ledger_counts()

    @cached_property
    def completed(self) -> list:
        """The chaos store's completed campaign manifests, newest first."""
        from repro.runs import RunStore

        return [m for m in RunStore(self.chaos_store).list_runs()
                if m.command == "campaign" and m.status == "completed"]

    @cached_property
    def journal(self):
        """The chaos store's job journal, replayed (first read after the
        SIGTERM drain, so it is the compacted one)."""
        from repro.serve.journal import JobJournal

        return JobJournal(self.chaos_store).replay()


def _poll(check: Callable[[], object], timeout_s: float, what: str):
    """Call ``check`` every 50 ms until it returns something truthy and
    return that; raise RuntimeError naming ``what`` after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while not (result := check()):
        if time.monotonic() >= deadline:
            raise RuntimeError(f"timed out after {timeout_s:g}s waiting "
                               f"for {what}")
        time.sleep(0.05)
    return result


def _job_params(args, seed: int) -> dict:
    """The campaign's parameters, as a served job takes them."""
    return {"runs": args.runs, "events": args.events, "seed": seed,
            "workers": args.workers, "engine": args.engine,
            "chunk_timeout": args.chunk_timeout}


def _campaign_argv(args, store: Path, seed: int) -> list[str]:
    """The same campaign as a ``repro campaign`` command line."""
    argv = [sys.executable, "-m", "repro", "campaign",
            "--heartbeat", "0", "--runs-dir", str(store)]
    for name, value in _job_params(args, seed).items():
        if value is not None:  # unset: the campaign picks the default
            argv += [f"--{name.replace('_', '-')}", str(value)]
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


def _start_daemon(s: Scenario):
    """Launch the faulted daemon into ``s.daemon`` and wait until its
    ``/v1/readyz`` answers 200; returns ``(client, readyz payload)``."""
    from repro.serve.client import ServeClient, ServeError

    s.ready.unlink(missing_ok=True)
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--ready-file", str(s.ready),
        "--runs-dir", str(s.chaos_store),
        "--workers", str(s.args.workers),
    ] + s.fault_flags
    with open(s.serve_log, "a") as log:
        # its own session: the daemon's pid is its pool workers' group id
        s.daemon = subprocess.Popen(argv, env=s.env, stdout=log,
                                    stderr=log, start_new_session=True)

    def ready():
        if s.daemon.poll() is not None:
            raise RuntimeError(
                f"daemon exited {s.daemon.returncode} before becoming "
                f"ready (log: {s.serve_log})")
        try:  # the ready file is written atomically once it listens
            client = ServeClient(s.ready.read_text().strip(), timeout=30.0)
            status, payload = client.readyz()
        except (OSError, ServeError):
            return None
        return (client, payload) if status == 200 else None

    return _poll(ready, _SERVE_START_TIMEOUT_S,
                 f"the daemon to become ready (log: {s.serve_log})")


def _kill_group(pgid: int) -> None:
    """SIGKILL a process group (a daemon with its pool workers)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


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


def _drive_cli(s: Scenario) -> None:
    """Run the faulted campaign, restarting it with ``--resume`` each time
    an injected fault kills it."""
    faulted = None
    for _attempt in range(s.args.max_restarts + 1):
        argv = (_campaign_argv(s.args, s.chaos_store, s.seeds[0])
                + s.fault_flags)
        resume = _resume_id(s.chaos_store)
        if resume is not None:
            argv += ["--resume", resume]
        faulted = _run(argv, s.env)
        if faulted.returncode == 0:
            s.faulted = [faulted.stdout]
            s.out(f"[repro chaos] faulted campaign completed after "
                  f"{s.restarts} restart(s)")
            return
        s.restarts += 1
        s.out(f"[repro chaos] campaign killed (exit {faulted.returncode}); "
              f"restart {s.restarts} "
              f"{'resuming ' + resume if resume else 'fresh'}")
    raise RuntimeError(f"campaign still failing after {s.args.max_restarts} "
                       f"restarts\n{faulted.stderr if faulted else ''}")


def _drive_serve(s: Scenario) -> None:
    """Run the faulted campaign as a served job, restarting the daemon
    and resubmitting each time a ``host=1`` fault kills it; the daemon's
    store resume picks the interrupted run back up."""
    from repro.serve.client import ServeError

    params = _job_params(s.args, s.seeds[0])
    for _attempt in range(s.args.max_restarts + 1):
        if s.daemon is None or s.daemon.poll() is not None:
            client, _ = _start_daemon(s)
        try:  # after a restart the replayed job may take the submission
            status, payload = client.submit("campaign", params)
            if status not in (200, 201):
                raise RuntimeError(f"the daemon rejected the campaign job "
                                   f"({status}: {payload})")
            job = _job_reaching(client, payload["job"]["job_id"], _TERMINAL,
                                _SUBPROCESS_TIMEOUT_S)
        except (ServeError, OSError) as exc:  # the daemon died under us
            job = {"state": "lost", "error": exc}
        if job["state"] == "completed":
            s.faulted = [(job.get("result") or {}).get("report", "")]
            s.out(f"[repro chaos] faulted campaign completed through the "
                  f"daemon after {s.restarts} restart(s)/resubmission(s)")
            return
        s.restarts += 1
        try:  # give an injected kill a moment to register
            code = s.daemon.wait(timeout=10)
            s.out(f"[repro chaos] daemon killed (exit {code}); restart "
                  f"{s.restarts}, resubmitting")
        except subprocess.TimeoutExpired:
            s.out(f"[repro chaos] job ended {job['state']}: "
                  f"{job.get('error')}; resubmission {s.restarts}")
    raise RuntimeError(f"no completed job after {s.args.max_restarts} "
                       f"restarts (daemon log: {s.serve_log})")


def _submit_new(client, params: dict) -> str:
    status, payload = client.submit("campaign", params)
    if status != 201:
        raise RuntimeError(f"the job for seed {params['seed']} was not "
                           f"accepted ({status}: {payload})")
    return payload["job"]["job_id"]


def _job_reaching(client, job_id: str, states, timeout_s: float) -> dict:
    def reached():
        job = client.job(job_id)
        return job if job["state"] in states else None

    return _poll(reached, timeout_s,
                 f"job {job_id} to reach {'/'.join(sorted(states))}")


def _drive_kill(s: Scenario) -> None:
    """Stage job A running (held mid-chunk by the hang fault), job B
    queued behind it and a duplicate of A attached; SIGKILL the daemon
    alone, as the OOM killer would; restart it on the same store and let
    journal replay finish both jobs."""
    params = [_job_params(s.args, seed) for seed in s.seeds]
    client, _ = _start_daemon(s)
    job_a = _submit_new(client, params[0])
    _job_reaching(client, job_a, {"running"}, 30.0)
    # a running job writes its run manifest only once its thread has set
    # up, and a kill before that would leave nothing to resume
    _poll(lambda: _resume_id(s.chaos_store), 30.0,
          f"a campaign run to open in {s.chaos_store}")
    # the manifest can precede the job's worker pool; hold the kill until
    # a pool worker is up, or the leg cannot show that workers die with
    # the daemon (no worker at the kill fails _pool_workers_exited)
    pgid = s.daemon.pid
    try:
        s.facts["workers"] = _poll(
            lambda: [pid for pid in _live_group_members(pgid) if pid != pgid],
            30.0, "a pool worker to start under the daemon")
    except RuntimeError:
        s.facts["workers"] = []
    job_b = _submit_new(client, params[1])
    s.facts.update(jobs=[job_a, job_b],
                   attaches=[client.submit("campaign", params[0])])
    s.out(f"[repro chaos] staged: {job_a} running, {job_b} queued, "
          f"one deduplicated attach; sending SIGKILL")

    # the daemon alone: its pool workers must notice and exit on their own
    s.daemon.kill()
    s.daemon.wait()
    try:
        _poll(lambda: not _live_group_members(pgid), _ORPHAN_EXIT_TIMEOUT_S,
              "the killed daemon's pool workers to exit")
    except RuntimeError:
        s.facts["orphans"] = _live_group_members(pgid)
        _kill_group(pgid)
    else:
        s.out(f"[repro chaos] pool workers exited with the killed daemon "
              f"({len(s.facts['workers'])})")

    client, readyz = _start_daemon(s)
    s.facts["replay"] = readyz.get("journal", {})
    s.out(f"[repro chaos] journal replay after restart: {s.facts['replay']}")
    s.facts["attaches"].append(client.submit("campaign", params[0]))
    s.facts["finals"] = [
        _job_reaching(client, job_id, _TERMINAL, _SUBPROCESS_TIMEOUT_S)
        for job_id in (job_a, job_b)]
    s.faulted = [(job.get("result") or {}).get("report", "")
                 for job in s.facts["finals"]]


def _incidents_accounted(s: Scenario) -> list[str]:
    """The schedule injected something, the final manifest's
    ``fault.<point>`` counters equal the ledger's incidents, and a torn
    ``store.*`` write left at least one quarantined artifact."""
    s.out("[repro chaos] injected incidents (ledger):")
    for point, count in sorted(s.injected.items()):
        s.out(f"  {point}: {count}")
    if not s.injected:
        return ["the schedule injected nothing — the run never reached "
                "its fault points"]
    final = s.completed[0]
    problems = [f"manifest counter fault.{point} is "
                f"{final.counters.get(f'fault.{point}')}, ledger says {count}"
                for point, count in s.injected.items()
                if final.counters.get(f"fault.{point}") != count]
    quarantined = final.counters.get("artifacts_quarantined", 0)
    s.out(f"[repro chaos] final manifest: run {final.run_id}, "
          f"{quarantined} artifact(s) quarantined")
    if not quarantined and any(p.startswith("store.") for p in s.injected):
        problems.append("a store write was torn but nothing was quarantined")
    return problems


def _reports_identical(s: Scenario) -> list[str]:
    """Each faulted report equals its clean run's, line for line."""
    import difflib  # only a failing run needs it; keep CLI start-up lean

    problems = []
    for seed, clean, faulted in zip(s.seeds, s.clean, s.faulted):
        clean_lines = _report_lines(clean)
        fault_lines = _report_lines(faulted or "")
        if clean_lines == fault_lines:
            continue
        problems.append(f"faulted statistics for seed {seed} differ from "
                        "the clean run")
        for line in difflib.unified_diff(clean_lines, fault_lines, "clean",
                                         "faulted", lineterm="", n=0):
            s.out(f"  {line}")
    return problems


def _sigterm_drains(s: Scenario) -> list[str]:
    """SIGTERM drains the daemon to exit 0 within the window."""
    s.daemon.send_signal(signal.SIGTERM)
    try:
        code = s.daemon.wait(timeout=_DRAIN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [f"daemon did not exit within {_DRAIN_TIMEOUT_S:g}s of "
                "SIGTERM"]
    return [] if code == 0 else [f"daemon exited {code} on SIGTERM "
                                 "(expected 0)"]


def _no_leaked_segments(s: Scenario) -> list[str]:
    """Every faulted process is gone, so any surviving repro-shm segment
    is a leak the recovery story missed."""
    from repro.core.shm import orphaned_segments

    leaked = orphaned_segments()
    return ["orphaned shared-memory segments after recovery: "
            + ", ".join(leaked)] if leaked else []


def _pool_workers_exited(s: Scenario) -> list[str]:
    """Pool workers were up at the SIGKILL, and exited on their own."""
    if not s.facts.get("workers"):
        return ["no pool workers were up at the kill, so the leg did not "
                "test that they exit with the daemon"]
    orphans = s.facts.get("orphans")
    return [f"pool workers {orphans} outlived the killed daemon by "
            f"{_ORPHAN_EXIT_TIMEOUT_S:g}s"] if orphans else []


#: what journal replay must report after the kill: A (running) and B
#: (queued) requeued, A flagged recovered-from-running, nothing terminal
_EXPECTED_REPLAY = {"requeued": 2, "recovered_running": 1, "terminal": 0}


def _replay_requeued_both(s: Scenario) -> list[str]:
    replay = s.facts["replay"]
    return [f"journal replay counted {key}={replay.get(key)}, expected "
            f"{want}" for key, want in _EXPECTED_REPLAY.items()
            if replay.get(key) != want]


def _dedupe_held(s: Scenario) -> list[str]:
    """A's content key attached to the original job id, before the kill
    and again after the restart (dedupe survives the crash)."""
    job_a = s.facts["jobs"][0]
    return [f"a duplicate submission {when} did not attach to {job_a} "
            f"({status}: {payload.get('job', {}).get('job_id')})"
            for when, (status, payload) in zip(
                ("before the kill", "after the restart"), s.facts["attaches"])
            if not (status == 200 and payload.get("deduped")
                    and payload.get("job", {}).get("job_id") == job_a)]


def _jobs_recovered(s: Scenario) -> list[str]:
    """Both jobs completed, and A resumed its interrupted run."""
    finals = s.facts["finals"]
    problems = [f"job {job['job_id']} ended {job['state']}: "
                f"{job.get('error')}"
                for job in finals if job["state"] != "completed"]
    job_a = finals[0]
    if job_a.get("recovered") is not True:
        problems.append(f"job {job_a['job_id']} was not flagged as "
                        "recovered from a mid-run crash")
    if job_a["state"] == "completed" and \
            not (job_a.get("result") or {}).get("resumed_from"):
        problems.append(f"job {job_a['job_id']} recomputed from scratch "
                        "instead of resuming its interrupted run")
    return problems


def _no_duplicate_computation(s: Scenario) -> list[str]:
    """One completed manifest per seed, each job's ``run_id`` among them,
    and a compacted journal (read after the drain) of terminal jobs only,
    whose run ids are exactly the manifests' — journal/manifest parity."""
    problems = []
    run_ids = {m.run_id for m in s.completed}
    if len(s.completed) != len(s.seeds):
        problems.append(f"{len(s.completed)} completed campaign manifests "
                        f"in the store, expected exactly {len(s.seeds)} "
                        "(duplicate or lost computation)")
    for job in s.facts["finals"]:
        run_id = (job.get("result") or {}).get("run_id")
        if run_id not in run_ids:
            problems.append(f"job {job['job_id']} result run {run_id} has "
                            "no completed manifest")
    jobs = s.journal.jobs
    if s.journal.requeued != 0 or len(jobs) != len(s.seeds):
        problems.append(
            f"compacted journal replays {len(jobs)} jobs with "
            f"{s.journal.requeued} requeued, expected {len(s.seeds)} "
            "terminal jobs and 0 requeued")
    journal_runs = {(job.result or {}).get("run_id") for job in jobs}
    if journal_runs != run_ids:
        problems.append(f"journal result runs "
                        f"{sorted(map(str, journal_runs))} != completed "
                        f"manifests {sorted(run_ids)}")
    return problems


@dataclass(frozen=True)
class Leg:
    """What one chaos scenario does differently from the others."""

    default_spec: str
    #: the faulted phase: fills ``Scenario.faulted``, one report per seed
    drive: Callable[[Scenario], None]
    #: run in order after ``drive``; each returns problem strings
    verdicts: tuple[Callable[[Scenario], list[str]], ...]
    #: the PASS line's text
    passed: Callable[[Scenario], str]
    #: clean seeds compared: ``--seed`` onwards
    seeds: int = 1
    #: appended to the schedule line
    banner: str = ""


def _fault_tally(s: Scenario) -> str:
    return (f"{sum(s.injected.values())} injected fault(s) across "
            f"{len(s.injected)} point(s)")


LEGS = {
    "cli": Leg(
        DEFAULT_SPEC, _drive_cli,
        (_incidents_accounted, _no_leaked_segments, _reports_identical),
        lambda s: f"{_fault_tally(s)}, {s.restarts} restart(s), "
                  "statistics bit-identical to the clean run"),
    "serve": Leg(
        DEFAULT_SERVE_SPEC, _drive_serve,
        (_incidents_accounted, _reports_identical, _sigterm_drains,
         _no_leaked_segments),
        lambda s: f"{_fault_tally(s)}, {s.restarts} daemon restart(s), "
                  "served statistics bit-identical to the clean run",
        banner=" (daemon-hosted)"),
    "kill-daemon": Leg(
        KILL_SERVE_SPEC, _drive_kill,
        (_pool_workers_exited, _replay_requeued_both, _dedupe_held,
         _jobs_recovered, _reports_identical, _sigterm_drains,
         _no_duplicate_computation, _no_leaked_segments),
        lambda s: "SIGKILL with 1 running + 1 queued + 1 deduplicated "
                  "job; journal replay requeued both, dedupe held the "
                  "original job id, statistics bit-identical to the "
                  "clean runs, no duplicate computation, clean SIGTERM "
                  "left a compacted journal",
        seeds=2, banner=" + daemon SIGKILL"),
}


def _select(args) -> tuple[Leg, str]:
    """The leg ``--serve``/``--kill-daemon`` pick, and its schedule:
    ``--inject-faults`` when given, else the leg's default."""
    leg = LEGS["kill-daemon" if args.kill_daemon
               else "serve" if args.serve else "cli"]
    spec = args.inject_faults
    return leg, leg.default_spec if spec is None else spec


def cmd_chaos(args, out=print) -> int:
    """Run ``repro chaos``: clean campaigns, the leg's faulted phase, its
    verdicts; returns a process exit code."""
    leg, spec = _select(args)
    try:
        FaultPlan.parse(spec)  # fail fast, before any scratch or process
    except FaultSpecError as exc:
        out(f"repro chaos: error: bad fault spec: {exc}")
        return 2

    s = Scenario(args, spec,
                 Path(tempfile.mkdtemp(prefix="repro-chaos-")),
                 tuple(range(args.seed, args.seed + leg.seeds)), out,
                 _scrubbed_env())
    try:
        out(f"[repro chaos] schedule: {spec}{leg.banner}")
        out(f"[repro chaos] scratch dir: {s.work}")
        problems = _problems(leg, s)
        for problem in problems:
            out(f"[repro chaos] FAIL: {problem}")
        if problems:
            return 1
        out(f"[repro chaos] PASS: {leg.passed(s)}")
        return 0
    finally:
        if s.daemon is not None and s.daemon.poll() is None:
            _kill_group(s.daemon.pid)
            s.daemon.wait()
        if args.keep:
            out(f"[repro chaos] kept scratch dir {s.work}")
        else:
            shutil.rmtree(s.work, ignore_errors=True)


def _problems(leg: Leg, s: Scenario) -> list[str]:
    """Clean runs, the faulted phase, then every verdict's problems; a
    RuntimeError on the way is the one problem."""
    from repro.core.shm import orphaned_segments

    try:
        for seed in s.seeds:
            clean = _run(_campaign_argv(s.args, s.clean_store, seed), s.env)
            if clean.returncode != 0:
                raise RuntimeError(
                    f"the clean (fault-free) campaign for seed {seed} "
                    f"exited {clean.returncode}\n{clean.stderr}")
            s.clean.append(clean.stdout)
        if leaked := orphaned_segments():
            raise RuntimeError("the clean campaign leaked shared-memory "
                               f"segments: {', '.join(leaked)}")
        leg.drive(s)
        return [problem for verdict in leg.verdicts
                for problem in verdict(s)]
    except RuntimeError as exc:
        return [str(exc)]
