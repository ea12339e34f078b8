"""The chaos harness: one scenario runner over three legs.

The slow tests run each leg end to end — a seeded fault schedule over a
real campaign must recover, account for every incident, and reproduce
the clean run's statistics byte for byte.  The fast tests feed each
verdict made-up state through :func:`cmd_chaos` itself (clean campaigns
stubbed) and require its FAIL line, and none on good state."""

import argparse
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.core import shm
from repro.faults import chaos
from repro.faults.chaos import (
    DEFAULT_SERVE_SPEC,
    DEFAULT_SPEC,
    KILL_SERVE_SPEC,
    LEGS,
    Leg,
    _campaign_argv,
    _job_params,
    _live_group_members,
    _poll,
    _select,
    cmd_chaos,
)


def _args(**overrides) -> argparse.Namespace:
    base = dict(
        events=1200, runs=1, seed=2021, workers=2, engine="shm",
        inject_faults=None, faults_seed=7, max_restarts=8,
        chunk_timeout=None, keep=False, serve=False, kill_daemon=False,
    )
    base.update(overrides)
    return argparse.Namespace(**base)


def _chaos(**overrides) -> tuple[int, str]:
    lines = []
    code = cmd_chaos(_args(**overrides), out=lines.append)
    return code, "\n".join(lines)


def test_bad_spec_fails_fast_without_running_anything(capsys):
    assert cmd_chaos(_args(inject_faults="point:mode=nuke")) == 2
    out = capsys.readouterr().out
    assert "bad fault spec" in out
    assert "scratch dir" not in out  # rejected before any campaign ran


def test_kill_daemon_dispatch_fails_fast_on_a_bad_spec(capsys):
    # --kill-daemon routes to the SIGKILL leg, which validates the spec
    # before spawning any daemon or campaign.
    args = _args(inject_faults="point:mode=nuke", kill_daemon=True)
    assert cmd_chaos(args) == 2
    out = capsys.readouterr().out
    assert "bad fault spec" in out
    assert "scratch dir" not in out


def test_serve_dispatch_fails_fast_on_a_bad_spec(capsys):
    assert cmd_chaos(_args(inject_faults="point:mode=nuke", serve=True)) == 2
    out = capsys.readouterr().out
    assert "bad fault spec" in out
    assert "scratch dir" not in out


@pytest.mark.parametrize("flags,name,default", [
    ({}, "cli", DEFAULT_SPEC),
    ({"serve": True}, "serve", DEFAULT_SERVE_SPEC),
    ({"kill_daemon": True}, "kill-daemon", KILL_SERVE_SPEC),
    ({"serve": True, "kill_daemon": True}, "kill-daemon", KILL_SERVE_SPEC),
])
def test_explicit_spec_is_never_replaced(flags, name, default):
    # an unset --inject-faults takes the leg's default; any explicit
    # schedule, even another leg's stock one, runs as given
    assert _select(_args(**flags)) == (LEGS[name], default)
    for spec in (DEFAULT_SPEC, DEFAULT_SERVE_SPEC,
                 "pool.worker.crash:mode=raise,times=2"):
        assert _select(_args(inject_faults=spec, **flags)) == (LEGS[name],
                                                               spec)


def test_campaigns_get_the_engine_and_stats_forwarded(tmp_path):
    args = _args(engine="reference", chunk_timeout=2.5)
    argv = _campaign_argv(args, tmp_path, 2022)
    flags = dict(zip(argv[4::2], argv[5::2]))
    assert flags["--engine"] == "reference"
    assert (flags["--seed"], flags["--chunk-timeout"]) == ("2022", "2.5")
    # each engine has one statistics path, so there is none to forward
    assert "--stats" not in flags
    # the served job carries the same parameters
    params = _job_params(args, 2022)
    assert {f"--{k.replace('_', '-')}": str(v) for k, v in params.items()} \
        .items() <= flags.items()


def test_reference_engine_with_streaming_exits_2(capsys):
    # chaos takes no --stats: each engine has one statistics path
    with pytest.raises(SystemExit) as excinfo:
        main(["chaos", "--engine", "reference", "--stats", "streaming"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --stats streaming" in err
    assert "Traceback" not in err


def test_stats_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["chaos", "--stats", "streaming"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs a Linux /proc")
def test_group_watch_sees_a_process_group_until_it_exits():
    # what the kill leg uses to tell that a killed daemon's pool workers
    # exited on their own
    proc = subprocess.Popen([sys.executable, "-c",
                             "import time; time.sleep(60)"],
                            start_new_session=True)
    try:
        assert _live_group_members(proc.pid) == [proc.pid]
        with pytest.raises(RuntimeError, match="timed out after 0.2s"):
            _poll(lambda: not _live_group_members(proc.pid), 0.2, "exit")
    finally:
        proc.kill()
        proc.wait()
    assert _poll(lambda: not _live_group_members(proc.pid), 5.0, "exit")


def test_each_leg_runs_its_verdicts():
    # DESIGN.md's verdict table, in run order: the drain comes before the
    # journal and leak checks that depend on the daemon being gone
    assert LEGS["cli"].verdicts == (
        chaos._incidents_accounted, chaos._no_leaked_segments,
        chaos._reports_identical)
    assert LEGS["serve"].verdicts == (
        chaos._incidents_accounted, chaos._reports_identical,
        chaos._sigterm_drains, chaos._no_leaked_segments)
    assert LEGS["kill-daemon"].verdicts == (
        chaos._pool_workers_exited, chaos._replay_requeued_both,
        chaos._dedupe_held, chaos._jobs_recovered, chaos._reports_identical,
        chaos._sigterm_drains, chaos._no_duplicate_computation,
        chaos._no_leaked_segments)
    assert [leg.seeds for leg in LEGS.values()] == [1, 1, 2]


# ---------------------------------------------------------------------------
# Verdicts on made-up state, through the runner
# ---------------------------------------------------------------------------

CLEAN = "table 1: sbe 0.9\nfig 4: 0.25\n"


def _manifest(run_id="run-1", **counters):
    return SimpleNamespace(run_id=run_id, counters=counters)


class _Daemon:
    """A stand-in daemon that exits ``code`` on SIGTERM (``None``: never);
    it never reports itself running, so the runner never signals it."""

    def __init__(self, code=0):
        self.code = code

    def send_signal(self, sig):
        pass

    def wait(self, timeout=None):
        if self.code is None:
            raise subprocess.TimeoutExpired("daemon", timeout)
        return self.code

    def poll(self):
        return -9 if self.code is None else self.code


def _judge(monkeypatch, verdict, seeds=1, leaks=(), **state):
    """Run :func:`cmd_chaos` on a leg whose drive installs ``state`` and
    whose only verdict is ``verdict``; clean campaigns print ``CLEAN``.
    Returns the FAIL lines and the whole report."""
    monkeypatch.setattr(chaos, "_run", lambda argv, env: (
        subprocess.CompletedProcess(argv, 0, CLEAN, "")))
    # the first call is the clean-run check, the second the verdict's
    segments = iter([[], list(leaks)])
    monkeypatch.setattr(shm, "orphaned_segments", lambda: next(segments))
    state.setdefault("faulted", [CLEAN] * seeds)

    def drive(s):
        for name, value in state.items():
            setattr(s, name, value)

    monkeypatch.setitem(LEGS, "cli", Leg(DEFAULT_SPEC, drive, (verdict,),
                                         lambda s: "made-up", seeds=seeds))
    code, report = _chaos()
    fails = [line.split("FAIL: ", 1)[1] for line in report.splitlines()
             if "[repro chaos] FAIL: " in line]
    assert (code == 1) == bool(fails)
    assert ("PASS: made-up" in report) == (code == 0)
    return fails, report


STORE_POINT = "store.save_campaign.pre_rename"


@pytest.mark.parametrize("state,fail", [
    ({"injected": {}}, "the schedule injected nothing — the run never "
                       "reached its fault points"),
    ({"injected": {"pool.worker.crash": 2},
      "completed": [_manifest(**{"fault.pool.worker.crash": 1})]},
     "manifest counter fault.pool.worker.crash is 1, ledger says 2"),
    ({"injected": {STORE_POINT: 1},
      "completed": [_manifest(**{f"fault.{STORE_POINT}": 1,
                                 "artifacts_quarantined": 0})]},
     "a store write was torn but nothing was quarantined"),
    ({"injected": {STORE_POINT: 1},
      "completed": [_manifest(**{f"fault.{STORE_POINT}": 1,
                                 "artifacts_quarantined": 1})]}, None),
    ({"injected": {"pool.worker.crash": 1},
      "completed": [_manifest(**{"fault.pool.worker.crash": 1})]}, None),
])
def test_incident_accounting_verdict(monkeypatch, state, fail):
    fails, _ = _judge(monkeypatch, chaos._incidents_accounted, **state)
    assert fails == ([fail] if fail else [])


def test_differing_reports_fail_and_show_the_lines(monkeypatch):
    faulted = CLEAN.replace("0.25", "0.26")
    fails, report = _judge(monkeypatch, chaos._reports_identical,
                           faulted=[faulted])
    assert fails == ["faulted statistics for seed 2021 differ from the "
                     "clean run"]
    assert "  -fig 4: 0.25" in report and "  +fig 4: 0.26" in report
    fails, _ = _judge(monkeypatch, chaos._reports_identical, seeds=2,
                      faulted=[CLEAN, ""])
    assert fails == ["faulted statistics for seed 2022 differ from the "
                     "clean run"]
    assert _judge(monkeypatch, chaos._reports_identical)[0] == []


@pytest.mark.parametrize("code,fail", [
    (0, None),
    (3, "daemon exited 3 on SIGTERM (expected 0)"),
    (None, "daemon did not exit within 60s of SIGTERM"),
])
def test_sigterm_drain_verdict(monkeypatch, code, fail):
    fails, _ = _judge(monkeypatch, chaos._sigterm_drains,
                      daemon=_Daemon(code))
    assert fails == ([fail] if fail else [])


def test_leaked_segments_fail(monkeypatch):
    fails, _ = _judge(monkeypatch, chaos._no_leaked_segments,
                      leaks=["repro-shm-99999-0"])
    assert fails == ["orphaned shared-memory segments after recovery: "
                     "repro-shm-99999-0"]
    assert _judge(monkeypatch, chaos._no_leaked_segments)[0] == []


def test_a_clean_campaign_failure_or_leak_stops_the_run(monkeypatch):
    monkeypatch.setattr(chaos, "_run", lambda argv, env: (
        subprocess.CompletedProcess(argv, 2, "", "boom")))
    code, report = _chaos()
    assert code == 1
    assert ("FAIL: the clean (fault-free) campaign for seed 2021 exited 2"
            in report)
    monkeypatch.setattr(chaos, "_run", lambda argv, env: (
        subprocess.CompletedProcess(argv, 0, CLEAN, "")))
    monkeypatch.setattr(shm, "orphaned_segments", lambda: ["repro-shm-1"])
    code, report = _chaos()
    assert code == 1
    assert ("FAIL: the clean campaign leaked shared-memory segments: "
            "repro-shm-1" in report)
    assert "faulted" not in report  # the faulted side never ran


# What the kill-daemon leg's drive records on a good run: A and B both
# completed (A recovered and resumed), each with its own manifest, and a
# compacted journal of the same two runs.
_JOBS = ["job-a", "job-b"]
_ATTACH = (200, {"deduped": True, "job": {"job_id": "job-a"}})


def _final(job_id, run_id, **extra):
    return {"job_id": job_id, "state": "completed",
            "result": {"run_id": run_id, "report": CLEAN,
                       "resumed_from": "run-0" if job_id == "job-a"
                       else None},
            **extra}


def _kill_state(**facts):
    base = {
        "jobs": _JOBS, "workers": [4243], "orphans": [],
        "replay": {"requeued": 2, "recovered_running": 1, "terminal": 0},
        "attaches": [_ATTACH, _ATTACH],
        "finals": [_final("job-a", "run-a", recovered=True),
                   _final("job-b", "run-b")],
    }
    base.update(facts)
    return {
        "facts": base,
        "completed": [_manifest("run-b"), _manifest("run-a")],
        "journal": SimpleNamespace(requeued=0, jobs=[
            SimpleNamespace(result={"run_id": "run-a"}),
            SimpleNamespace(result={"run_id": "run-b"})]),
    }


@pytest.mark.parametrize("verdict", [
    chaos._pool_workers_exited, chaos._replay_requeued_both,
    chaos._dedupe_held, chaos._jobs_recovered,
    chaos._no_duplicate_computation,
])
def test_kill_verdicts_pass_a_good_run(monkeypatch, verdict):
    assert _judge(monkeypatch, verdict, seeds=2, **_kill_state())[0] == []


@pytest.mark.parametrize("verdict,facts,fail", [
    (chaos._pool_workers_exited, {"orphans": [4242]},
     "pool workers [4242] outlived the killed daemon by 10s"),
    (chaos._replay_requeued_both,
     {"replay": {"requeued": 1, "recovered_running": 1, "terminal": 0}},
     "journal replay counted requeued=1, expected 2"),
    (chaos._replay_requeued_both,
     {"replay": {"requeued": 2, "recovered_running": 0, "terminal": 0}},
     "journal replay counted recovered_running=0, expected 1"),
    (chaos._replay_requeued_both,
     {"replay": {"requeued": 2, "recovered_running": 1, "terminal": 1}},
     "journal replay counted terminal=1, expected 0"),
    (chaos._dedupe_held,
     {"attaches": [(201, {"job": {"job_id": "job-c"}}), _ATTACH]},
     "a duplicate submission before the kill did not attach to job-a "
     "(201: job-c)"),
    (chaos._dedupe_held,
     {"attaches": [_ATTACH, (200, {"deduped": True,
                                   "job": {"job_id": "job-c"}})]},
     "a duplicate submission after the restart did not attach to job-a "
     "(200: job-c)"),
    (chaos._jobs_recovered,
     {"finals": [_final("job-a", "run-a", recovered=True),
                 dict(_final("job-b", None), state="failed",
                      error="boom")]},
     "job job-b ended failed: boom"),
    (chaos._jobs_recovered,
     {"finals": [_final("job-a", "run-a"), _final("job-b", "run-b")]},
     "job job-a was not flagged as recovered from a mid-run crash"),
    (chaos._jobs_recovered,
     {"finals": [dict(_final("job-a", "run-a", recovered=True),
                      result={"run_id": "run-a"}),
                 _final("job-b", "run-b")]},
     "job job-a recomputed from scratch instead of resuming its "
     "interrupted run"),
    (chaos._no_duplicate_computation,
     {"finals": [_final("job-a", "run-a", recovered=True),
                 _final("job-b", "run-x")]},
     "job job-b result run run-x has no completed manifest"),
    (chaos._pool_workers_exited, {"workers": []},
     "no pool workers were up at the kill, so the leg did not test that "
     "they exit with the daemon"),
])
def test_kill_verdicts_fail_on_bad_facts(monkeypatch, verdict, facts, fail):
    fails, _ = _judge(monkeypatch, verdict, seeds=2, **_kill_state(**facts))
    assert fails == [fail]


@pytest.mark.parametrize("tamper,fail", [
    (lambda st: st["completed"].append(_manifest("run-c")),
     "3 completed campaign manifests in the store, expected exactly 2 "
     "(duplicate or lost computation)"),
    (lambda st: setattr(st["journal"], "requeued", 1),
     "compacted journal replays 2 jobs with 1 requeued, expected 2 "
     "terminal jobs and 0 requeued"),
    (lambda st: st["journal"].jobs[1].result.update(run_id="run-z"),
     "journal result runs ['run-a', 'run-z'] != completed manifests "
     "['run-a', 'run-b']"),
])
def test_duplicate_computation_verdict(monkeypatch, tamper, fail):
    state = _kill_state()
    tamper(state)
    assert fail in _judge(monkeypatch, chaos._no_duplicate_computation,
                          seeds=2, **state)[0]


# ---------------------------------------------------------------------------
# Each leg end to end
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_default_schedule_recovers_bit_identically():
    code, report = _chaos()
    assert code == 0, report
    assert "PASS" in report
    assert "restart" in report
    assert "injected incidents (ledger):" in report
    assert "artifact(s) quarantined" in report
    # The stock schedule kills the host twice (torn campaign artifact and
    # torn checkpoint, both host=1), so recovery requires real restarts.
    assert "campaign killed" in report


@pytest.mark.slow
def test_shm_arena_leak_is_reclaimed_on_resume(monkeypatch):
    # shm.arena.create with host=1 kills the coordinator right after the
    # shared-memory segment exists — a deliberate leak.  The --resume
    # recovery must reclaim it (the harness fails on any surviving
    # repro-shm segment) and still end bit-identical to the clean run.
    # The only arena is the streamed sweep's damaged-entry broadcast,
    # made only when that set is non-empty: at seed 2021 it is empty up
    # to 10,000 events and holds 4 entries at 30,000.  A clean run takes
    # about 3 s, and the --resume campaign has been seen to spin without
    # end once, so each campaign invocation gets 60 s instead of the
    # harness's 120 s: a hang fails in a minute.
    monkeypatch.setattr(chaos, "_SUBPROCESS_TIMEOUT_S", 60.0)
    spec = ("pool.worker.crash:mode=exit,times=1;"
            "shm.arena.create:mode=exit,host=1,times=1")
    code, report = _chaos(events=30_000, inject_faults=spec)
    assert code == 0, report
    assert "PASS" in report
    assert "shm.arena.create: 1" in report
    assert "campaign killed" in report
    assert "statistics bit-identical to the clean run" in report


@pytest.mark.slow
def test_reference_engine_runs_materialized():
    # the scalar engine materializes every event, and the chaos
    # harness drives it like the default shm engine
    code, report = _chaos(
        engine="reference", events=600,
        inject_faults="pool.worker.crash:mode=exit,times=1")
    assert code == 0, report
    assert "PASS" in report
    assert "statistics bit-identical to the clean run" in report


@pytest.mark.slow
def test_raise_only_schedule_needs_no_restarts():
    # A non-destructive schedule (worker-side raise) recovers within one
    # invocation via the pool's requeue path: 0 restarts, same verdict.
    code, report = _chaos(inject_faults="pool.worker.crash:mode=raise,"
                                        "times=2")
    assert code == 0, report
    assert "PASS" in report
    assert "0 restart(s)" in report
    assert "fault(s) across 1 point(s)" in report


@pytest.mark.slow
def test_served_campaign_recovers_through_daemon_restarts():
    # The --serve leg: a killed worker plus a torn artifact write inside
    # the daemon (host=1 takes the daemon down) must recover across a
    # restart + resubmission, with served statistics bit-identical to a
    # direct CLI run and a clean SIGTERM drain.
    code, report = _chaos(serve=True)
    assert code == 0, report
    assert "(daemon-hosted)" in report
    assert "daemon killed" in report
    assert "artifact(s) quarantined" in report
    assert "served statistics bit-identical" in report


@pytest.mark.slow
def test_daemon_sigkill_recovers_through_the_journal():
    # SIGKILL with one job held mid-run (hang fault), one queued, and a
    # deduplicated attach recorded.  The restarted daemon must replay its
    # journal: both jobs requeued, dedupe preserved across the crash,
    # byte-identical statistics, and no duplicate computation.
    code, report = _chaos(kill_daemon=True)
    assert code == 0, report
    assert "PASS" in report
    assert "sending SIGKILL" in report
    assert "pool workers exited with the killed daemon" in report
    assert "journal replay after restart" in report
    assert "no duplicate computation" in report
    assert "compacted journal" in report
