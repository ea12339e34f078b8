"""The chaos harness end to end: a seeded fault schedule over a real
campaign must recover, account for every incident, and reproduce the
clean run's statistics byte for byte."""

import argparse
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults.chaos import (
    DEFAULT_SPEC,
    _campaign_argv,
    _live_group_members,
    _wait_group_gone,
    cmd_chaos,
    run_chaos,
    run_chaos_serve_kill,
)


def _args(**overrides) -> argparse.Namespace:
    base = dict(
        events=1200, runs=1, seed=2021, workers=2, engine="columnar",
        inject_faults=DEFAULT_SPEC, faults_seed=7, max_restarts=8,
        chunk_timeout=None, keep=False, serve=False, kill_daemon=False,
    )
    base.update(overrides)
    return argparse.Namespace(**base)


def test_bad_spec_fails_fast_without_running_anything(capsys):
    assert run_chaos(_args(inject_faults="point:mode=nuke")) == 2
    out = capsys.readouterr().out
    assert "bad fault spec" in out
    assert "scratch dir" not in out  # rejected before any campaign ran


@pytest.mark.slow
def test_default_schedule_recovers_bit_identically():
    lines = []
    assert run_chaos(_args(), out=lines.append) == 0
    report = "\n".join(lines)
    assert "PASS" in report
    assert "restart" in report
    assert "injected incidents (ledger):" in report
    # The stock schedule kills the host twice (torn campaign artifact and
    # torn checkpoint, both host=1), so recovery requires real restarts.
    assert any("campaign killed" in line for line in lines)


@pytest.mark.slow
def test_shm_arena_leak_is_reclaimed_on_resume():
    # shm.arena.create with host=1 kills the coordinator right after the
    # shared-memory segment exists — a deliberate leak.  The --resume
    # recovery must reclaim it (run_chaos fails on any surviving
    # repro-shm segment) and still end bit-identical to the clean run.
    # Only the materialized shm path ships results through an arena.
    lines = []
    spec = ("pool.worker.crash:mode=exit,times=1;"
            "shm.arena.create:mode=exit,host=1,times=1")
    assert run_chaos(
        _args(engine="shm", stats="materialize", inject_faults=spec),
        out=lines.append) == 0
    report = "\n".join(lines)
    assert "PASS" in report
    assert "shm.arena.create: 1" in report
    assert any("campaign killed" in line for line in lines)
    assert "statistics bit-identical to the clean run" in report


def test_campaigns_get_the_engine_and_stats_forwarded(tmp_path):
    argv = _campaign_argv(_args(engine="shm", stats="materialize"),
                          tmp_path)
    flags = dict(zip(argv[4::2], argv[5::2]))
    assert (flags["--engine"], flags["--stats"]) == ("shm", "materialize")
    # unset, the campaign picks the engine's default itself
    assert "--stats" not in _campaign_argv(_args(engine="shm"), tmp_path)


@pytest.mark.slow
def test_reference_engine_runs_materialized():
    # the scalar engine has no streaming path; unset --stats must not
    # hand it the streaming default
    lines = []
    assert run_chaos(
        _args(engine="reference", events=600,
              inject_faults="pool.worker.crash:mode=exit,times=1"),
        out=lines.append) == 0
    report = "\n".join(lines)
    assert "PASS" in report
    assert "statistics bit-identical to the clean run" in report


def test_reference_engine_with_streaming_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["chaos", "--engine", "reference", "--stats", "streaming"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "no streaming statistics path" in err
    assert "Traceback" not in err


def test_kill_daemon_dispatch_fails_fast_on_a_bad_spec(capsys):
    # --kill-daemon routes to the SIGKILL leg, which validates the spec
    # before spawning any daemon or campaign.
    args = _args(inject_faults="point:mode=nuke", kill_daemon=True)
    assert cmd_chaos(args) == 2
    out = capsys.readouterr().out
    assert "bad fault spec" in out
    assert "scratch dir" not in out


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
        assert _wait_group_gone(proc.pid, 0.2) == [proc.pid]
    finally:
        proc.kill()
        proc.wait()
    assert _wait_group_gone(proc.pid, 5.0) == []


@pytest.mark.slow
def test_daemon_sigkill_recovers_through_the_journal():
    # SIGKILL with one job held mid-run (hang fault), one queued, and a
    # deduplicated attach recorded.  The restarted daemon must replay its
    # journal: both jobs requeued, dedupe preserved across the crash,
    # byte-identical statistics, and no duplicate computation.
    lines = []
    assert run_chaos_serve_kill(_args(), out=lines.append) == 0
    report = "\n".join(lines)
    assert "PASS" in report
    assert "sending SIGKILL" in report
    assert "pool workers exited with the killed daemon" in report
    assert "journal replay after restart" in report
    assert "compacted journal" in report


@pytest.mark.slow
def test_raise_only_schedule_needs_no_restarts():
    # A non-destructive schedule (worker-side raise) recovers within one
    # invocation via the pool's requeue path: 0 restarts, same verdict.
    lines = []
    spec = "pool.worker.crash:mode=raise,times=2"
    assert run_chaos(_args(inject_faults=spec), out=lines.append) == 0
    report = "\n".join(lines)
    assert "PASS" in report
    assert "0 restart(s)" in report
    assert "fault(s) across 1 point(s)" in report
