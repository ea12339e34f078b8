"""Process-exit cleanup: shutdown hooks, arena release, worker signal
reset, and pool workers exiting with a host killed on its own."""

import os
import signal as signal_module
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import pool as pool_module
from repro.core import shm as shm_module
from repro.core.pool import (
    install_shutdown_hooks,
    pool_worker_init,
    release_runtime_resources,
)
from repro.core.shm import ShmArena, release_arenas


@pytest.fixture
def hook_state(monkeypatch):
    """Fresh hook-installation state with signal/atexit stubbed out."""
    installed = {}
    registered = []
    monkeypatch.setattr(pool_module, "_HOOKS_INSTALLED", False)
    monkeypatch.setattr(pool_module, "_PREVIOUS_HANDLERS", {})
    monkeypatch.setattr(
        pool_module.signal, "signal",
        lambda signum, handler: installed.setdefault(signum, handler))
    monkeypatch.setattr(pool_module.atexit, "register", registered.append)
    return installed, registered


class TestInstallShutdownHooks:
    def test_installs_once(self, hook_state):
        installed, registered = hook_state
        assert install_shutdown_hooks() is True
        assert install_shutdown_hooks() is False  # idempotent
        assert registered == [release_runtime_resources]
        assert set(installed) == {signal_module.SIGTERM,
                                  signal_module.SIGINT}

    def test_handlers_installed_from_main_thread_only(self, hook_state,
                                                      monkeypatch):
        installed, registered = hook_state
        monkeypatch.setattr(
            pool_module.threading, "current_thread", lambda: object())
        assert install_shutdown_hooks() is True
        assert installed == {}  # no signal work off the main thread
        assert registered  # but atexit still covers normal exits


class TestSignalChaining:
    def test_callable_previous_handler_is_chained(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pool_module, "_PREVIOUS_HANDLERS",
                            {signal_module.SIGTERM:
                             lambda s, f: calls.append(s)})
        released = []
        monkeypatch.setattr(pool_module, "release_runtime_resources",
                            lambda: released.append(True))
        pool_module._on_shutdown_signal(signal_module.SIGTERM, None)
        assert released and calls == [signal_module.SIGTERM]

    def test_default_disposition_rekills(self, monkeypatch):
        monkeypatch.setattr(pool_module, "_PREVIOUS_HANDLERS",
                            {signal_module.SIGTERM: signal_module.SIG_DFL})
        monkeypatch.setattr(pool_module, "release_runtime_resources",
                            lambda: None)
        resets, kills = [], []
        monkeypatch.setattr(pool_module.signal, "signal",
                            lambda s, h: resets.append((s, h)))
        monkeypatch.setattr(pool_module.os, "kill",
                            lambda pid, s: kills.append((pid, s)))
        pool_module._on_shutdown_signal(signal_module.SIGTERM, None)
        assert resets == [(signal_module.SIGTERM, signal_module.SIG_DFL)]
        assert kills and kills[0][1] == signal_module.SIGTERM

    def test_sig_ign_swallows(self, monkeypatch):
        monkeypatch.setattr(pool_module, "_PREVIOUS_HANDLERS",
                            {signal_module.SIGINT: signal_module.SIG_IGN})
        monkeypatch.setattr(pool_module, "release_runtime_resources",
                            lambda: None)
        kills = []
        monkeypatch.setattr(pool_module.os, "kill",
                            lambda pid, s: kills.append(s))
        pool_module._on_shutdown_signal(signal_module.SIGINT, None)
        assert kills == []


class TestArenaRelease:
    def test_release_arenas_unlinks_live_segments(self):
        arena = ShmArena(1024)
        name = arena.name
        assert name in release_arenas()
        assert arena._segment is None
        assert name not in release_arenas()  # idempotent

    def test_release_skips_already_closed(self):
        arena = ShmArena(1024)
        arena.close()
        assert arena.name not in release_arenas()

    def test_release_runtime_resources_covers_pools_and_arenas(self,
                                                               monkeypatch):
        closed = []
        monkeypatch.setattr(pool_module, "close_warm_pools",
                            lambda: closed.append("pools"))
        arena = ShmArena(512)
        release_runtime_resources()
        assert closed == ["pools"]
        assert arena._segment is None


class TestPoolWorkerInit:
    def test_resets_wakeup_fd_and_dispositions(self, monkeypatch):
        wakeups, dispositions = [], []
        monkeypatch.setattr(pool_module.signal, "set_wakeup_fd",
                            wakeups.append)
        monkeypatch.setattr(pool_module.signal, "signal",
                            lambda s, h: dispositions.append((s, h)))
        pool_worker_init()
        assert wakeups == [-1]
        assert dispositions == [
            (signal_module.SIGTERM, signal_module.SIG_DFL),
            (signal_module.SIGINT, signal_module.SIG_DFL),
        ]

    def test_survives_restricted_environments(self, monkeypatch):
        def boom(*args):
            raise ValueError("not in main thread")

        monkeypatch.setattr(pool_module.signal, "set_wakeup_fd", boom)
        monkeypatch.setattr(pool_module.signal, "signal", boom)
        pool_worker_init()  # must not raise


#: a host that forks a two-worker pool, prints the worker pids, and
#: waits to be killed
_HOST_CODE = """
import os, time
from concurrent.futures import ProcessPoolExecutor
from repro.core.pool import pool_worker_init

def nap_pid(_):
    time.sleep(0.3)
    return os.getpid()

pool = ProcessPoolExecutor(max_workers=2, initializer=pool_worker_init)
pids = set()
while len(pids) < 2:
    pids.update(pool.map(nap_pid, range(2)))
print(*sorted(pids), flush=True)
time.sleep(120)
"""


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs a Linux /proc")
def test_pool_workers_exit_when_their_host_is_killed_alone():
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    host = subprocess.Popen([sys.executable, "-c", _HOST_CODE],
                            stdout=subprocess.PIPE, text=True, env=env)
    try:
        workers = [int(pid) for pid in host.stdout.readline().split()]
        assert len(workers) == 2
        assert all(_running(pid) for pid in workers)
        host.kill()  # the host alone: no shutdown, no group signal
        host.wait()
        deadline = time.monotonic() + 10.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in workers if _running(pid)]
    finally:
        host.kill()
        host.wait()
        host.stdout.close()
    for pid in orphans:
        os.kill(pid, signal_module.SIGKILL)
    assert orphans == []
