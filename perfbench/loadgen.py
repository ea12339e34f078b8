"""``repro serve`` launch, readiness, and the closed-loop client load.

Clients speak plain HTTP/1.1 and server-sent events from the standard
library, the way any caller of the daemon's public API would; nothing
here imports ``repro``.  Each client thread submits a job, follows its
event stream to the terminal event, fetches the job (result and
timestamps) and only then submits the next one: a closed loop, as
``repro submit --watch`` callers make.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field

TERMINAL = ("completed", "failed", "cancelled")
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0


class LaunchError(RuntimeError):
    """The daemon did not come up."""


@dataclass
class Daemon:
    process: subprocess.Popen
    host: str
    port: int
    #: ``Popen`` to the first 200 from ``/v1/readyz``
    setup_s: float

    def request(self, method: str, path: str, body: dict | None = None):
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            payload = None if body is None else json.dumps(body)
            connection.request(method, path, body=payload, headers={
                "Content-Type": "application/json"})
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        return response.status, json.loads(data or b"{}")

    def peak_rss_kib(self) -> int:
        """``VmHWM`` of the daemon process: its own peak resident set."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise LaunchError("no VmHWM for the daemon")

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM, then wait for the clean drain; kill if it hangs.

        Stdout is already drained by the thread :func:`launch` started.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            return self.process.returncode


def launch(argv: list[str], env: dict, cwd: str) -> Daemon:
    """Start the daemon and return once ``/v1/readyz`` answers 200.

    The daemon prints its listening URL on stdout as soon as the socket
    is bound; readiness is then confirmed by the probe itself, so the
    measured set-up has no sleep-poll quantisation.
    """
    started = time.perf_counter()
    process = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                               cwd=cwd, text=True)
    try:
        url = None
        while url is None:
            line = process.stdout.readline()
            if not line:
                raise LaunchError(
                    f"daemon exited ({process.wait()}) before listening")
            if "listening on " in line:
                url = line.split("listening on ", 1)[1].split()[0]
        host, port = url.removeprefix("http://").rsplit(":", 1)
        daemon = Daemon(process, host, int(port), 0.0)
        while True:
            status, _ = daemon.request("GET", "/v1/readyz")
            if status == 200:
                break
            if time.perf_counter() - started > READY_TIMEOUT_S:
                raise LaunchError("daemon never became ready")
            time.sleep(0.001)
        daemon.setup_s = time.perf_counter() - started
        # the rest of stdout is a few status lines; drain it so the
        # daemon can never block on a full pipe
        threading.Thread(target=process.stdout.read, daemon=True).start()
        return daemon
    except BaseException:
        process.kill()
        process.wait()
        raise


def job_mix(seed: int, jobs: int, repeat_pool: int) -> list[int]:
    """Seeds for ``jobs`` submissions: half unique, half from a small
    fixed pool (so they attach to a running job or come back precached),
    in a seeded order."""
    rng = random.Random(seed)
    base = 1_000_000 + rng.randrange(1_000_000_000)
    pool = [base + index for index in range(repeat_pool)]
    unique = [base + repeat_pool + index for index in range(jobs - jobs // 2)]
    mix = unique + [rng.choice(pool) for _ in range(jobs // 2)]
    rng.shuffle(mix)
    return mix


@dataclass
class Submission:
    seed: int
    status: int = 0
    job_id: str | None = None
    deduped: bool = False
    precached: bool = False
    ack_s: float = 0.0
    latency_s: float = 0.0
    terminal: str | None = None
    #: ``time.time()`` when the terminal event arrived
    terminal_at: float = 0.0
    job: dict = field(default_factory=dict)
    error: str | None = None


def _follow(daemon: Daemon, job_id: str) -> str | None:
    """Read the job's SSE stream up to its terminal event."""
    connection = http.client.HTTPConnection(
        daemon.host, daemon.port, timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request("GET", f"/v1/jobs/{job_id}/events")
        response = connection.getresponse()
        if response.status != 200:
            return None
        event = None
        while True:
            line = response.fp.readline()
            if not line:
                return None
            text = line.decode().rstrip("\r\n")
            if text.startswith("event:"):
                event = text.split(":", 1)[1].strip()
            elif text.startswith("data:") and event in TERMINAL:
                return event
    finally:
        connection.close()


def _one(daemon: Daemon, sub: Submission, params: dict) -> None:
    started = time.perf_counter()
    status, body = daemon.request("POST", "/v1/jobs", {
        "kind": "evaluate", "params": {**params, "seed": sub.seed}})
    sub.ack_s = time.perf_counter() - started
    sub.status = status
    if status not in (200, 201):
        sub.error = f"submit answered {status}: {body.get('error')}"
        return
    sub.job_id = body["job"]["job_id"]
    sub.deduped = bool(body.get("deduped"))
    sub.precached = bool(body["job"].get("precached"))
    sub.terminal = _follow(daemon, sub.job_id)
    sub.terminal_at = time.time()
    sub.latency_s = time.perf_counter() - started
    status, body = daemon.request("GET", f"/v1/jobs/{sub.job_id}")
    if status == 200:
        sub.job = body["job"]
    else:
        sub.error = f"job fetch answered {status}"


def closed_loop(daemon: Daemon, seeds: list[int], clients: int,
                params: dict) -> tuple[list[Submission], float]:
    """Run every submission over ``clients`` threads; returns them in
    submission order with the loop's wall time."""
    subs = [Submission(seed) for seed in seeds]
    lock = threading.Lock()
    cursor = iter(subs)

    def client() -> None:
        while True:
            with lock:
                sub = next(cursor, None)
            if sub is None:
                return
            try:
                _one(daemon, sub, params)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                sub.error = f"{type(exc).__name__}: {exc}"

    threads = [threading.Thread(target=client) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=REQUEST_TIMEOUT_S * 3)
    wall = time.perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        raise LaunchError("client threads did not finish")
    return subs, wall


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
