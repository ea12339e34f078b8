"""Thin stdlib client for the ``repro serve`` daemon.

:class:`ServeClient` wraps ``http.client`` (one connection per request —
the daemon speaks ``Connection: close``) and exposes the API as plain
methods; :meth:`ServeClient.watch` parses the SSE stream into event
dicts.  The ``repro submit`` / ``repro jobs`` subcommands run here; their
parsers live in :mod:`repro.serve.options`.

Transient failures are survivable: connection-refused and 429
(queue-full) answers are retried with the pool's own
:class:`~repro.core.pool.RetryPolicy` exponential backoff (``--retries``
on the CLI; the sleep is injectable so tests run instantly), and
:meth:`ServeClient.watch` reconnects across daemon restarts by resuming
the SSE stream from its ``Last-Event-ID`` — the journal-backed daemon
keeps event ids monotonic across a crash, so the resume point stays
valid.

The daemon URL resolves, in order: explicit ``--url``, the
``REPRO_SERVE_URL`` environment variable, then the default
``http://127.0.0.1:8023``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import sys
import time
from urllib.parse import urlencode, urlsplit

from repro.core.pool import RetryPolicy
from repro.serve.options import DEFAULT_URL

__all__ = [
    "DEFAULT_URL",
    "ServeClient",
    "ServeError",
    "cmd_jobs",
    "cmd_submit",
]

#: events that end a watch
_TERMINAL = {"completed", "failed", "cancelled"}


class ServeError(RuntimeError):
    """The daemon could not be reached or answered with garbage.

    ``retryable`` marks the transient flavours (connection refused /
    reset, a restarting daemon) that back off and try again; protocol
    garbage and HTTP error answers stay fatal.
    """

    def __init__(self, message: str, *, retryable: bool = False) -> None:
        super().__init__(message)
        self.retryable = retryable


def resolve_url(url: str | None = None) -> str:
    return (url or os.environ.get("REPRO_SERVE_URL") or DEFAULT_URL).rstrip("/")


class ServeClient:
    """One daemon endpoint; every call opens a fresh connection.

    ``retries`` extra attempts are made for retryable failures
    (connection errors and 429 backpressure), spaced by
    ``retry_policy.backoff_s``.  ``sleep`` and ``draw`` are injection
    seams: tests substitute a recording no-op sleep and a constant
    jitter draw to assert the backoff schedule deterministically.
    """

    def __init__(self, url: str | None = None, *,
                 timeout: float = 30.0, retries: int = 0,
                 retry_policy: RetryPolicy | None = None,
                 sleep=None, draw=None) -> None:
        self.url = resolve_url(url)
        split = urlsplit(self.url)
        if split.scheme != "http" or not split.hostname:
            raise ServeError(f"unsupported daemon URL {self.url!r} "
                             f"(need http://host:port)")
        self.host = split.hostname
        self.port = split.port or 8023
        self.timeout = timeout
        self.retries = max(int(retries), 0)
        self.retry_policy = retry_policy or RetryPolicy()
        self._sleep = sleep if sleep is not None else time.sleep
        self._draw = draw if draw is not None else random.random

    def _connect(self, timeout: float | None = None):
        return http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout)

    def _backoff(self, failures: int) -> None:
        """Sleep before retry number ``failures`` (1-based)."""
        self._sleep(self.retry_policy.backoff_s(failures, self._draw()))

    def request(self, method: str, path: str, body: dict | None = None,
                *, retries: int | None = None) -> tuple[int, dict]:
        """One JSON round-trip; returns ``(status, payload)``.

        Connection failures and 429 answers are retried up to
        ``retries`` times (default: the client's setting) with
        exponential backoff; the last outcome is surfaced either way.
        """
        attempts = (self.retries if retries is None else retries) + 1
        for attempt in range(attempts):
            final = attempt == attempts - 1
            if attempt:
                self._backoff(attempt)
            try:
                status, payload = self._request_once(method, path, body)
            except ServeError as exc:
                if final or not exc.retryable:
                    raise
                continue
            if status == 429 and not final:
                continue
            return status, payload
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(self, method: str, path: str,
                      body: dict | None) -> tuple[int, dict]:
        conn = self._connect()
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload \
                else {}
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                raise ServeError(
                    f"cannot reach repro serve at {self.url}: {exc}",
                    retryable=True) from exc
            try:
                decoded = json.loads(raw.decode() or "{}")
            except ValueError as exc:
                raise ServeError(
                    f"non-JSON response from {self.url} "
                    f"({response.status}): {raw[:200]!r}") from exc
            return response.status, decoded
        finally:
            conn.close()

    # -- API calls ------------------------------------------------------------
    def health(self) -> dict:
        return self._expect_ok("GET", "/v1/healthz")

    def readyz(self) -> tuple[int, dict]:
        """Readiness probe: ``(200, {...})`` once the journal is
        replayed and the daemon is dispatching, 503 before/while not."""
        return self.request("GET", "/v1/readyz", retries=0)

    def stats(self) -> dict:
        return self._expect_ok("GET", "/v1/stats")

    def submit(self, kind: str, params: dict | None = None, *,
               tenant: str = "default", priority: int = 0,
               deadline_s: float | None = None) -> tuple[int, dict]:
        """Submit a job; returns the raw ``(status, payload)`` pair.

        201 = newly queued, 200 = attached to an identical in-flight or
        queued job (dedupe), 429 = queue full (payload carries
        ``retry_after_s``; retried automatically when the client has
        retries configured).  ``deadline_s`` is a wall-clock budget from
        submission; the daemon cancels the job once it is exceeded.
        """
        body = {
            "kind": kind, "params": params or {},
            "tenant": tenant, "priority": priority,
        }
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        return self.request("POST", "/v1/jobs", body)

    def jobs(self, *, tenant: str | None = None,
             state: str | None = None) -> list[dict]:
        query = {k: v for k, v in (("tenant", tenant),
                                   ("state", state)) if v}
        path = "/v1/jobs" + (f"?{urlencode(query)}" if query else "")
        return self._expect_ok("GET", path)["jobs"]

    def job(self, job_id: str) -> dict:
        return self._expect_ok("GET", f"/v1/jobs/{job_id}")["job"]

    def cancel(self, job_id: str) -> tuple[int, dict]:
        """``DELETE /v1/jobs/<id>``: 200 cancelled, 202 cancelling
        (running — the job thread unwinds at its next heartbeat), 409
        already terminal."""
        return self.request("DELETE", f"/v1/jobs/{job_id}")

    def watch(self, job_id: str, *, timeout: float = 3600.0,
              reconnects: int = 5):
        """Yield SSE event dicts until the job reaches a terminal state.

        Each yielded dict is ``{"id", "event", "data"}`` with ``data``
        JSON-decoded.  History is replayed first, so watching a finished
        job still yields its full event trail.

        If the stream drops without a terminal event (daemon restart),
        the watch reconnects up to ``reconnects`` times with backoff,
        sending ``Last-Event-ID`` so already-seen events are not
        replayed — the daemon keeps event ids monotonic across restarts,
        so the resume point survives a crash.
        """
        last_id = 0
        failures = 0
        while True:
            got_events = False
            try:
                for event in self._watch_once(job_id, last_id, timeout):
                    failures = 0
                    got_events = True
                    if isinstance(event.get("id"), int):
                        last_id = max(last_id, event["id"])
                    yield event
                    if event["event"] in _TERMINAL:
                        return
                # Stream closed with no terminal event: a daemon going
                # down mid-watch.  Treat like a connection failure.
                raise ServeError(
                    f"event stream for {job_id} ended early",
                    retryable=True)
            except ServeError as exc:
                if not exc.retryable or failures >= reconnects:
                    if got_events or not exc.retryable:
                        # surfacing nothing after events flowed would
                        # look like a server-side close; just end
                        return
                    raise
                failures += 1
                self._backoff(failures)

    def _watch_once(self, job_id: str, last_id: int, timeout: float):
        """One SSE connection's worth of events (ends on close)."""
        conn = self._connect(timeout=timeout)
        try:
            headers = {}
            if last_id:
                headers["Last-Event-ID"] = str(last_id)
            try:
                conn.request("GET", f"/v1/jobs/{job_id}/events",
                             headers=headers)
                response = conn.getresponse()
            except (OSError, http.client.HTTPException) as exc:
                raise ServeError(
                    f"cannot reach repro serve at {self.url}: {exc}",
                    retryable=True) from exc
            if response.status != 200:
                raw = response.read()
                raise ServeError(self._error_text(response.status, raw))
            event: dict = {}
            while True:
                try:
                    line = response.readline()
                except (OSError, http.client.HTTPException):
                    return  # connection dropped mid-stream
                if not line:
                    return
                line = line.decode().rstrip("\r\n")
                if not line:
                    if "event" in event:
                        yield event
                    event = {}
                    continue
                if line.startswith(":"):  # keepalive comment
                    continue
                field, _, value = line.partition(":")
                value = value.removeprefix(" ")
                if field == "id":
                    event["id"] = int(value)
                elif field == "event":
                    event["event"] = value
                elif field == "data":
                    try:
                        event["data"] = json.loads(value)
                    except ValueError:
                        event["data"] = value
        finally:
            conn.close()

    def _expect_ok(self, method: str, path: str) -> dict:
        status, payload = self.request(method, path)
        if status != 200:
            raise ServeError(self._error_text(status, payload))
        return payload

    def _error_text(self, status: int, payload) -> str:
        if isinstance(payload, dict):
            detail = payload.get("error", payload)
        elif isinstance(payload, bytes):
            try:
                detail = json.loads(payload.decode() or "{}").get(
                    "error", payload[:200])
            except ValueError:
                detail = payload[:200]
        else:
            detail = payload
        return f"repro serve at {self.url} answered {status}: {detail}"


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------

def _parse_param(pair: str) -> tuple[str, object]:
    name, sep, raw = pair.partition("=")
    if not sep or not name:
        raise SystemExit(
            f"repro submit: error: parameters are NAME=VALUE, got {pair!r}")
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw  # bare strings (e.g. scheme=on_die_ecc) stay strings
    return name, value


def _watch_to_end(client: ServeClient, job_id: str,
                  timeout: float) -> int:
    """Follow a job's events; report to stdout, progress to stderr."""
    final = None
    for event in client.watch(job_id, timeout=timeout):
        name, data = event["event"], event.get("data", {})
        if name == "progress":
            print(data.get("line", ""), file=sys.stderr, flush=True)
        elif name in _TERMINAL:
            final = (name, data)
        else:
            print(f"[repro submit] {name}: {json.dumps(data, sort_keys=True)}",
                  file=sys.stderr, flush=True)
    if final is None:
        print(f"[repro submit] event stream for {job_id} ended without a "
              f"terminal event", file=sys.stderr)
        return 1
    name, data = final
    if name == "completed":
        job = client.job(job_id)
        report = (job.get("result") or {}).get("report", "")
        if report:
            print(report)
        return 0
    detail = data.get("error") or data.get("reason") or ""
    print(f"[repro submit] job {job_id} {name}"
          + (f": {detail}" if detail else ""), file=sys.stderr)
    return 1


def cmd_submit(args) -> int:
    client = ServeClient(args.url, retries=getattr(args, "retries", 0))
    params = dict(_parse_param(pair) for pair in args.params)
    try:
        status, payload = client.submit(
            args.kind, params, tenant=args.tenant, priority=args.priority,
            deadline_s=getattr(args, "deadline", None))
    except ServeError as exc:
        print(f"[repro submit] {exc}", file=sys.stderr)
        return 1
    if status == 429:
        print(f"[repro submit] queue full: {payload.get('error')} "
              f"(retry in {payload.get('retry_after_s')}s)",
              file=sys.stderr)
        return 2
    if status not in (200, 201):
        print(f"[repro submit] {payload.get('error', payload)}",
              file=sys.stderr)
        return 1
    job = payload["job"]
    verb = "attached to" if payload.get("deduped") else "submitted"
    print(f"[repro submit] {verb} {job['job_id']} "
          f"(kind={job['kind']}, tenant={job['tenant']}, "
          f"state={job['state']}, precached={job['precached']})",
          file=sys.stderr if args.watch else sys.stdout, flush=True)
    if not args.watch:
        return 0
    try:
        return _watch_to_end(client, job["job_id"], args.timeout)
    except ServeError as exc:
        print(f"[repro submit] {exc}", file=sys.stderr)
        return 1


def cmd_jobs(args) -> int:
    client = ServeClient(args.url)
    try:
        if args.action == "list":
            jobs = client.jobs(tenant=args.tenant, state=args.state)
            if not jobs:
                print("no jobs")
                return 0
            for job in jobs:
                line = (f"{job['job_id']}  {job['state']:<9}  "
                        f"{job['kind']:<8}  tenant={job['tenant']}  "
                        f"priority={job['priority']}")
                if job.get("attached"):
                    line += f"  attached={job['attached']}"
                print(line)
            return 0
        if args.action == "show":
            print(json.dumps(client.job(args.job_id), indent=2,
                             sort_keys=True))
            return 0
        if args.action == "watch":
            return _watch_to_end(client, args.job_id, args.timeout)
        if args.action == "cancel":
            status, payload = client.cancel(args.job_id)
            if status == 200:
                print(f"cancelled {args.job_id}")
                return 0
            if status == 202:
                print(f"cancelling {args.job_id} (running; the job "
                      f"observes the request at its next heartbeat)")
                return 0
            print(f"[repro jobs] {payload.get('error', payload)}",
                  file=sys.stderr)
            return 1
    except ServeError as exc:
        print(f"[repro jobs] {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unknown action {args.action!r}")
