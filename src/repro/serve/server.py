"""``repro serve`` — the multi-tenant async campaign daemon.

A stdlib-only asyncio HTTP/JSON service over the existing substrate: the
content-addressed run store supplies caching and crash recovery, the
shared :class:`~repro.core.pool.WarmPool` supplies persistent workers,
and the :mod:`repro.obs` heartbeat layer supplies the progress feed that
is bridged into per-job SSE channels.

API (all under ``/v1``; the prefix is optional)::

    GET  /v1/healthz            liveness + version
    GET  /v1/readyz             readiness: journal replayed, daemon
                                dispatching (503 until then)
    GET  /v1/stats              queue / dedupe / journal / job counters
    POST /v1/jobs               submit {kind, params, tenant, priority,
                                deadline_s}
                                → 201 created | 200 attached (deduped)
                                | 429 queue full (backpressure)
    GET  /v1/jobs               list jobs (?tenant=, ?state=)
    GET  /v1/jobs/<id>          one job, result included when finished
    GET  /v1/jobs/<id>/events   server-sent events: queued/started/
                                progress/completed/failed/cancelled
                                (history replayed, then live; honors
                                Last-Event-ID for reconnects)
    DELETE /v1/jobs/<id>        cancel: queued → 200 terminal, running
                                → 202 cancelling (cooperative, observed
                                at the next heartbeat), terminal → 409
    POST /v1/jobs/<id>/cancel   alias of DELETE /v1/jobs/<id>

Scheduling: submissions land in the bounded
:class:`~repro.serve.scheduler.FairShareScheduler` (WDRR across tenants,
priority within), and a dispatch task starts up to ``--slots`` jobs
concurrently on a thread pool — each job being a real CLI command body
whose own process fan-out rides the shared warm pool.  Identical
concurrent submissions collapse onto one job
(:class:`~repro.serve.jobs.JobRegistry`), so a thousand clients asking
for the same sweep cost one computation.

Durability: every job state transition is journaled write-ahead through
:class:`~repro.serve.journal.JobJournal` (fsync'd appends under
``<runs-dir>/serve/journal.jsonl``), and :meth:`ServeApp.replay_journal`
rebuilds the registry on startup — requeueing interrupted jobs (the
runner's resume matching re-attaches them to their run-store manifests)
and preserving the dedupe map, so a kill -9 of the daemon loses no
acknowledged work.  Clean shutdown compacts the journal in place.

One connection serves one request (``Connection: close``); SSE streams
stay open until the job reaches a terminal state.
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import parse_qs, urlsplit

from repro.runs.store import RunStore, resolve_root
from repro.serve.jobs import (
    CANCELLED,
    COMPLETED,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobError,
    JobRegistry,
    UnknownJobError,
    normalize_params,
)
from repro.serve.journal import JobJournal
from repro.serve.runner import JobCancelled, execute_job, job_keys
from repro.serve.scheduler import FairShareScheduler, QueueFull
from repro.serve.sse import encode_sse

__all__ = ["ServeApp", "cmd_serve", "serve_forever"]

_LOGGER = logging.getLogger(__name__)

#: request bodies larger than this are rejected outright
_MAX_BODY = 1 << 20
#: header-read deadline per connection
_READ_TIMEOUT_S = 10.0
#: SSE keepalive comment cadence while a job is quiet
_KEEPALIVE_S = 15.0

_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _BadRequest(Exception):
    """A malformed request; ``status`` rides along."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


async def _read_request(reader) -> tuple[str, str, dict, bytes] | None:
    """(method, target, headers, body), or None for an empty connection."""
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _BadRequest(f"malformed request line: {line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _BadRequest("bad Content-Length") from None
    if length > _MAX_BODY:
        raise _BadRequest("request body too large", status=413)
    body = await reader.readexactly(length) if length > 0 else b""
    return method.upper(), target, headers, body


def _response_bytes(status: int, body: bytes, content_type: str,
                    extra: dict | None = None) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
    headers = {
        "Content-Type": content_type,
        "Content-Length": str(len(body)),
        "Connection": "close",
        **(extra or {}),
    }
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _json_response(status: int, payload: dict,
                   extra: dict | None = None) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    return _response_bytes(status, body, "application/json", extra)


def _last_event_id(headers: dict, query: dict) -> int:
    """A reconnecting SSE client's resume point (header wins over query)."""
    raw = headers.get("last-event-id")
    if raw is None:
        raw = (query.get("last_event_id") or [None])[0]
    try:
        return max(int(raw), 0) if raw is not None else 0
    except (TypeError, ValueError):
        return 0


class ServeApp:
    """Registry + scheduler + runner glue behind the HTTP surface.

    All state mutates on the event-loop thread; job bodies run on a
    ``--slots``-wide thread pool and marshal progress back with
    ``loop.call_soon_threadsafe``.  ``execute`` is an injection seam
    (tests substitute a stub for the real :func:`execute_job`).
    """

    def __init__(
        self,
        *,
        runs_dir=None,
        workers: int | None = None,
        slots: int = 1,
        max_queue: int = 64,
        quantum: float = 1.0,
        weights: dict[str, float] | None = None,
        history: int = 256,
        progress_interval_s: float = 1.0,
        retry_after_s: float = 2.0,
        reaper_interval_s: float = 0.25,
        execute=None,
    ) -> None:
        self.runs_dir = runs_dir
        self.workers = workers
        self.slots = max(int(slots), 1)
        self.progress_interval_s = progress_interval_s
        self.retry_after_s = retry_after_s
        self.reaper_interval_s = reaper_interval_s
        self.registry = JobRegistry(history=history)
        self.scheduler = FairShareScheduler(
            max_depth=max_queue, quantum=quantum, weights=weights)
        self.journal = JobJournal(resolve_root(runs_dir))
        self.replay_counters: dict = {}
        self._execute = execute or execute_job
        self._threads = ThreadPoolExecutor(
            max_workers=self.slots, thread_name_prefix="repro-serve-job")
        self._wake = asyncio.Event()
        self._tasks: set[asyncio.Task] = set()
        self._service_tasks: list[asyncio.Task] = []
        self._active = 0
        self._stopping = False
        self._ready = False
        self.started_at = time.time()

    # -- durability (journal) -------------------------------------------------
    def _journal_best_effort(self, write, *args) -> None:
        """Transition records are at-least-once, never load-bearing.

        Losing one merely requeues the job on the next replay, where its
        content-addressed artifacts turn the recompute into a cache hit —
        so an append failure must not take the transition down with it.
        (Fault-injected ``exit`` modes raise SystemExit, which passes.)
        """
        try:
            write(*args)
        except Exception as exc:
            _LOGGER.warning("journal append failed (%s): %s",
                            getattr(write, "__name__", write), exc)

    def replay_journal(self) -> dict:
        """Rebuild registry + queue from the journal (startup recovery).

        Terminal jobs come back as history — their terminal SSE event is
        republished so late watchers still get stream closure.  Everything
        else is requeued (``force=True``: the bound admitted them once)
        and will resume its interrupted run-store manifest when started.
        """
        replay = self.journal.replay()
        for job in replay.jobs:
            self.registry.restore(job)
            if job.state in TERMINAL_STATES:
                data: dict = {"job_id": job.job_id}
                if job.error is not None:
                    data["error"] = job.error
                if job.cancel_reason is not None:
                    data["reason"] = job.cancel_reason
                if job.result is not None:
                    data["run_id"] = job.result.get("run_id")
                job.channel.publish(job.state, data)
            else:
                self.scheduler.submit(job, force=True)
                job.channel.publish("queued", {
                    "job_id": job.job_id, "kind": job.kind,
                    "tenant": job.tenant, "priority": job.priority,
                    "precached": job.precached,
                    "recovered": job.recovered,
                })
        self.replay_counters = replay.counters()
        if replay.jobs:
            self._wake.set()
        return self.replay_counters

    async def startup(self) -> None:
        """Rebuild the run store's resumable index, replay the journal,
        then start dispatch + deadline reaping."""
        try:
            added, dropped = RunStore(self.runs_dir).reindex_resumable()
        except OSError as exc:  # a hint only: lookups still prune and check
            _LOGGER.warning("could not rebuild the resumable index: %s", exc)
        else:
            if added or dropped:
                _LOGGER.info("resumable index rebuilt: %d markers added, "
                             "%d stale dropped", added, dropped)
        self.replay_journal()
        self._service_tasks = [
            asyncio.create_task(self.dispatch_loop()),
            asyncio.create_task(self.reaper_loop()),
        ]
        self._ready = True
        self._wake.set()

    # -- application operations (event-loop thread only) ----------------------
    def submit(self, payload: dict) -> tuple[int, dict]:
        """Handle one submission; returns ``(http_status, body)``."""
        if not isinstance(payload, dict):
            raise JobError("submission body must be a JSON object")
        kind = payload.get("kind")
        if not isinstance(kind, str):
            raise JobError("submission needs a string 'kind'")
        raw_params = payload.get("params")
        if raw_params is not None and not isinstance(raw_params, dict):
            raise JobError("'params' must be an object")
        params = normalize_params(kind, raw_params)
        tenant = payload.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
            raise JobError("'tenant' must be a non-empty string (<= 64 "
                           "chars)")
        priority = payload.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise JobError("'priority' must be an integer")
        deadline_s = payload.get("deadline_s")
        if deadline_s is not None:
            if (isinstance(deadline_s, bool)
                    or not isinstance(deadline_s, (int, float))
                    or not deadline_s > 0):
                raise JobError("'deadline_s' must be a positive number")
            deadline_s = float(deadline_s)
        if self._stopping:
            return 429, {"error": "daemon is shutting down",
                         "retry_after_s": self.retry_after_s}
        keys = job_keys(kind, params, runs_dir=self.runs_dir)
        job, attached = self.registry.create(
            kind, params, tenant=tenant, priority=priority,
            key=keys["key"], precached=keys["precached"],
            deadline_s=deadline_s)
        if attached:
            return 200, {"job": job.to_dict(include_result=False),
                         "deduped": True}
        try:
            self.scheduler.submit(job)
        except QueueFull as exc:
            self.registry.discard(job)
            return 429, {"error": str(exc),
                         "retry_after_s": self.retry_after_s}
        # Write-ahead: the submitted record must be on disk before the
        # client hears 201 — an acked job can never be lost to a crash.
        # If the fsync'd append fails, un-admit and report the failure.
        try:
            self.journal.record_submitted(job)
        except Exception as exc:
            self.scheduler.cancel(job)
            self.registry.discard(job)
            _LOGGER.warning("journal write-ahead failed for %s: %s",
                            job.job_id, exc)
            return 500, {"error": "could not journal the submission: "
                                  f"{type(exc).__name__}: {exc}"}
        job.channel.publish("queued", {
            "job_id": job.job_id, "kind": job.kind, "tenant": job.tenant,
            "priority": job.priority, "precached": job.precached,
            "artifacts": keys["artifacts"],
        })
        self._wake.set()
        return 201, {"job": job.to_dict(include_result=False),
                     "deduped": False}

    def cancel(self, job_id: str,
               reason: str = "client cancel") -> tuple[int, dict]:
        """Cancel a job: queued → 200 terminal now, running → 202
        cancelling (the job thread observes the request at its next
        heartbeat and unwinds), terminal → 409."""
        job = self.registry.get(job_id)
        if job.state == QUEUED and self.scheduler.cancel(job):
            job.cancel_reason = reason
            job.finished_at = time.time()
            self.registry.finish(job)
            self._journal_best_effort(self.journal.record_terminal, job)
            job.channel.publish("cancelled", {"job_id": job.job_id,
                                              "reason": reason})
            return 200, {"job": job.to_dict()}
        if job.state in TERMINAL_STATES:
            return 409, {"error": f"job is already {job.state}"}
        # Running — or popped by the dispatcher a tick ago (the cancel
        # flag is then observed before the job body even starts).
        if not job.cancel_requested:
            job.cancel_requested = True
            job.cancel_reason = reason
            self._journal_best_effort(
                self.journal.record_cancel_requested, job, reason)
        return 202, {"job": job.to_dict(include_result=False),
                     "cancelling": True}

    def stats(self) -> dict:
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "slots": self.slots,
            "active": self._active,
            "ready": self._ready,
            "jobs": self.registry.state_counts(),
            "deduped": self.registry.deduped,
            "queue": self.scheduler.counters(),
            "journal": {
                "replay": dict(self.replay_counters),
                "appended": self.journal.appended,
                "compactions": self.journal.compactions,
            },
        }

    # -- dispatch -------------------------------------------------------------
    async def dispatch_loop(self) -> None:
        """Start queued jobs whenever slots free up (runs forever)."""
        while True:
            await self._wake.wait()
            self._wake.clear()
            while not self._stopping and self._active < self.slots:
                job = self.scheduler.next_job()
                if job is None:
                    break
                self._active += 1
                task = asyncio.create_task(self._run_job(job))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)

    def _publish(self, job, name: str, data: dict) -> None:
        if not job.channel.closed:
            job.channel.publish(name, data)

    def _finish_cancelled(self, job, reason: str) -> None:
        """Move a job to CANCELLED with journal + SSE bookkeeping."""
        job.state = CANCELLED
        job.cancel_requested = True
        job.cancel_reason = job.cancel_reason or reason
        job.finished_at = time.time()
        self.registry.finish(job)
        self._journal_best_effort(self.journal.record_terminal, job)
        self._publish(job, "cancelled", {"job_id": job.job_id,
                                         "reason": job.cancel_reason})

    async def _run_job(self, job) -> None:
        loop = asyncio.get_running_loop()
        try:
            if job.cancel_requested or job.deadline_exceeded():
                if not job.cancel_requested:
                    job.cancel_reason = "deadline exceeded"
                self._finish_cancelled(job, "cancelled before start")
                return
            job.state = RUNNING
            job.started_at = time.time()
            self._journal_best_effort(self.journal.record_running, job)
            self._publish(job, "started", {
                "job_id": job.job_id, "attached": job.attached,
                "precached": job.precached, "recovered": job.recovered,
            })

            def progress(line: str) -> None:
                loop.call_soon_threadsafe(
                    self._publish, job, "progress", {"line": line})

            def should_abort() -> bool:
                # Polled on the job thread at every heartbeat; plain
                # attribute reads, so no marshaling needed.
                return job.cancel_requested or job.deadline_exceeded()

            try:
                result = await loop.run_in_executor(
                    self._threads,
                    functools.partial(
                        self._execute, job.kind, job.params,
                        runs_dir=self.runs_dir, progress=progress,
                        progress_interval_s=self.progress_interval_s,
                        default_workers=self.workers,
                        should_abort=should_abort,
                    ),
                )
            except JobCancelled as exc:
                # the thread may observe a blown deadline before the
                # reaper labels it; keep the reason deterministic
                if job.cancel_reason is None and job.deadline_exceeded():
                    job.cancel_reason = "deadline exceeded"
                self._finish_cancelled(job, exc.reason)
            except Exception as exc:
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = FAILED
                job.finished_at = time.time()
                self.registry.finish(job)
                self._journal_best_effort(self.journal.record_terminal,
                                          job)
                _LOGGER.warning("job %s failed: %s", job.job_id, job.error)
                self._publish(job, "failed", {"job_id": job.job_id,
                                              "error": job.error})
            else:
                job.result = result
                job.state = COMPLETED
                job.finished_at = time.time()
                self.registry.finish(job)
                self._journal_best_effort(self.journal.record_terminal,
                                          job)
                self._publish(job, "completed", {
                    "job_id": job.job_id,
                    "run_id": result.get("run_id"),
                    "resumed_from": result.get("resumed_from"),
                    "cache_hits": result.get("cache_hits"),
                    "cache_misses": result.get("cache_misses"),
                    "elapsed_s": round(
                        job.finished_at - job.started_at, 3),
                })
        finally:
            self._active -= 1
            self._wake.set()

    async def reaper_loop(self) -> None:
        """Cancel jobs whose wall-clock deadline passed (runs forever).

        Queued jobs go terminal immediately; running jobs get the
        cooperative flag (journaled), which the job thread observes at
        its next heartbeat.  Deadlines are measured from the *original*
        ``submitted_at``, so they survive a daemon restart.
        """
        while True:
            await asyncio.sleep(self.reaper_interval_s)
            now = time.time()
            for job in self.registry.all_jobs():
                if (job.state in TERMINAL_STATES or job.cancel_requested
                        or not job.deadline_exceeded(now)):
                    continue
                if job.state == QUEUED and self.scheduler.cancel(job):
                    job.cancel_reason = "deadline exceeded"
                    job.finished_at = time.time()
                    self.registry.finish(job)
                    self._journal_best_effort(
                        self.journal.record_terminal, job)
                    self._publish(job, "cancelled", {
                        "job_id": job.job_id,
                        "reason": "deadline exceeded"})
                    continue
                job.cancel_requested = True
                job.cancel_reason = "deadline exceeded"
                self._journal_best_effort(
                    self.journal.record_cancel_requested, job,
                    "deadline exceeded")

    async def shutdown(self, grace_s: float | None = None) -> None:
        """Drain the queue, wait for running jobs, compact the journal."""
        self._stopping = True
        self._ready = False
        while True:
            job = self.scheduler.next_job()
            if job is None:
                break
            job.state = CANCELLED
            job.cancel_reason = "daemon shutdown"
            job.finished_at = time.time()
            self.registry.finish(job)
            self._journal_best_effort(self.journal.record_terminal, job)
            job.channel.publish("cancelled", {"job_id": job.job_id,
                                              "reason": "daemon shutdown"})
        if self._tasks:
            await asyncio.wait(self._tasks, timeout=grace_s)
        self._threads.shutdown(wait=False, cancel_futures=True)
        for task in self._service_tasks:
            task.cancel()
        self._service_tasks = []
        # Clean exit leaves a compacted journal: the minimal record set
        # reproducing the registry, instead of the full append history.
        try:
            self.journal.compact(self.registry.all_jobs())
        except Exception as exc:
            _LOGGER.warning("journal compaction failed: %s", exc)

    # -- HTTP surface ---------------------------------------------------------
    async def handle_connection(self, reader, writer) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    _read_request(reader), timeout=_READ_TIMEOUT_S)
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ConnectionError):
                return
            except _BadRequest as exc:
                writer.write(_json_response(exc.status,
                                            {"error": str(exc)}))
                await writer.drain()
                return
            if request is None:
                return
            method, target, headers, body = request
            await self._route(writer, method, target, headers, body)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except Exception as exc:  # pragma: no cover - last-resort guard
            _LOGGER.exception("unhandled error serving a request")
            try:
                writer.write(_json_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"}))
                await writer.drain()
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, writer, method: str, target: str,
                     headers: dict, body: bytes) -> None:
        split = urlsplit(target)
        path = split.path
        if path.startswith("/v1/") or path == "/v1":
            path = path[len("/v1"):] or "/"
        query = parse_qs(split.query)

        async def respond(status: int, payload: dict,
                          extra: dict | None = None) -> None:
            writer.write(_json_response(status, payload, extra))
            await writer.drain()

        try:
            if path == "/healthz" and method == "GET":
                from repro.cli import version_string

                await respond(200, {"ok": True,
                                    "version": version_string(),
                                    "pid": os.getpid()})
            elif path == "/readyz" and method == "GET":
                if self._ready and not self._stopping:
                    await respond(200, {
                        "ready": True,
                        "journal": dict(self.replay_counters)})
                else:
                    await respond(503, {"ready": False})
            elif path == "/stats" and method == "GET":
                await respond(200, self.stats())
            elif path == "/jobs" and method == "POST":
                try:
                    payload = json.loads(body.decode() or "{}")
                except ValueError:
                    raise JobError("request body is not valid JSON") \
                        from None
                status, result = self.submit(payload)
                extra = None
                if status == 429:
                    extra = {"Retry-After":
                             str(int(self.retry_after_s) or 1)}
                await respond(status, result, extra)
            elif path == "/jobs" and method == "GET":
                tenant = (query.get("tenant") or [None])[0]
                state = (query.get("state") or [None])[0]
                jobs = self.registry.jobs(tenant=tenant, state=state)
                await respond(200, {"jobs": [
                    job.to_dict(include_result=False) for job in jobs]})
            elif path.startswith("/jobs/"):
                await self._route_job(writer, respond, method,
                                      path[len("/jobs/"):], headers,
                                      query)
            else:
                await respond(404, {"error": f"no route {method} {path}"})
        except JobError as exc:
            await respond(400, {"error": str(exc)})
        except UnknownJobError as exc:
            await respond(404, {"error": exc.args[0] if exc.args
                                else str(exc)})

    async def _route_job(self, writer, respond, method: str,
                         rest: str, headers: dict, query: dict) -> None:
        job_id, _, action = rest.partition("/")
        if not action and method == "GET":
            job = self.registry.get(job_id)
            await respond(200, {"job": job.to_dict()})
        elif not action and method == "DELETE":
            status, payload = self.cancel(job_id)
            await respond(status, payload)
        elif action == "cancel" and method == "POST":
            status, payload = self.cancel(job_id)
            await respond(status, payload)
        elif action == "events" and method == "GET":
            job = self.registry.get(job_id)
            await self._stream_events(
                writer, job, last_id=_last_event_id(headers, query))
        else:
            await respond(404, {"error": f"no route {method} /jobs/{rest}"})

    async def _stream_events(self, writer, job, last_id: int = 0) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        queue = job.channel.subscribe(after_id=last_id)
        try:
            while True:
                try:
                    event = await asyncio.wait_for(
                        queue.get(), timeout=_KEEPALIVE_S)
                except asyncio.TimeoutError:
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    continue
                if event is None:
                    break
                writer.write(encode_sse(event))
                await writer.drain()
        finally:
            job.channel.unsubscribe(queue)


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------

def _parse_weights(pairs: list[str]) -> dict[str, float]:
    weights: dict[str, float] = {}
    for pair in pairs:
        tenant, sep, raw = pair.partition("=")
        try:
            weight = float(raw)
        except ValueError:
            weight = float("nan")
        if not sep or not tenant or not weight > 0:
            raise SystemExit(
                f"repro serve: error: --tenant-weight needs "
                f"TENANT=POSITIVE_NUMBER, got {pair!r}")
        weights[tenant] = weight
    return weights


def _write_ready_file(path: str, url: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as handle:
        handle.write(url + "\n")
    os.replace(tmp, path)


async def serve_forever(args, app: ServeApp | None = None) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns an exit code."""
    app = app or ServeApp(
        runs_dir=args.runs_dir,
        workers=args.workers,
        slots=args.slots,
        max_queue=args.max_queue,
        quantum=args.quantum,
        weights=_parse_weights(args.tenant_weight),
        history=args.history,
        progress_interval_s=args.progress_interval,
    )
    # Replay before accepting connections: the first request must see
    # the recovered registry, not a window of pre-replay emptiness.
    await app.startup()
    replayed = app.replay_counters
    if replayed.get("records"):
        print(f"[repro serve] journal replayed: "
              f"{replayed['jobs']} jobs "
              f"({replayed['requeued']} requeued, "
              f"{replayed['recovered_running']} recovered mid-run, "
              f"{replayed['terminal']} historical)",
              flush=True)
    server = await asyncio.start_server(
        app.handle_connection, args.host, args.port)
    host, port = server.sockets[0].getsockname()[:2]
    url = f"http://{host}:{port}"
    print(f"[repro serve] listening on {url} "
          f"(slots={app.slots}, max_queue={app.scheduler.max_depth})",
          flush=True)
    if args.ready_file:
        _write_ready_file(args.ready_file, url)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    try:
        await stop.wait()
        print("[repro serve] shutting down "
              f"({app.scheduler.pending} queued, {app._active} running)",
              flush=True)
        server.close()
        await server.wait_closed()
        await app.shutdown(grace_s=getattr(args, "grace", None))
    finally:
        for task in app._service_tasks:
            task.cancel()
        from repro.core.pool import release_runtime_resources

        release_runtime_resources()
    print("[repro serve] shutdown complete", flush=True)
    return 0


def cmd_serve(args) -> int:
    """Dispatch ``repro serve``; returns a process exit code."""
    try:
        return asyncio.run(serve_forever(args))
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C race
        return 130
