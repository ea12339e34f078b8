"""Requeue-then-serial process-pool degradation.

The beam statistics engine (:mod:`repro.beam.engine`) fans independent,
deterministically seeded jobs out over a :class:`ProcessPoolExecutor`:
a job that misses its timeout, hits a worker-side exception, or rides a
pool that breaks mid-sweep is requeued onto a fresh pool (with
exponential backoff between attempts), and whatever is still unfinished
after the pool budget runs serially in-process — per-job seeding makes
every path bit-identical.  The Monte Carlo harness
(:mod:`repro.errormodel.montecarlo`) runs its cells on threads and uses
only the pure-serial tier: one in-process retry, then the error
propagates.

Accounting is reconciled here: a job that fails any number of pool
attempts before completing counts as *requeued exactly once* (it is a
member of :attr:`PoolReport.requeued_keys`, a set), while raw timeout,
pool-break, and job-error incidents are tallied per occurrence — so a
chunk that times out on both attempts is one requeued chunk, two
timeouts.

Poison jobs — jobs that fail every pool attempt *and* every serial
retry — are quarantined rather than looping or tearing down the sweep:
their keys land in :attr:`PoolReport.poisoned` with the final error, and
:func:`run_with_requeue` raises :class:`PoisonedJobs` (carrying the
partial results) unless the caller opts into ``allow_poisoned=True``.
A failure on the *pure-serial* path (no pool ever involved) still
propagates immediately, as it always has: there is no healthier
execution tier left to try, and quarantining would hide a plain bug.

Callers pass ``executor_factory`` as a closure over their own module's
``ProcessPoolExecutor`` global, preserving the established monkeypatch
seam (tests substitute fake pools per call site), and pass their own
``logger`` so warnings keep their historical logger names.

:class:`WarmPool` layers pool *reuse* on top: one CLI invocation or
serve daemon that runs many campaigns pays the interpreter-spawn cost once
— its :meth:`WarmPool.executor_factory` plugs into the same seam but
returns a handle whose ``shutdown()`` keeps the underlying executor
alive when the attempt ended cleanly, and retires it (broken pool, or
futures still in flight after a timeout) so the next attempt gets a
fresh one — the requeue-then-serial degradation semantics are unchanged.
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing
import os
import random
import signal
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass, field

__all__ = [
    "PoisonedJobs",
    "PoolReport",
    "RetryPolicy",
    "WarmPool",
    "close_warm_pools",
    "install_shutdown_hooks",
    "pool_worker_init",
    "release_runtime_resources",
    "run_with_requeue",
    "shared_warm_pool",
]

_LOGGER = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budgets and backoff shape for :func:`run_with_requeue`."""

    #: fresh-pool attempts before degrading to serial
    pool_attempts: int = 2
    #: in-process tries per job on the serial path before quarantine
    serial_attempts: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0
    #: fraction of the backoff randomized away (0 = fixed delays)
    jitter: float = 0.25

    def backoff_s(self, attempt: int, u: float = 0.0) -> float:
        """Delay before retry ``attempt`` (1-based), jittered by ``u`` in
        [0, 1).  Jitter *subtracts* up to ``jitter`` of the delay, so the
        cap holds and a fleet of retriers decorrelates."""
        delay = min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
            self.backoff_max_s,
        )
        return delay * (1.0 - self.jitter * u)


class PoisonedJobs(RuntimeError):
    """Some jobs failed every retry tier and were quarantined.

    Carries everything the caller needs to degrade gracefully anyway:
    ``poisoned`` (key -> final error string), the full :class:`PoolReport`
    and the partial ``results`` dict.
    """

    def __init__(self, poisoned: dict, report: PoolReport,
                 results: dict) -> None:
        names = ", ".join(str(k) for k in sorted(poisoned, key=str))
        super().__init__(
            f"{len(poisoned)} job(s) failed every retry and were "
            f"quarantined: {names}"
        )
        self.poisoned = poisoned
        self.report = report
        self.results = results


@dataclass
class PoolReport:
    """How a :func:`run_with_requeue` call got to a full result set."""

    jobs: int = 0
    #: pool attempts actually started (0 = pure serial, no pool used)
    attempts: int = 0
    pool_completed: int = 0
    serial_completed: int = 0
    #: timeout incidents (the same job timing out twice counts twice)
    timeouts: int = 0
    #: pool-break incidents (:class:`BrokenExecutor` observations)
    pool_breaks: int = 0
    pool_start_failures: int = 0
    #: worker-side exception incidents observed on the pool path
    job_errors: int = 0
    #: keys of jobs that survived at least one failed pool attempt —
    #: a set, so each requeued job is counted exactly once
    requeued_keys: set = field(default_factory=set)
    #: quarantined poison jobs: key -> final error string
    poisoned: dict = field(default_factory=dict)

    @property
    def requeued(self) -> int:
        return len(self.requeued_keys)

    def counters(self) -> dict:
        """Flat JSON-safe counters for manifests and span records.

        Empty when no pool was involved, so serial runs don't pollute
        their manifests with all-zero pool telemetry; the incident-class
        keys (``pool_job_errors``, ``pool_poisoned``) appear only when
        nonzero, so healthy sweeps keep their historical counter shape.
        """
        if not self.attempts and not self.pool_start_failures:
            return {}
        counters = {
            "pool_jobs": self.jobs,
            "pool_attempts": self.attempts,
            "pool_completed": self.pool_completed,
            "pool_serial_fallback": self.serial_completed,
            "pool_requeued": self.requeued,
            "pool_timeouts": self.timeouts,
            "pool_breaks": self.pool_breaks,
        }
        if self.job_errors:
            counters["pool_job_errors"] = self.job_errors
        if self.poisoned:
            counters["pool_poisoned"] = len(self.poisoned)
        return counters


def run_with_requeue(
    jobs,
    *,
    key,
    describe,
    run_serial,
    submit=None,
    workers: int | None = None,
    timeout: float | None = None,
    executor_factory=None,
    noun: str = "jobs",
    logger: logging.Logger | None = None,
    on_result=None,
    retry: RetryPolicy | None = None,
    allow_poisoned: bool = False,
    sleep=time.sleep,
    jitter_draw=random.random,
) -> tuple[dict, PoolReport]:
    """Evaluate ``jobs``, fanned out when asked, robust to worker failure.

    ``key(job)`` names a job's result slot, ``describe(job)`` renders it
    for log lines, ``run_serial(job)`` evaluates it in-process, and
    ``submit(pool, job)`` schedules it on an executor; without
    ``workers > 1`` and an ``executor_factory`` no pool is used.
    ``on_result(job, result)`` fires for every completed job on whichever
    path completed it — the hook the observability layer uses for
    heartbeats and worker-span merging.

    ``retry`` shapes the budgets and backoff (default
    :class:`RetryPolicy`); ``sleep``/``jitter_draw`` are injection seams
    so tests assert backoff schedules without waiting them out.

    Returns ``(results, report)``: results keyed by ``key(job)``
    (complete unless poison jobs were quarantined under
    ``allow_poisoned=True``) and the :class:`PoolReport` accounting.
    Raises :class:`PoisonedJobs` when a pool-path job exhausts every
    retry tier and ``allow_poisoned`` is False, and :class:`ValueError`,
    before any pool starts, when ``timeout`` is set but not above 0 (a
    timeout of 0 would requeue every job and quietly fall back to serial).
    """
    if timeout is not None and not timeout > 0:
        raise ValueError(f"timeout must be above 0 seconds, got {timeout!r}")
    logger = logger or _LOGGER
    retry = retry or RetryPolicy()
    results: dict = {}
    report = PoolReport(jobs=len(jobs))

    def _finish(job, result) -> None:
        results[key(job)] = result
        if on_result is not None:
            on_result(job, result)

    def _backoff(attempt: int, why: str) -> None:
        delay = retry.backoff_s(attempt, jitter_draw())
        if delay > 0:
            logger.warning("backing off %.3gs before retry (%s)",
                           delay, why)
            sleep(delay)

    pending = list(jobs)
    pool_used = False
    if workers is not None and workers > 1 and len(pending) > 1 \
            and executor_factory is not None:
        for attempt in range(1, retry.pool_attempts + 1):
            if not pending:
                break
            try:
                pool = executor_factory()
            except OSError as exc:
                report.pool_start_failures += 1
                logger.warning(
                    "cannot start worker pool (%s); evaluating %d %s "
                    "in-process", exc, len(pending), noun,
                )
                break
            pool_used = True
            report.attempts = attempt
            try:
                try:
                    futures = {key(job): submit(pool, job)
                               for job in pending}
                except BrokenExecutor as exc:
                    # A pool can break *at submit time* (its workers died
                    # between creation and the first submit).  That is one
                    # pool-break incident and a plain requeue — the same
                    # accounting as a break observed through a future —
                    # not an error that tears down the whole sweep.
                    report.pool_breaks += 1
                    logger.warning(
                        "worker pool broke during submission (%s); "
                        "requeueing %d %s", exc, len(pending), noun,
                    )
                    futures = None
                for job in pending if futures is not None else ():
                    try:
                        result = futures[key(job)].result(timeout=timeout)
                    except _FuturesTimeout:
                        futures[key(job)].cancel()
                        report.timeouts += 1
                        logger.warning(
                            "%s exceeded the %.3gs timeout; requeueing",
                            describe(job), timeout,
                        )
                    except BrokenExecutor as exc:
                        report.pool_breaks += 1
                        logger.warning(
                            "worker pool broke on %s (%s); requeueing "
                            "unfinished %s", describe(job), exc, noun,
                        )
                        break
                    except Exception as exc:
                        report.job_errors += 1
                        logger.warning(
                            "%s failed on the pool (%s: %s); requeueing",
                            describe(job), type(exc).__name__, exc,
                        )
                    else:
                        report.pool_completed += 1
                        _finish(job, result)
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
            pending = [job for job in pending if key(job) not in results]
            report.requeued_keys.update(key(job) for job in pending)
            if pending and attempt < retry.pool_attempts:
                _backoff(attempt, f"{len(pending)} {noun} unfinished")
            elif pending:
                logger.warning(
                    "fan-out failed twice; falling back to in-process "
                    "serial evaluation for %d %s", len(pending), noun,
                )
    for job in pending:
        for serial_attempt in range(1, retry.serial_attempts + 1):
            try:
                result = run_serial(job)
            except Exception as exc:
                if serial_attempt < retry.serial_attempts:
                    logger.warning(
                        "%s failed in-process (%s: %s); retrying",
                        describe(job), type(exc).__name__, exc,
                    )
                    _backoff(serial_attempt, f"serial retry of "
                             f"{describe(job)}")
                    continue
                if not pool_used:
                    # Pure-serial configurations keep their historical
                    # contract: the error is the caller's to see.
                    raise
                report.poisoned[key(job)] = f"{type(exc).__name__}: {exc}"
                logger.error(
                    "%s failed every pool and serial attempt; "
                    "quarantining as a poison job (%s)",
                    describe(job), exc,
                )
                break
            else:
                report.serial_completed += 1
                _finish(job, result)
                break
    if report.poisoned and not allow_poisoned:
        raise PoisonedJobs(dict(report.poisoned), report, results)
    return results, report


# ---------------------------------------------------------------------------
# Warm pool reuse
# ---------------------------------------------------------------------------

class _WarmHandle:
    """What :meth:`WarmPool.executor_factory` hands to ``run_with_requeue``.

    ``run_with_requeue`` unconditionally calls ``shutdown(wait=False,
    cancel_futures=True)`` after every attempt; the handle translates
    that into "keep the executor warm when the attempt ended cleanly,
    retire it when it is broken or still has futures in flight" (a hung
    or timed-out worker leaves the pool's state unknowable, so the next
    attempt must get a fresh one).
    """

    def __init__(self, pool: WarmPool, executor) -> None:
        self._pool = pool
        self._executor = executor
        self._futures: list = []

    def submit(self, fn, /, *args, **kwargs):
        future = self._executor.submit(fn, *args, **kwargs)
        self._futures.append(future)
        return future

    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = False) -> None:
        broken = bool(getattr(self._executor, "_broken", False))
        in_flight = any(not future.done() for future in self._futures)
        if broken or in_flight:
            self._pool._retire(self._executor)


#: how often a pool worker checks that the process that forked it lives
_PARENT_POLL_S = 0.5


def _exit_when_orphaned(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def pool_worker_init() -> None:
    """Reset inherited signal state in a freshly forked pool worker, and
    make it exit once its host process is gone.

    Forked workers inherit the parent's signal dispositions — including,
    when the parent is the ``repro serve`` daemon, asyncio's wakeup-fd
    handler whose socketpair is *shared* with the parent's event loop.  A
    worker that then receives a signal (``ProcessPoolExecutor`` SIGTERMs
    surviving workers when a sibling dies and breaks the pool) would
    write the signal number into the shared socket and the *daemon's*
    loop would dispatch its own SIGTERM callback — a worker-pool incident
    masquerading as a shutdown request.  Detaching the wakeup fd and
    restoring default dispositions confines signals to the process they
    were sent to.

    A host killed on its own (SIGKILL, the OOM killer) never shuts its
    pool down, and its workers never see EOF on the pool's pipes: each
    inherited its siblings' ends, so they would block forever.  A daemon
    thread polls the worker's parent pid and exits the worker when the
    host is gone (within ``_PARENT_POLL_S``).
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover - exotic host
            pass
    parent = multiprocessing.parent_process()
    if parent is not None:  # a pool worker, not a direct call
        threading.Thread(target=_exit_when_orphaned, args=(parent.pid,),
                         name="repro-orphan-watch", daemon=True).start()


class WarmPool:
    """A process pool that survives across campaigns within one invocation.

    Use :meth:`executor_factory` wherever ``run_with_requeue`` takes an
    ``executor_factory``: the first call spawns the executor, later calls
    reuse it (``spawns``/``reuses`` count both for telemetry), and a
    retirement — broken executor, futures left in flight — makes the next
    call spawn fresh, preserving the requeue-onto-a-fresh-pool semantics.
    """

    def __init__(self, workers: int | None = None, factory=None) -> None:
        self.workers = workers
        self._factory = factory or (
            lambda: ProcessPoolExecutor(max_workers=workers,
                                        initializer=pool_worker_init)
        )
        self._executor = None
        self.spawns = 0
        self.reuses = 0

    def executor_factory(self):
        """A live executor behind a shutdown-deferring handle."""
        if self._executor is None:
            self._executor = self._factory()
            self.spawns += 1
        else:
            self.reuses += 1
        return _WarmHandle(self, self._executor)

    def _retire(self, executor) -> None:
        if executor is self._executor:
            self._executor = None
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - teardown best-effort
            pass

    def close(self) -> None:
        """Shut the warm executor down (idempotent)."""
        if self._executor is not None:
            self._retire(self._executor)

    def counters(self) -> dict:
        """Manifest-ready reuse telemetry."""
        return {"warm_pool_spawns": self.spawns,
                "warm_pool_reuses": self.reuses}

    def __enter__(self) -> WarmPool:
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


_SHARED_WARM_POOLS: dict = {}


def shared_warm_pool(workers: int | None) -> WarmPool:
    """The invocation-wide warm pool for a worker count (lazily created).

    The CLI and the serve daemon thread this through beam campaigns so
    one ``repro`` invocation spawns each pool size at most once; call
    :func:`close_warm_pools` on the way out.
    """
    if workers not in _SHARED_WARM_POOLS:
        _SHARED_WARM_POOLS[workers] = WarmPool(workers)
    return _SHARED_WARM_POOLS[workers]


def close_warm_pools() -> None:
    """Close and forget every shared warm pool (invocation teardown)."""
    while _SHARED_WARM_POOLS:
        _, pool = _SHARED_WARM_POOLS.popitem()
        pool.close()


# ---------------------------------------------------------------------------
# Process-exit cleanup: signals + atexit
# ---------------------------------------------------------------------------
#
# A warm pool holds live worker processes and a campaign holds live
# /dev/shm arena segments; a SIGTERM'd invocation (or a long-running
# ``repro serve`` daemon) that never reaches its ``finally`` blocks would
# strand both — workers as orphans, segments until the next opportunistic
# ``cleanup_stale`` scan.  ``install_shutdown_hooks`` makes teardown a
# process-level guarantee: ``atexit`` covers every normal exit, and
# SIGTERM/SIGINT handlers cover the killed ones, chaining to whatever
# handler was installed before (so Ctrl-C still raises KeyboardInterrupt
# and a plain SIGTERM still terminates with the conventional status).

_HOOKS_INSTALLED = False
_PREVIOUS_HANDLERS: dict = {}


def release_runtime_resources() -> None:
    """Close every shared warm pool and unlink this process's arenas.

    Idempotent and safe to call from a signal handler — both halves only
    touch in-process registries plus ``os`` calls.
    """
    close_warm_pools()
    from repro.core.shm import release_arenas

    release_arenas()


def _on_shutdown_signal(signum, frame) -> None:
    release_runtime_resources()
    previous = _PREVIOUS_HANDLERS.get(signum, signal.SIG_DFL)
    if callable(previous):
        previous(signum, frame)
    elif previous == signal.SIG_DFL:
        # Re-deliver with the default disposition so the exit status
        # still says "killed by signal" to whoever is watching.
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
    # SIG_IGN: swallow, as the prior configuration asked.


def install_shutdown_hooks() -> bool:
    """Hook SIGTERM/SIGINT + ``atexit`` to release pools and shm arenas.

    Returns True the first time (hooks installed), False on repeat calls.
    Signal handlers are only touched from the main thread (Python forbids
    anything else); the ``atexit`` half installs regardless.
    """
    global _HOOKS_INSTALLED
    if _HOOKS_INSTALLED:
        return False
    _HOOKS_INSTALLED = True
    atexit.register(release_runtime_resources)
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                _PREVIOUS_HANDLERS[signum] = signal.signal(
                    signum, _on_shutdown_signal)
            except (ValueError, OSError):  # pragma: no cover - exotic host
                pass
    return True
