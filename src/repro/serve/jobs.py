"""Job model, parameter normalization, and the dedupe registry.

A *job* is one campaign / evaluate / fig8 request.  Its **identity** is
the result-bearing subset of its parameters (seeds, sample counts,
scheme — not ``workers`` or ``engine``, which are bit-identical
execution choices) plus the code fingerprint, hashed with the same
canonical-JSON machinery the run store uses for artifact keys.  Two
submissions with the same identity key *are the same computation*:

* if one is already queued or running, the second **attaches** to it —
  same job id, same SSE channel, one computation for N clients;
* if its artifacts are already in the content-addressed store, the job
  is flagged ``precached`` and completes almost immediately (every cell
  or campaign lookup is a cache hit).

The registry keeps a bounded history of finished jobs so ``repro jobs
list``/``show`` stay useful after completion without growing without
bound in a long-lived daemon.
"""

from __future__ import annotations

import secrets
import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.serve.sse import BroadcastChannel

__all__ = [
    "Job",
    "JobError",
    "JobRegistry",
    "UnknownJobError",
    "job_identity",
    "new_job_id",
    "normalize_params",
    "JOB_KINDS",
]

#: job states, in lifecycle order
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL_STATES = frozenset({COMPLETED, FAILED, CANCELLED})


class JobError(ValueError):
    """A submission the server must reject (HTTP 400)."""


class UnknownJobError(KeyError):
    """A job id the registry has no record of (HTTP 404)."""


@dataclass(frozen=True)
class _Param:
    """One accepted parameter of a job kind."""

    name: str
    type: type
    default: object = None
    required: bool = False
    #: identity params feed the dedupe key; the rest only shape execution
    identity: bool = True
    choices: tuple = ()
    #: final value from ``(coerced value, params normalized before it)``;
    #: a ValueError it raises rejects the submission
    resolve: Callable[[object, dict], object] | None = None


def _at_least(name: str, low: int):
    """A resolve hook rejecting a count below ``low``, as the CLI does
    (an unset count passes)."""
    def resolve(value: int | None, params: dict) -> int | None:
        if value is not None and value < low:
            raise ValueError(
                f"parameter {name!r} must be at least {low} (got {value})")
        return value
    return resolve


_resolve_samples = _at_least("samples", 1)
#: unset, or a thread or process count of at least 1
_resolve_workers = _at_least("workers", 1)


def _above_zero(name: str):
    """A resolve hook rejecting a timeout of 0 or less, as the CLI does:
    such a bound times out every job and quietly falls back to serial."""
    def resolve(value: float | None, params: dict) -> float | None:
        if value is not None and not value > 0:
            raise ValueError(f"parameter {name!r} must be above 0 seconds "
                             f"(got {value})")
        return value
    return resolve


#: accepted parameters per job kind — defaults mirror the CLI parsers, so
#: a submitted job and the equivalent ``repro <kind>`` invocation build
#: the same run-session config (and therefore the same artifacts)
JOB_KINDS: dict[str, tuple[_Param, ...]] = {
    "campaign": (
        _Param("runs", int, 3, resolve=_at_least("runs", 0)),
        _Param("seed", int, 2021),
        _Param("events", int, 3000, resolve=_at_least("events", 0)),
        _Param("engine", str, "shm", identity=False,
               choices=("shm", "reference")),
        _Param("workers", int, None, identity=False,
               resolve=_resolve_workers),
        _Param("chunk_timeout", float, None, identity=False,
               resolve=_above_zero("chunk_timeout")),
        _Param("fleet_size", int, None),
        _Param("fleet_scheme", str, "trio"),
    ),
    "evaluate": (
        _Param("scheme", str, required=True),
        _Param("samples", int, 20_000, resolve=_resolve_samples),
        _Param("seed", int, 1234),
        _Param("workers", int, None, identity=False,
               resolve=_resolve_workers),
    ),
    "fig8": (
        _Param("samples", int, 20_000, resolve=_resolve_samples),
        _Param("seed", int, 1234),
        _Param("workers", int, None, identity=False,
               resolve=_resolve_workers),
    ),
}


def _coerce(param: _Param, value):
    if value is None:
        if param.required:
            raise JobError(f"parameter {param.name!r} is required")
        return param.default
    if param.type is int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise JobError(f"parameter {param.name!r} must be an integer")
        if isinstance(value, float) and not value.is_integer():
            raise JobError(f"parameter {param.name!r} must be an integer")
        return int(value)
    if param.type is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise JobError(f"parameter {param.name!r} must be a number")
        return float(value)
    if param.type is str:
        if not isinstance(value, str):
            raise JobError(f"parameter {param.name!r} must be a string")
        if param.choices and value not in param.choices:
            raise JobError(
                f"parameter {param.name!r} must be one of "
                f"{', '.join(param.choices)} (got {value!r})")
        return value
    raise JobError(f"unsupported parameter type for {param.name!r}")


def normalize_params(kind: str, params: dict | None) -> dict:
    """Validated, default-filled parameters for one job kind.

    Unknown keys are rejected rather than dropped — a typo'd parameter
    silently falling back to its default would dedupe the submission
    against the wrong computation.
    """
    if kind not in JOB_KINDS:
        raise JobError(
            f"unknown job kind {kind!r} "
            f"(expected one of {', '.join(sorted(JOB_KINDS))})")
    params = dict(params or {})
    spec = JOB_KINDS[kind]
    known = {p.name for p in spec}
    unknown = sorted(set(params) - known)
    if unknown:
        raise JobError(f"unknown parameter(s) for {kind!r}: "
                       f"{', '.join(unknown)}")
    normalized: dict = {}
    for param in spec:
        value = _coerce(param, params.get(param.name))
        if param.resolve is not None:
            try:
                value = param.resolve(value, normalized)
            except ValueError as exc:
                raise JobError(str(exc)) from None
        normalized[param.name] = value
    return normalized


def job_identity(kind: str, params: dict) -> dict:
    """The result-bearing parameter subset (already normalized)."""
    return {p.name: params[p.name] for p in JOB_KINDS[kind] if p.identity}


def new_job_id(now: float | None = None) -> str:
    """Sortable, collision-resistant job id (UTC stamp + random hex)."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(now))
    return f"job-{stamp}-{secrets.token_hex(3)}"


@dataclass
class Job:
    """One submitted computation and everything the API reports about it."""

    job_id: str
    kind: str
    params: dict
    tenant: str
    priority: int
    key: str  #: dedupe / content identity key
    state: str = QUEUED
    precached: bool = False
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: clients that submitted this identity while it was in flight
    attached: int = 1
    #: wall-clock budget from submission; exceeded -> cancelled
    deadline_s: float | None = None
    cancel_requested: bool = False
    #: why cancellation was requested / happened (client, deadline, ...)
    cancel_reason: str | None = None
    #: requeued by journal replay after dying mid-run
    recovered: bool = False
    result: dict | None = None
    error: str | None = None
    channel: BroadcastChannel = field(default_factory=BroadcastChannel)

    def deadline_exceeded(self, now: float | None = None) -> bool:
        """True once the per-job deadline (if any) has passed."""
        if self.deadline_s is None:
            return False
        return (now if now is not None else time.time()) \
            > self.submitted_at + self.deadline_s

    def to_dict(self, *, include_result: bool = True) -> dict:
        data = {
            "job_id": self.job_id,
            "kind": self.kind,
            "params": dict(self.params),
            "tenant": self.tenant,
            "priority": self.priority,
            "key": self.key,
            "state": self.state,
            "precached": self.precached,
            "attached": self.attached,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "deadline_s": self.deadline_s,
            "cancel_requested": self.cancel_requested,
            "recovered": self.recovered,
            "events": self.channel.last_id,
        }
        if self.cancel_reason is not None:
            data["cancel_reason"] = self.cancel_reason
        if self.error is not None:
            data["error"] = self.error
        if include_result and self.result is not None:
            data["result"] = self.result
        return data


class JobRegistry:
    """All jobs the daemon knows about, with in-flight dedupe by key."""

    def __init__(self, history: int = 256) -> None:
        self.history = history
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._active_by_key: dict[str, Job] = {}
        #: total submissions absorbed by attaching to an in-flight job
        self.deduped = 0

    def create(self, kind: str, params: dict | None, *, tenant: str,
               priority: int, key: str, precached: bool = False,
               deadline_s: float | None = None) -> tuple[Job, bool]:
        """Register a submission; returns ``(job, attached_to_existing)``.

        ``params`` must already be normalized (the key was derived from
        them).  An in-flight job with the same key absorbs the
        submission: the caller must *not* schedule anything new (the
        original job's deadline keeps governing).
        """
        existing = self._active_by_key.get(key)
        if existing is not None and existing.state not in TERMINAL_STATES:
            existing.attached += 1
            self.deduped += 1
            return existing, True
        job = Job(job_id=new_job_id(), kind=kind, params=params,
                  tenant=tenant, priority=priority, key=key,
                  precached=precached, deadline_s=deadline_s)
        self._jobs[job.job_id] = job
        self._active_by_key[key] = job
        self._trim()
        return job, False

    def restore(self, job: Job) -> None:
        """Re-insert a journal-replayed job (startup recovery path).

        Jobs arrive in original submission order, so insertion order —
        and therefore listing/trim behaviour — matches the pre-crash
        registry.  Non-terminal jobs reclaim their dedupe slot: a
        resubmitted content key attaches to the original job id instead
        of starting a duplicate computation.
        """
        self._jobs[job.job_id] = job
        if job.state not in TERMINAL_STATES:
            self._active_by_key[job.key] = job
        self._trim()

    def finish(self, job: Job) -> None:
        """Release a job's dedupe slot once it reaches a terminal state."""
        if self._active_by_key.get(job.key) is job:
            del self._active_by_key[job.key]
        self._trim()

    def discard(self, job: Job) -> None:
        """Forget a job that was never scheduled (e.g. queue-full 429)."""
        self._jobs.pop(job.job_id, None)
        if self._active_by_key.get(job.key) is job:
            del self._active_by_key[job.key]

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(f"no job {job_id!r}") from None

    def all_jobs(self) -> list[Job]:
        """Every known job in submission (insertion) order."""
        return list(self._jobs.values())

    def jobs(self, *, tenant: str | None = None,
             state: str | None = None) -> list[Job]:
        """Jobs newest-first, optionally filtered by tenant / state."""
        selected = [
            job for job in self._jobs.values()
            if (tenant is None or job.tenant == tenant)
            and (state is None or job.state == state)
        ]
        selected.sort(key=lambda j: j.submitted_at, reverse=True)
        return selected

    def state_counts(self) -> dict:
        counts: dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def _trim(self) -> None:
        """Evict the oldest *terminal* jobs beyond the history bound."""
        excess = len(self._jobs) - self.history
        if excess <= 0:
            return
        for job_id in [jid for jid, job in self._jobs.items()
                       if job.state in TERMINAL_STATES][:excess]:
            del self._jobs[job_id]
