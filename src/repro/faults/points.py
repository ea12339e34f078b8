"""Named fault points and the actions an active plan triggers at them.

Every crash-sensitive location in the stack calls ``faultpoint(name,
**context)`` — a few-nanosecond no-op unless a :class:`FaultPlan` is
active (installed explicitly or materialized lazily from the
environment, which is how process-pool workers and ``--resume``
subprocesses pick up the schedule of the invocation that spawned them).

The registered fault points, by layer:

========================================  =================================
``store.save_cell.pre_rename``            between temp-file fsync and rename
``store.save_cell.post_rename``           after the artifact is in place
``store.save_campaign.pre_rename``        (same, campaign artifacts)
``store.save_campaign.post_rename``
``store.manifest.pre_rename``             manifest writes (begin + finish)
``store.manifest.post_rename``
``checkpoint.torn_write``                 before a checkpoint line append
``pool.worker.crash``                     entry of every pool job
``engine.chunk.hang``                     entry of a statistics chunk
``montecarlo.cell.hang``                  entry of a Table-2 cell
``shm.arena.create``                      after a campaign arena exists
``shm.arena.attach``                      before a worker maps its slice
``shm.arena.detach``                      after a worker's slice is written
``serve.journal.append``                  before a job-journal line append
``serve.journal.compact.pre_rename``      journal compaction rewrite
``serve.journal.compact.post_rename``
========================================  =================================

Actions (``mode=``): ``raise`` raises :class:`InjectedFault`; ``exit``
dies with ``os._exit(137)`` (a kill -9 stand-in); ``torn`` writes a
deterministic prefix of the pending data to the target path and then
exits/raises/returns per ``then=``; ``corrupt`` flips one byte of an
already-written file; ``hang`` sleeps ``s`` seconds and continues.

Destructive actions (``exit``, ``torn`` with ``then=exit``) are
*suppressed* in the host process unless the rule says ``host=1`` — a
worker crash schedule must never take down the coordinating process that
is supposed to survive it.  Suppressions are counted but do not consume
the activation budget.

Every injection is recorded in a per-process incident list (and the
cross-process ledger when configured); :func:`counters` renders both as
flat ``fault.*`` counters for run manifests and span records.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.faults.plan import FaultPlan, FaultRule, unit_draw

__all__ = [
    "Incident",
    "InjectedFault",
    "active_plan",
    "counters",
    "faultpoint",
    "incidents",
    "install",
    "reset",
    "uninstall",
]

#: Exit status used by ``exit``/``torn`` faults (mirrors SIGKILL's 128+9).
EXIT_STATUS = 137


class InjectedFault(RuntimeError):
    """Raised by a ``mode=raise`` fault point."""

    def __init__(self, point: str) -> None:
        super().__init__(f"injected fault at {point}")
        self.point = point


@dataclass(frozen=True)
class Incident:
    """One faultpoint activation (or host-side suppression)."""

    point: str
    mode: str
    #: ``injected`` or ``suppressed``
    action: str


_PLAN: FaultPlan | None = None
_ENV_RESOLVED = False
_INCIDENTS: list[Incident] = []
#: guards each hit's rule bookkeeping, incident and ledger line
_LOCK = threading.Lock()


def _new_lock() -> None:
    # a fork child starts with one thread; a lock some other parent
    # thread held at the fork would otherwise stay held forever
    global _LOCK
    _LOCK = threading.Lock()


os.register_at_fork(after_in_child=_new_lock)


def install(plan: FaultPlan, *, export_env: bool = True) -> FaultPlan:
    """Activate a plan in this process (and its future children).

    ``export_env`` publishes the plan through the environment so pool
    workers and subprocesses reconstruct it; the exported host pid keeps
    destructive faults out of *this* process unless a rule opts in.
    """
    global _PLAN, _ENV_RESOLVED
    _PLAN = plan
    _ENV_RESOLVED = True
    if export_env:
        os.environ.update(plan.environ())
    return plan


def uninstall(*, scrub_env: bool = True) -> None:
    """Deactivate fault injection in this process."""
    global _PLAN, _ENV_RESOLVED
    _PLAN = None
    _ENV_RESOLVED = True
    if scrub_env:
        from repro.faults.plan import (
            ENV_HOST_PID, ENV_LEDGER, ENV_SEED, ENV_SPEC,
        )

        for var in (ENV_SPEC, ENV_SEED, ENV_LEDGER, ENV_HOST_PID):
            os.environ.pop(var, None)


def reset() -> None:
    """Test helper: drop the plan, incidents, and the env-resolution latch."""
    global _PLAN, _ENV_RESOLVED
    _PLAN = None
    _ENV_RESOLVED = False
    _INCIDENTS.clear()


def active_plan() -> FaultPlan | None:
    """The plan in force, resolving the environment exactly once."""
    global _PLAN, _ENV_RESOLVED
    if _PLAN is None and not _ENV_RESOLVED:
        _ENV_RESOLVED = True
        _PLAN = FaultPlan.from_env()
    return _PLAN


def incidents() -> list[Incident]:
    """This process's incident log (injections and suppressions)."""
    return list(_INCIDENTS)


def counters() -> dict:
    """Flat ``fault.*`` counters for manifests and span records.

    Injection counts come from the cross-process ledger when one is
    configured (so a resumed run's manifest accounts for incidents that
    killed its predecessors); otherwise from this process's incident
    list.  Host-side suppressions are always per-process.
    """
    plan = _PLAN
    injected: dict[str, int] = {}
    suppressed: dict[str, int] = {}
    for incident in _INCIDENTS:
        bucket = injected if incident.action == "injected" else suppressed
        bucket[incident.point] = bucket.get(incident.point, 0) + 1
    if plan is not None and plan.ledger is not None:
        for point, count in plan.ledger_counts().items():
            injected[point] = max(count, injected.get(point, 0))
    flat: dict = {}
    for point, count in sorted(injected.items()):
        flat[f"fault.{point}"] = count
    for point, count in sorted(suppressed.items()):
        flat[f"fault.suppressed.{point}"] = count
    return flat


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

def _die() -> None:
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(EXIT_STATUS)


def _act_raise(rule: FaultRule, plan: FaultPlan, name: str,
               context: dict) -> None:
    raise InjectedFault(name)


def _act_exit(rule: FaultRule, plan: FaultPlan, name: str,
              context: dict) -> None:
    _die()


def _act_hang(rule: FaultRule, plan: FaultPlan, name: str,
              context: dict) -> None:
    time.sleep(rule.delay_s)


def _act_torn(rule: FaultRule, plan: FaultPlan, name: str,
              context: dict) -> None:
    """Leave a deterministic partial write behind, then crash (usually).

    For rename-based writers the torn prefix lands on the *final* path —
    the state a non-atomic writer would leave after a mid-write kill; for
    append-mode writers it lands at the end of the existing file.
    """
    path, data = context.get("path"), context.get("data")
    if path is not None and data:
        raw = data.encode() if isinstance(data, str) else bytes(data)
        cut = 1 + int(unit_draw(plan.seed, f"{name}#cut", rule.hits)
                      * max(len(raw) - 2, 1))
        mode = "ab" if context.get("append") else "wb"
        with open(path, mode) as handle:
            handle.write(raw[:cut])
            handle.flush()
            os.fsync(handle.fileno())
    if rule.then == "exit":
        _die()
    if rule.then == "raise":
        raise InjectedFault(name)


def _act_corrupt(rule: FaultRule, plan: FaultPlan, name: str,
                 context: dict) -> None:
    """Flip one byte of the target file (silent bit-rot stand-in)."""
    path = context.get("path")
    if path is None:
        return
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError:
        return
    if not data:
        return
    pos = min(len(data) - 1,
              int(unit_draw(plan.seed, f"{name}#pos", rule.hits) * len(data)))
    path.write_bytes(data[:pos] + bytes([data[pos] ^ 0x01]) + data[pos + 1:])


_ACTIONS = {
    "raise": _act_raise,
    "exit": _act_exit,
    "torn": _act_torn,
    "corrupt": _act_corrupt,
    "hang": _act_hang,
}


def _fires(plan: FaultPlan, rule: FaultRule, name: str) -> bool:
    """Count one hit of ``rule`` and decide whether it fires now.

    Called under :data:`_LOCK`, so concurrent hits on one point see a
    consistent ``hits``/``fired``/ledger state: a ``times=1`` rule fires
    exactly once however many threads reach it together.
    """
    rule.hits += 1
    if rule.hits <= rule.after:
        return False
    if rule.times is not None:
        fired = (plan.ledger_count(name) if plan.ledger is not None
                 else rule.fired)
        if fired >= rule.times:
            return False
    if rule.p < 1.0 and unit_draw(plan.seed, name, rule.hits) >= rule.p:
        return False
    if rule.destructive() and not rule.host \
            and os.getpid() == plan.host_pid:
        _INCIDENTS.append(Incident(name, rule.mode, "suppressed"))
        return False
    rule.fired += 1
    plan.ledger_record(name)
    _INCIDENTS.append(Incident(name, rule.mode, "injected"))
    return True


def faultpoint(name: str, **context) -> None:
    """Fire the active plan's rule for ``name``, if any.

    The decision sequence per call: count the hit, honor ``after``,
    honor the (ledger-backed) ``times`` budget, make the deterministic
    ``p`` draw, apply the host gate for destructive modes, record the
    incident (ledger first, so even an ``exit`` leaves a trace), then
    execute the action.  Everything up to the action is one atomic step.
    """
    plan = active_plan()
    if plan is None:
        return
    rule = plan.rule_for(name)
    if rule is None:
        return
    with _LOCK:
        if not _fires(plan, rule, name):
            return
    _ACTIONS[rule.mode](rule, plan, name, context)
