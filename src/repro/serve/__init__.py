"""``repro serve`` — multi-tenant async campaign service.

Layers (stdlib-only, no web framework):

* :mod:`repro.serve.jobs` — job model, parameter normalization, and the
  dedupe registry (identical in-flight submissions collapse to one job);
* :mod:`repro.serve.journal` — write-ahead job journal: fsync'd state
  transitions under the run store, replayed on startup so a daemon
  crash loses no acknowledged work;
* :mod:`repro.serve.scheduler` — bounded priority + weighted-deficit
  round-robin fair-share queue across tenants;
* :mod:`repro.serve.runner` — executes a job as the *exact* CLI command
  body (byte-identical reports) with store-backed resume and
  cooperative cancellation (:class:`~repro.serve.runner.JobCancelled`);
* :mod:`repro.serve.sse` — per-job broadcast channels and server-sent
  event encoding (ids monotonic across restarts);
* :mod:`repro.serve.server` — the asyncio HTTP daemon (``repro serve``);
* :mod:`repro.serve.client` — the thin retrying client (``repro
  submit``, ``repro jobs``).

The exports below load on first access (PEP 562), so the CLI can
import the subcommand parsers in :mod:`repro.serve.options` without
pulling in asyncio.
"""

from repro._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "BroadcastChannel": "sse",
    "FairShareScheduler": "scheduler",
    "JobCancelled": "runner",
    "JobError": "jobs",
    "JobJournal": "journal",
    "JobRegistry": "jobs",
    "JournalReplay": "journal",
    "QueueFull": "scheduler",
    "UnknownJobError": "jobs",
    "encode_sse": "sse",
    "execute_job": "runner",
    "job_keys": "runner",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
