"""repro.obs — structured observability for long-running pipelines.

Every long-running path in the reproduction (the Monte Carlo sweeps, the
beam-statistics campaign, the cached CLI invocations) reports
through this package instead of hand-rolled timing dicts:

* :class:`Tracer` / :class:`SpanRecord` — hierarchical wall-clock spans
  (``span("campaign")`` → ``span("chunk", index=i)`` → ``span("scan")``)
  with numeric counters attached to the active span;
* :meth:`Tracer.merge` — process-pool-aware aggregation: workers run
  their own tracer, ship the finished :class:`SpanRecord` list back over
  the existing result channel, and the parent grafts them under its
  current span with worker provenance tags;
* :class:`Heartbeat` — periodic progress lines (items done, events/s,
  ETA) on stderr or an arbitrary callback;
* :func:`write_trace` / :func:`read_trace` — checksummed JSONL export,
  stored by the run store next to each run's manifest and rendered by
  ``repro runs trace <run-id>``;
* :func:`render_trace_tree` / :func:`render_slowest` — the flame-style
  per-stage tree and the slowest-span table behind that subcommand.

The package is dependency-free within ``repro`` (stdlib only), so every
layer — beam, errormodel, runs, cli — can import it without cycles.
"""

from repro.obs.heartbeat import Heartbeat
from repro.obs.render import render_slowest, render_trace_tree
from repro.obs.spans import (
    SpanRecord,
    Tracer,
    counter_totals,
    slowest_spans,
    stage_totals,
)
from repro.obs.trace import (
    TraceCorrupt,
    read_trace,
    read_trace_tolerant,
    write_trace,
)

__all__ = [
    "Heartbeat",
    "SpanRecord",
    "TraceCorrupt",
    "Tracer",
    "counter_totals",
    "read_trace",
    "read_trace_tolerant",
    "render_slowest",
    "render_trace_tree",
    "slowest_spans",
    "stage_totals",
    "write_trace",
]
