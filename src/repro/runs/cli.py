"""The ``repro runs`` subcommand: inspect and maintain the run store.

``repro runs list``            every stored run, newest first
``repro runs show <id>``       one run's manifest, stages and checkpoint
``repro runs trace <id>``      one run's span tree and slowest-span table
``repro runs diff <a> <b>``    compare two runs' config/provenance/counters
``repro runs gc``              drop artifacts and runs older than ``--days``,
                               then rebuild the resumable-run index

All timestamps render in UTC (suffixed ``Z``): manifests store UTC epoch
seconds, and mixing naive local time into the display made runs appear to
start hours away from their run-id timestamps.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

from repro.analysis.tables import format_table
from repro.runs.session import read_checkpoint
from repro.runs.store import RunStore

__all__ = ["add_runs_arguments", "cmd_runs"]


def add_runs_arguments(runs) -> None:
    """Add the ``runs`` command's arguments to its subparser."""
    runs.add_argument("--runs-dir", default=None,
                      help="store root (default: $REPRO_RUNS_DIR or "
                           "~/.cache/repro-runs)")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    runs_sub.add_parser("list", help="list stored runs, newest first")

    show = runs_sub.add_parser("show", help="print one run's manifest")
    show.add_argument("run_id")

    trace = runs_sub.add_parser(
        "trace", help="render one run's span tree and slowest spans")
    trace.add_argument("run_id")
    trace.add_argument("--limit", type=int, default=12, metavar="N",
                       help="children shown per span before eliding "
                            "(0 shows everything; default 12)")
    trace.add_argument("--slowest", type=int, default=5, metavar="N",
                       help="rows in the slowest-span table (default 5)")

    diff = runs_sub.add_parser("diff", help="compare two runs")
    diff.add_argument("run_a")
    diff.add_argument("run_b")

    gc = runs_sub.add_parser(
        "gc", help="remove old artifacts and runs, and rebuild the index "
                   "of resumable runs from their manifests")
    gc.add_argument("--days", type=float, default=30.0,
                    help="age threshold in days (default 30)")
    gc.add_argument("--all", action="store_true",
                    help="empty the store regardless of age")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be removed without removing it")


def _fmt_when(timestamp: float) -> str:
    """Manifest timestamps are UTC epoch seconds; render them as UTC too
    (explicit ``Z``), matching the UTC stamp embedded in run ids."""
    when = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    return when.strftime("%Y-%m-%d %H:%M:%SZ")


def _fmt_duration(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds < 120.0:
        return f"{seconds:.1f}s"
    return f"{seconds / 60.0:.1f}m"


def _cmd_list(store: RunStore) -> None:
    manifests = store.list_runs()
    if not manifests:
        print(f"no runs stored under {store.root}")
        return
    rows = [
        [m.run_id, m.command, m.status, _fmt_when(m.started_at),
         _fmt_duration(m.duration_s), str(m.cache_hits),
         str(m.cache_misses), m.resumed_from or "-"]
        for m in manifests
    ]
    print(format_table(
        ["run", "command", "status", "started", "took", "hits", "misses",
         "resumed from"],
        rows, title=f"run store: {store.root}",
    ))


def _fmt_counter(value) -> str:
    """One uniform rendering for manifest and obs counters."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        return f"{value:,.6g}"
    return str(value)


def _cmd_show(store: RunStore, run_id: str) -> None:
    manifest = store.load_manifest(run_id)
    print(f"run        {manifest.run_id}")
    print(f"command    {manifest.command}")
    print(f"status     {manifest.status}")
    print(f"started    {_fmt_when(manifest.started_at)}")
    print(f"took       {_fmt_duration(manifest.duration_s)}")
    print(f"version    {manifest.version}")
    print(f"code       {manifest.fingerprint}")
    print(f"commit     {manifest.git_commit or '-'}")
    print(f"cache      {manifest.cache_hits} hits, "
          f"{manifest.cache_misses} misses")
    if manifest.resumed_from:
        print(f"resumed    {manifest.resumed_from}")
    print(f"config     {json.dumps(manifest.config, sort_keys=True)}")
    if manifest.stages:
        print("stages:")
        for name, seconds in manifest.stages.items():
            print(f"  {name:<24} {seconds:.3f}s")
    if manifest.counters:
        print("counters:")
        for name in sorted(manifest.counters):
            print(f"  {name:<24} {_fmt_counter(manifest.counters[name])}")
    entries, torn = read_checkpoint(store.checkpoint_path(run_id))
    if entries:
        suffix = f" ({torn} torn line{'s' * (torn != 1)})" if torn else ""
        print(f"checkpoint {len(entries)} completed "
              f"{'cells' if entries[0].get('kind') == 'cell' else 'runs'}"
              f"{suffix}")
    if store.trace_path(run_id).exists():
        print(f"trace      stored (`repro runs trace {run_id}`)")


def _cmd_trace(store: RunStore, run_id: str, limit: int,
               slowest: int) -> int:
    """Render a stored trace, salvaging the valid prefix when damaged.

    Exit 1 when no trace exists, 0 otherwise — a truncated or torn
    ``trace.jsonl`` (e.g. from a killed run) renders whatever prefix
    survived, with a warning on stderr, instead of refusing outright.
    """
    import sys
    from collections import Counter

    from repro.obs import (
        read_trace_tolerant,
        render_slowest,
        render_trace_tree,
    )

    manifest = store.load_manifest(run_id)  # surfaces UnknownRunError first
    path = store.trace_path(run_id)
    if not path.exists():
        print(f"run {run_id} has no stored trace "
              "(recorded before tracing existed, or with caching off)")
        return 1
    _, records, problem = read_trace_tolerant(path)
    if problem is not None:
        print(f"repro: warning: trace for run {run_id} is damaged "
              f"({problem}); rendering the {len(records)} spans that "
              "survived", file=sys.stderr)
    print(f"trace of run {run_id} ({manifest.command}, "
          f"{len(records)} spans)")
    print()
    print(render_trace_tree(records, max_children=limit))
    leaves = Counter(r.name for r in records if r.parent_id is not None)
    if leaves and slowest > 0:
        name = leaves.most_common(1)[0][0]
        print()
        print(render_slowest(records, name, top=slowest))
    return 0


def _cmd_diff(store: RunStore, run_a: str, run_b: str) -> None:
    a = store.load_manifest(run_a)
    b = store.load_manifest(run_b)
    rows = []
    keys = sorted(set(a.config) | set(b.config))
    for key in keys:
        left, right = a.config.get(key), b.config.get(key)
        if left != right:
            rows.append([f"config.{key}", repr(left), repr(right)])
    for label, left, right in (
        ("command", a.command, b.command),
        ("status", a.status, b.status),
        ("version", a.version, b.version),
        ("code fingerprint", a.fingerprint, b.fingerprint),
        ("git commit", a.git_commit, b.git_commit),
        ("cache hits", a.cache_hits, b.cache_hits),
        ("cache misses", a.cache_misses, b.cache_misses),
        ("took", _fmt_duration(a.duration_s), _fmt_duration(b.duration_s)),
    ):
        if left != right:
            rows.append([label, str(left), str(right)])
    if not rows:
        print(f"runs {run_a} and {run_b} are identical "
              "(config, provenance and counters)")
        return
    print(format_table(["field", run_a, run_b], rows,
                       title="run differences"))


def _cmd_gc(store: RunStore, days: float, dry_run: bool) -> None:
    stats = store.gc(days=days, dry_run=dry_run)
    verb = "would remove" if dry_run else "removed"
    print(f"{verb} {stats.artifacts} artifacts and {stats.runs} runs "
          f"({stats.bytes / 1024:.1f} KiB) older than {days:g} days "
          f"from {store.root}")
    if stats.protected:
        print(f"kept {stats.protected} expired paths still referenced by "
              "in-progress or resumable runs")
    if stats.index_added or stats.index_dropped:
        print(f"resumable index rebuilt: {stats.index_added} markers added, "
              f"{stats.index_dropped} stale dropped")


def cmd_runs(args) -> int:
    """Dispatch ``repro runs <command>``; returns a process exit code."""
    import sys

    from repro.runs.store import UnknownRunError

    store = RunStore(args.runs_dir)
    try:
        if args.runs_command == "list":
            _cmd_list(store)
        elif args.runs_command == "show":
            _cmd_show(store, args.run_id)
        elif args.runs_command == "trace":
            return _cmd_trace(store, args.run_id, args.limit, args.slowest)
        elif args.runs_command == "diff":
            _cmd_diff(store, args.run_a, args.run_b)
        elif args.runs_command == "gc":
            days = 0.0 if args.all else args.days
            _cmd_gc(store, days, args.dry_run)
    except UnknownRunError as exc:
        message = exc.args[0] if exc.args else exc
        print(f"repro: error: {message}", file=sys.stderr)
        return 2
    return 0
