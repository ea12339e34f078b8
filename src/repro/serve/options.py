"""Arguments of the ``serve``, ``submit`` and ``jobs`` subcommands.

Kept apart from :mod:`repro.serve.server` and :mod:`repro.serve.client`
so that building the main CLI parser imports neither asyncio nor
``http.client``; the command bodies load those on dispatch.
"""

from __future__ import annotations

import argparse

__all__ = ["DEFAULT_URL", "add_jobs_arguments", "add_serve_arguments",
           "add_submit_arguments"]

DEFAULT_URL = "http://127.0.0.1:8023"


def add_serve_arguments(serve) -> None:
    """Add the ``serve`` command's arguments to its subparser."""
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8023,
                       help="TCP port (0 picks a free one; default 8023)")
    serve.add_argument("--runs-dir", default=None, metavar="DIR",
                       help="run-store root (default: $REPRO_RUNS_DIR or "
                            "~/.cache/repro-runs)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="default process fan-out for jobs that don't "
                            "set their own 'workers' parameter")
    serve.add_argument("--slots", type=int, default=1, metavar="N",
                       help="jobs run concurrently (default 1; each job "
                            "fans out over the shared warm pool itself)")
    serve.add_argument("--max-queue", type=int, default=64, metavar="N",
                       help="pending-job bound before submissions get "
                            "429 backpressure (default 64)")
    serve.add_argument("--quantum", type=float, default=1.0,
                       help="fair-share deficit quantum per scheduling "
                            "visit (default 1.0)")
    serve.add_argument("--tenant-weight", action="append", default=[],
                       metavar="TENANT=WEIGHT",
                       help="fair-share weight for one tenant "
                            "(repeatable; unlisted tenants weigh 1.0)")
    serve.add_argument("--history", type=int, default=256, metavar="N",
                       help="finished jobs kept for list/show (default "
                            "256)")
    serve.add_argument("--progress-interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="SSE progress-event cadence (default 1.0)")
    serve.add_argument("--grace", type=float, default=None,
                       metavar="SECONDS",
                       help="shutdown wait for running jobs (default: "
                            "wait until they finish)")
    serve.add_argument("--ready-file", default=None, metavar="FILE",
                       help="write the listening URL here once ready "
                            "(atomic; for harnesses and scripts)")
    serve.add_argument("--inject-faults", default=None, metavar="SPEC",
                       help="deterministic fault injection inside the "
                            "daemon (see DESIGN.md)")
    serve.add_argument("--faults-seed", type=int, default=0)
    serve.add_argument("--faults-ledger", default=None, metavar="FILE")


def add_submit_arguments(submit) -> None:
    """Add the ``submit`` command's arguments to its subparser."""
    submit.add_argument("kind", choices=("campaign", "evaluate", "fig8"))
    submit.add_argument("params", nargs="*", metavar="NAME=VALUE",
                        help="job parameters, e.g. scheme=on_die_ecc "
                             "samples=20000")
    submit.add_argument("--url", default=None,
                        help="daemon URL (default: $REPRO_SERVE_URL or "
                             f"{DEFAULT_URL})")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget from submission; the "
                             "daemon cancels the job once exceeded")
    submit.add_argument("--retries", type=int, default=2, metavar="N",
                        help="extra attempts for connection-refused / "
                             "queue-full answers, with exponential "
                             "backoff (default 2)")
    submit.add_argument("--watch", action="store_true",
                        help="stream progress to stderr and print the "
                             "final report to stdout")
    submit.add_argument("--timeout", type=float, default=3600.0,
                        help="watch timeout in seconds (default 3600)")


def add_jobs_arguments(jobs) -> None:
    """Add the ``jobs`` command's arguments to its subparser."""
    jobs.add_argument("--url", default=None,
                      help="daemon URL (default: $REPRO_SERVE_URL or "
                           f"{DEFAULT_URL})")
    actions = jobs.add_subparsers(dest="action", required=True)
    listing = actions.add_parser("list", help="list known jobs")
    listing.add_argument("--tenant", default=None)
    listing.add_argument("--state", default=None,
                         choices=("queued", "running", "completed",
                                  "failed", "cancelled"))
    show = actions.add_parser("show", help="one job, result included")
    show.add_argument("job_id")
    watch = actions.add_parser("watch", help="stream a job's SSE events "
                               "(reconnects across daemon restarts)")
    watch.add_argument("job_id")
    watch.add_argument("--timeout", type=float, default=3600.0)
    cancel = actions.add_parser("cancel",
                                help="cancel a queued or running job")
    cancel.add_argument("job_id")
    # accept --url after the subaction too (`repro jobs list --url ...`);
    # SUPPRESS keeps an unset subaction flag from clobbering the parent's
    for action in (listing, show, watch, cancel):
        action.add_argument("--url", default=argparse.SUPPRESS,
                            help="daemon URL (default: $REPRO_SERVE_URL "
                                 f"or {DEFAULT_URL})")
