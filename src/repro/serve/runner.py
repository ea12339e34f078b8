"""Executing one submitted job inside the daemon, byte-identical to the CLI.

A job does not reimplement its command — it *is* the command: the runner
builds the same argparse-shaped namespace the CLI would have produced,
points the command body's ``out`` writer at a line collector instead of
stdout, and calls the exact ``repro.cli`` function (``_cmd_campaign``,
``_cmd_evaluate``, ``_cmd_fig8``).  The report a client fetches is
therefore byte-identical to a direct ``repro <kind>`` invocation by
construction — the property ``repro chaos --serve`` asserts end to end.

Content keys are computed *before* scheduling (:func:`job_keys`): the
dedupe key hashes the result-bearing parameters + code fingerprint with
the store's own canonical-JSON machinery, and the per-artifact keys let
the server flag a submission ``precached`` when the content-addressed
store already holds every artifact it would compute.

Crash recovery is the run store's ``--resume`` contract, applied
automatically: before starting, :func:`find_resumable` looks for an
interrupted run of the same command + config in the store, and the job
resumes it — completed cells and checkpoints become cache hits, so a
daemon killed mid-job (chaos's torn-write faults) finishes the remainder
on resubmission instead of recomputing from zero.  The lookup reads the
store's ``resumable/`` index, so it loads only the manifests of unfinished
runs under the job's (command, config) key and costs the same on an empty
store as on one holding thousands of completed runs; the daemon rebuilds
that index from the manifests once at start-up.
"""

from __future__ import annotations

from argparse import Namespace

from repro.runs.fingerprint import code_fingerprint
from repro.runs.store import RunStore
from repro.serve.jobs import JobError, job_identity

__all__ = [
    "JobCancelled",
    "build_namespace",
    "execute_job",
    "find_resumable",
    "job_keys",
]


class JobCancelled(BaseException):
    """A job thread observed a cancellation request (or blown deadline).

    Deliberately a :class:`BaseException` — like ``KeyboardInterrupt`` —
    so the broad ``except Exception`` recovery paths inside the engines
    and pool cannot swallow the abort on its way out of the command
    body.  The partially-completed run stays resumable: every finished
    cell/chunk is already checkpointed in the run store, so a later
    identical submission picks the work back up as cache hits.
    """

    def __init__(self, reason: str = "cancelled") -> None:
        super().__init__(reason)
        self.reason = reason

#: schema stamp inside the dedupe-key material (bump on layout change)
_JOB_KEY_SCHEMA = 1

#: heartbeat cadence bridged into SSE progress events (seconds)
DEFAULT_PROGRESS_INTERVAL_S = 1.0


def _session_config(kind: str, args: Namespace) -> dict:
    from repro import cli

    builders = {
        "campaign": cli.campaign_session_config,
        "evaluate": cli.evaluate_session_config,
        "fig8": cli.fig8_session_config,
    }
    return builders[kind](args)


def _command_body(kind: str):
    from repro import cli

    return {
        "campaign": cli._cmd_campaign,
        "evaluate": cli._cmd_evaluate,
        "fig8": cli._cmd_fig8,
    }[kind]


def build_namespace(
    kind: str,
    params: dict,
    *,
    runs_dir=None,
    resume: str | None = None,
    progress=None,
    progress_interval_s: float = DEFAULT_PROGRESS_INTERVAL_S,
) -> Namespace:
    """The argparse namespace the equivalent CLI invocation would carry."""
    return Namespace(
        command=kind,
        cache=True,
        resume=resume,
        runs_dir=None if runs_dir is None else str(runs_dir),
        heartbeat=progress_interval_s if progress is not None else 0.0,
        heartbeat_callback=progress,
        inject_faults=None,
        faults_seed=0,
        faults_ledger=None,
        **params,
    )


def _artifact_keys(kind: str, identity: dict, store: RunStore,
                   fingerprint: str) -> list[tuple[str, object]]:
    """``(bucket, key)`` pairs for every artifact the job would store.

    ``evaluate``/``fig8`` enumerate their Table-2 cells (the CLI default
    ``exhaustive_triples=False``); ``campaign`` has one whole-campaign
    artifact (its statistics stage recomputes each run by design, so
    "precached" there means the beam half is free).
    """
    from repro.errormodel.patterns import ErrorPattern

    def cells(scheme) -> list[tuple[str, str]]:
        return [
            ("cells", store.cell_key(scheme.name, pattern,
                                     identity["samples"], identity["seed"],
                                     False, fingerprint,
                                     token=scheme.cache_token()))
            for pattern in ErrorPattern
        ]

    if kind == "campaign":
        from dataclasses import asdict

        from repro.cli import beam_campaign_config

        config = beam_campaign_config(identity)
        return [("campaigns",
                 store.campaign_key(asdict(config), fingerprint))]
    if kind == "evaluate":
        from repro.core import get_scheme

        try:
            scheme = get_scheme(identity["scheme"])
        except KeyError:
            raise JobError(
                f"unknown scheme {identity['scheme']!r}") from None
        return cells(scheme)
    if kind == "fig8":
        from repro.core import all_schemes

        keys: list[tuple[str, str]] = []
        for scheme in all_schemes():
            keys.extend(cells(scheme))
        return keys
    raise JobError(f"unknown job kind {kind!r}")


def job_keys(kind: str, params: dict, *, runs_dir=None,
             fingerprint: str | None = None) -> dict:
    """Content identity of a normalized job, computed before scheduling.

    Returns ``{"key", "artifacts", "precached"}``: the dedupe key, the
    number of store artifacts the job maps to, and whether every one of
    them is already present (a submission the store can answer without
    any computation).
    """
    fingerprint = fingerprint or code_fingerprint()
    identity = job_identity(kind, params)
    store = RunStore(runs_dir)
    key = RunStore.cache_key({
        "schema": _JOB_KEY_SCHEMA,
        "kind": "serve-job",
        "job": kind,
        "config": identity,
        "code": fingerprint,
    })
    artifacts = _artifact_keys(kind, identity, store, fingerprint)
    paths = {
        "cells": store.cell_path,
        "campaigns": store.campaign_path,
    }
    precached = bool(artifacts) and all(
        paths[bucket](artifact_key).exists()
        for bucket, artifact_key in artifacts
    )
    return {"key": key, "artifacts": len(artifacts), "precached": precached}


def find_resumable(store: RunStore, command: str,
                   config: dict) -> str | None:
    """Newest interrupted run of the same command + config, if any.

    This is the daemon's ``--resume``: a job whose predecessor died
    mid-run (chaos kills, daemon restarts) picks its manifest back up, so
    completed cells return as cache hits instead of being recomputed.
    Only the indexed candidates are read; each is still checked in full,
    since the index key is a truncated digest and a marker only a hint.
    """
    newest = None
    for manifest in store.load_resumable(command, config):
        if (manifest.command == command
                and manifest.status != "completed"
                and manifest.config == config
                and (newest is None
                     or manifest.started_at > newest.started_at)):
            newest = manifest
    return None if newest is None else newest.run_id


def execute_job(
    kind: str,
    params: dict,
    *,
    runs_dir=None,
    progress=None,
    progress_interval_s: float = DEFAULT_PROGRESS_INTERVAL_S,
    default_workers: int | None = None,
    should_abort=None,
) -> dict:
    """Run one normalized job to completion; returns the result payload.

    ``progress`` (a ``str -> None`` callable) receives the heartbeat
    lines the CLI would have written to stderr — the server bridges them
    into the job's SSE channel.  Runs on a worker thread; everything it
    touches is per-call except the shared warm pool, which is exactly the
    cross-campaign reuse the daemon exists to provide.

    ``should_abort`` (a ``() -> bool`` callable) is the cooperative
    cancellation seam: it is polled at every heartbeat emission — i.e. at
    most once per ``progress_interval_s`` — and a True answer raises
    :class:`JobCancelled` *inside the job thread*, unwinding the command
    body mid-campaign.  The run store's checkpoints make the abandoned
    run resumable, so cancellation never wastes completed work.
    """
    params = dict(params)
    if params.get("workers") is None and default_workers:
        params["workers"] = default_workers
    if should_abort is not None and progress is not None:
        inner_progress = progress

        def progress(line: str) -> None:
            if should_abort():
                raise JobCancelled("cancel requested")
            inner_progress(line)

    args = build_namespace(
        kind, params, runs_dir=runs_dir, progress=progress,
        progress_interval_s=progress_interval_s,
    )
    store = RunStore(runs_dir)
    config = _session_config(kind, args)
    args.resume = find_resumable(store, kind, config)

    lines: list[str] = []

    def out(text="") -> None:
        lines.append(str(text))

    session = _command_body(kind)(args, out=out)
    result = {
        "report": "\n".join(lines),
        "resumed_from": args.resume,
    }
    run_id = getattr(session, "run_id", None)
    if run_id is not None:
        result["run_id"] = run_id
        result["cache_hits"] = session.cell_cache.hits
        result["cache_misses"] = session.cell_cache.misses
    return result
