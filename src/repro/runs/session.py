"""Run sessions: the glue between the CLI and the run store.

A :class:`RunSession` wraps one cached CLI invocation — it allocates a run
id, writes the ``running`` manifest up front (so interrupted sweeps leave
a resumable record, indexed under the store's ``resumable/`` until the run
completes), exposes a :class:`CellCache` for the Monte Carlo
harness, times named stages, and finalizes the manifest with cache
hit/miss counters.  ``--resume <id>`` re-opens a prior run's config so an
interrupted sweep restarts with identical parameters; the
content-addressed store then turns every already-completed cell into a
cache hit, so only the unfinished cells are recomputed.

Every session carries a :class:`repro.obs.Tracer`.  :meth:`RunSession.stage`
opens one span per named stage (still mirroring the wall-clock into
``manifest.stages`` for ``repro runs show``), the evaluation harnesses nest
their cell/chunk spans underneath it, and :meth:`RunSession.finish` exports
the whole tree as a checksummed JSONL trace artifact next to the manifest —
the file ``repro runs trace <run-id>`` renders.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager

import repro
from repro import faults
from repro.errormodel.montecarlo import PatternOutcome
from repro.errormodel.patterns import ErrorPattern
from repro.obs import Tracer, counter_totals, write_trace
from repro.runs.artifacts import canonical_json
from repro.runs.durable import durable_append_line
from repro.runs.fingerprint import code_fingerprint
from repro.runs.manifest import RunManifest, git_commit, new_run_id
from repro.runs.store import RunStore, UnknownRunError

_LOGGER = logging.getLogger(__name__)

__all__ = ["CellCache", "RunSession", "CampaignCheckpoint",
           "read_checkpoint"]


def read_checkpoint(path) -> tuple[list[dict], int]:
    """(parsed entries, torn-line count) of a checkpoint log.

    Checkpoints are fsync'd line appends, so the only damage a crash can
    inflict is a torn *final* line; any unparseable line is treated as
    end-of-write garbage and counted, never raised.
    """
    import json

    if not path.exists():
        return [], 0
    entries, torn = [], 0
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line))
        except ValueError:
            torn += 1
    return entries, torn


class CellCache:
    """Content-addressed cache of Table-2 cells, with hit/miss counters.

    This is the object :func:`repro.errormodel.montecarlo.evaluate_scheme`
    and :func:`~repro.errormodel.montecarlo.sdc_risk_table` accept as
    ``cache=``: ``lookup`` returns a stored
    :class:`~repro.errormodel.montecarlo.PatternOutcome` (bit-identical to
    a cold run) or None, and ``record`` persists a freshly computed one —
    appending to the session's checkpoint log so interrupted sweeps are
    observable cell by cell.
    """

    def __init__(
        self,
        store: RunStore,
        fingerprint: str | None = None,
        checkpoint_path=None,
    ) -> None:
        self.store = store
        self.fingerprint = fingerprint or code_fingerprint()
        self.checkpoint_path = checkpoint_path
        self.hits = 0
        self.misses = 0

    def key_for(self, scheme: str, pattern: ErrorPattern, samples: int,
                seed: int, exhaustive_triples: bool,
                token: str | None = None) -> str:
        return self.store.cell_key(
            scheme, pattern, samples, seed, exhaustive_triples,
            self.fingerprint, token=token,
        )

    def lookup(self, scheme: str, pattern: ErrorPattern, samples: int,
               seed: int, exhaustive_triples: bool,
               token: str | None = None) -> PatternOutcome | None:
        key = self.key_for(scheme, pattern, samples, seed, exhaustive_triples,
                           token)
        outcome = self.store.load_cell(key)
        if outcome is None or outcome.pattern is not pattern:
            self.misses += 1
            return None
        self.hits += 1
        return outcome

    def record(self, scheme: str, pattern: ErrorPattern, samples: int,
               seed: int, exhaustive_triples: bool,
               outcome: PatternOutcome, token: str | None = None) -> None:
        key = self.key_for(scheme, pattern, samples, seed, exhaustive_triples,
                           token)
        self.store.save_cell(key, outcome)
        if self.checkpoint_path is not None:
            self.checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
            durable_append_line(self.checkpoint_path, canonical_json({
                "kind": "cell",
                "key": key,
                "scheme": scheme,
                "pattern": pattern.name,
                "elapsed_s": outcome.elapsed_s,
                "t": time.time(),
            }), fault_point="checkpoint.torn_write")


class CampaignCheckpoint:
    """Append-only progress log for a beam campaign's microbenchmark runs.

    :meth:`repro.beam.campaign.BeamCampaign.run` calls :meth:`record_run`
    after each completed run, so an interrupted campaign leaves a
    time-stamped record of how far it got (visible via ``repro runs
    show``); the whole-campaign artifact cache then makes the re-invocation
    free once the campaign has completed once.
    """

    def __init__(self, path) -> None:
        self.path = path

    def record_run(self, run_index: int, records, clock) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        durable_append_line(self.path, canonical_json({
            "kind": "campaign-run",
            "run": run_index,
            "records": len(records),
            "elapsed_s": clock.elapsed_s,
            "fluence": clock.fluence,
            "t": time.time(),
        }), fault_point="checkpoint.torn_write")

    def completed_runs(self) -> list[dict]:
        entries, _ = read_checkpoint(self.path)
        return entries


class RunSession:
    """One cached CLI invocation: manifest + cell cache + stage timing."""

    def __init__(self, store: RunStore, manifest: RunManifest,
                 cache: CellCache) -> None:
        self.store = store
        self.manifest = manifest
        self.cell_cache = cache
        self.tracer = Tracer()

    @classmethod
    def begin(
        cls,
        command: str,
        config: dict,
        *,
        root=None,
        resume: str | None = None,
    ) -> RunSession:
        """Open a session, honoring ``--resume`` by re-reading that run's
        config (an explicit resume always restarts the *same* sweep)."""
        store = RunStore(root)
        if resume is not None:
            prior = store.load_manifest(resume)
            if prior.command != command:
                raise ValueError(
                    f"run {resume} was a `{prior.command}` invocation; "
                    f"it cannot resume `{command}`"
                )
            config = dict(prior.config)
        fingerprint = code_fingerprint()
        manifest = RunManifest(
            run_id=new_run_id(),
            command=command,
            config=config,
            status="running",
            started_at=time.time(),
            version=repro.__version__,
            fingerprint=fingerprint,
            git_commit=git_commit(),
            resumed_from=resume,
        )
        # marker first: a crash between the two leaves an orphan marker
        # (pruned), never a running manifest the index does not know
        store.mark_resumable(command, config, manifest.run_id)
        manifest.save(store.manifest_path(manifest.run_id))
        cache = CellCache(
            store, fingerprint,
            checkpoint_path=store.checkpoint_path(manifest.run_id),
        )
        return cls(store, manifest, cache)

    @property
    def run_id(self) -> str:
        return self.manifest.run_id

    @property
    def config(self) -> dict:
        return self.manifest.config

    @property
    def fingerprint(self) -> str:
        return self.manifest.fingerprint

    def campaign_checkpoint(self) -> CampaignCheckpoint:
        return CampaignCheckpoint(self.store.checkpoint_path(self.run_id))

    @contextmanager
    def stage(self, name: str):
        """Time one named stage into the manifest and the session trace."""
        started = time.perf_counter()
        try:
            with self.tracer.span(name):
                yield
        finally:
            self.manifest.stages[name] = round(
                time.perf_counter() - started, 6
            )

    def record_counters(self, counters: dict) -> None:
        """Merge command metrics (JSON-safe scalars) into the manifest —
        e.g. the statistics engine's per-stage events-per-second — so
        ``repro runs show`` can surface throughput alongside wall-clock."""
        self.manifest.counters.update(counters)

    @contextmanager
    def active(self):
        """Finalize the manifest whatever happens inside the body."""
        try:
            yield self
        except BaseException:
            self.finish(status="failed")
            raise
        else:
            self.finish(status="completed")

    def finish(self, status: str = "completed") -> None:
        self.manifest.status = status
        self.manifest.finished_at = time.time()
        self.manifest.cache_hits = self.cell_cache.hits
        self.manifest.cache_misses = self.cell_cache.misses
        self._export_trace()
        # Robustness incidents become manifest counters: every injected
        # fault (ledger-aware, so crashes of *predecessor* processes under
        # --resume still show) and every artifact quarantined this run.
        self.manifest.counters.update(faults.counters())
        if self.store.quarantined:
            self.manifest.counters["artifacts_quarantined"] = (
                self.store.quarantined
            )
        self.manifest.save(self.store.manifest_path(self.run_id))
        if status == "completed":  # a failed run stays resumable
            marker = self.store.resumable_marker(
                self.manifest.command, self.config, self.run_id)
            faults.faultpoint("runs.index.update", path=str(marker))
            marker.unlink(missing_ok=True)
            self._retire_predecessors()

    def _retire_predecessors(self) -> None:
        """Drop the markers of the runs this one resumed, back along the
        ``resumed_from`` chain: its completion carries their work, so no
        later job should resume them (see ``RunStore._incomplete_runs``)."""
        seen = {self.run_id}
        predecessor = self.manifest.resumed_from
        while predecessor is not None and predecessor not in seen:
            seen.add(predecessor)
            self.store.resumable_marker(
                self.manifest.command, self.config, predecessor,
            ).unlink(missing_ok=True)
            try:
                predecessor = self.store.load_manifest(predecessor).resumed_from
            except UnknownRunError:
                break

    def _export_trace(self) -> None:
        """Persist the session trace next to the manifest (best effort)."""
        records = self.tracer.records
        if not records:
            return
        # Only root (stage-level) counters go to the manifest: nested spans
        # repeat their parents' tallies (a campaign's events counter is the
        # sum of its chunks'), so summing the whole tree would double-count.
        roots = [r for r in records if r.parent_id is None]
        for name, value in counter_totals(roots).items():
            self.manifest.counters.setdefault(name, value)
        try:
            write_trace(
                self.store.trace_path(self.run_id), records,
                meta={"run_id": self.run_id,
                      "command": self.manifest.command},
            )
        except OSError as exc:
            _LOGGER.warning("could not write trace for run %s (%s)",
                            self.run_id, exc)

    def summary(self) -> str:
        """One-line cache report the CLI prints after the tables."""
        return (
            f"[repro runs] {self.run_id}: "
            f"{self.cell_cache.hits} cache hits, "
            f"{self.cell_cache.misses} misses | store {self.store.root}"
        )
