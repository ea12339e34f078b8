"""The persistent run store: content-addressed artifacts on local disk.

Layout under the store root (``--runs-dir`` flag > ``REPRO_RUNS_DIR`` env
var > ``~/.cache/repro-runs``)::

    cells/<kk>/<key>.jsonl       one Table-2 cell (PatternOutcome) per file
    campaigns/<kk>/<key>.jsonl   one beam campaign (meta + mismatch log)
    runs/<run_id>/manifest.json  one manifest per CLI invocation
    runs/<run_id>/checkpoint.jsonl  append-only completed-cell/run log
    resumable/<rk>.<run_id>      empty marker: that run is not completed

``<key>`` is the SHA-256 of the canonical JSON of the cell's identity —
scheme, pattern, samples, seed, exhaustive flag, and the code fingerprint
(:func:`repro.runs.fingerprint.code_fingerprint`) — and ``<kk>`` its first
two hex chars (a fan-out directory so huge stores stay ``ls``-able).
Exhaustive cells normalize ``samples``/``seed`` to ``None``: their outcome
cannot depend on either, so ``repro evaluate --samples 500`` and ``repro
fig8 --samples 2000`` share the same artifact.

``<rk>`` is the first 16 hex digits of ``cache_key({"command", "config"})``
of the run.  The markers index the runs ``--resume`` can pick up, so the
serve daemon finds an interrupted run by listing one directory and reading
only the manifests whose marker carries its key, however many completed
runs the store holds.  A marker is a hint, never trusted on its own: every
lookup re-checks the manifest and prunes markers of completed or vanished
runs, and :meth:`RunStore.reindex_resumable` rebuilds the whole index from
one manifest scan (the daemon at start-up, ``repro runs gc``).  Markers are
not fsync'd — a marker lost to a power cut comes back at the next rebuild.

Corrupt artifacts (failed checksum, bad structure) are *quarantined* on
load — moved to ``quarantine/`` for post-mortem, never silently reused —
and reported as misses, so the caller transparently recomputes them.
Saves go through fsync'd atomic writes (:mod:`repro.runs.durable`), so a
crash mid-save never leaves a half-written artifact under its key.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

from repro.errormodel.montecarlo import PatternOutcome
from repro.errormodel.patterns import ErrorPattern
from repro.runs.artifacts import (
    ArtifactCorrupt,
    canonical_json,
    outcome_from_record,
    outcome_to_record,
    read_jsonl,
    write_jsonl_atomic,
)
from repro.runs.manifest import RunManifest

__all__ = ["RunStore", "GCStats", "UnknownRunError", "resolve_root",
           "ENV_VAR", "DEFAULT_ROOT"]

_LOGGER = logging.getLogger(__name__)

ENV_VAR = "REPRO_RUNS_DIR"
DEFAULT_ROOT = "~/.cache/repro-runs"

#: Artifact schema version, bumped on incompatible layout changes.
_SCHEMA = 1

#: Hex digits of the (command, config) key a resumable marker carries.
_RESUME_KEY_HEX = 16

#: A marker whose manifest is missing is left alone this long: a session
#: creates its marker just before its first manifest save, so a young
#: orphan may be a run that is still starting.
_ORPHAN_GRACE_S = 60.0

#: Patterns whose Table-2 cell is always enumerated exhaustively, making
#: the outcome independent of ``samples`` and ``seed``.
_ALWAYS_EXHAUSTIVE = frozenset({
    ErrorPattern.BIT,
    ErrorPattern.PIN,
    ErrorPattern.BYTE,
    ErrorPattern.DOUBLE_BIT,
})


class UnknownRunError(KeyError):
    """A run id was requested that the store has no manifest for."""


@dataclass(frozen=True)
class GCStats:
    """What a :meth:`RunStore.gc` pass removed (or would remove)."""

    artifacts: int
    runs: int
    bytes: int
    #: expired paths kept anyway because a live run still needs them
    protected: int = 0
    #: resumable-index markers the rebuild added / dropped as stale
    index_added: int = 0
    index_dropped: int = 0


def resolve_root(root: str | os.PathLike | None = None) -> Path:
    """Store root: explicit argument > ``REPRO_RUNS_DIR`` > default."""
    if root is not None:
        return Path(root).expanduser()
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env).expanduser()
    return Path(DEFAULT_ROOT).expanduser()


class RunStore:
    """Content-addressed artifact store plus per-invocation run records."""

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = resolve_root(root)
        #: corrupt artifacts moved aside by this store instance
        self.quarantined = 0

    # -- paths ----------------------------------------------------------------
    def cell_path(self, key: str) -> Path:
        return self.root / "cells" / key[:2] / f"{key}.jsonl"

    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def campaign_path(self, key: str) -> Path:
        return self.root / "campaigns" / key[:2] / f"{key}.jsonl"

    def run_dir(self, run_id: str) -> Path:
        return self.root / "runs" / run_id

    def manifest_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "manifest.json"

    def checkpoint_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "checkpoint.jsonl"

    def trace_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "trace.jsonl"

    def resumable_dir(self) -> Path:
        return self.root / "resumable"

    def resumable_marker(self, command: str, config: dict,
                         run_id: str) -> Path:
        return self.resumable_dir() / (
            f"{self.resume_key(command, config)}.{run_id}")

    # -- keys -----------------------------------------------------------------
    @staticmethod
    def cache_key(material: dict) -> str:
        """SHA-256 of the canonical JSON of an identity dict."""
        return sha256(canonical_json(material).encode()).hexdigest()

    @classmethod
    def resume_key(cls, command: str, config: dict) -> str:
        """Index key of a run: canonical JSON, so a config holding tuples
        and the same config loaded back from a manifest agree."""
        return cls.cache_key(
            {"command": command, "config": config})[:_RESUME_KEY_HEX]

    @classmethod
    def cell_key(
        cls,
        scheme: str,
        pattern: ErrorPattern,
        samples: int,
        seed: int,
        exhaustive_triples: bool,
        fingerprint: str,
        *,
        token: str | None = None,
    ) -> str:
        """Content address of one (scheme, pattern) Table-2 cell.

        ``token`` is the scheme's construction identity
        (:meth:`repro.core.scheme.ECCScheme.cache_token`) — an H-matrix
        digest for searched/parameterized codes — so two variants sharing
        a registry name can never collide.  It defaults to the name for
        callers addressing a scheme purely by registry identity.
        """
        exhaustive = pattern in _ALWAYS_EXHAUSTIVE or (
            pattern is ErrorPattern.TRIPLE_BIT and exhaustive_triples
        )
        return cls.cache_key({
            "schema": _SCHEMA,
            "kind": "cell",
            "scheme": scheme,
            "scheme_code": scheme if token is None else token,
            "pattern": pattern.name,
            "samples": None if exhaustive else int(samples),
            "seed": None if exhaustive else int(seed),
            "exhaustive": exhaustive,
            "code": fingerprint,
        })

    @classmethod
    def campaign_key(cls, config_material: dict, fingerprint: str) -> str:
        """Content address of one whole beam campaign."""
        return cls.cache_key({
            "schema": _SCHEMA,
            "kind": "campaign",
            "config": config_material,
            "code": fingerprint,
        })

    # -- quarantine -----------------------------------------------------------
    def _quarantine(self, path: Path, exc: Exception) -> None:
        """Move a corrupt artifact aside for post-mortem instead of
        deleting it; the caller recomputes and overwrites cleanly."""
        dest_dir = self.quarantine_dir()
        dest_dir.mkdir(parents=True, exist_ok=True)
        dest = dest_dir / path.name
        suffix = 0
        while dest.exists():
            suffix += 1
            dest = dest_dir / f"{path.name}.{suffix}"
        try:
            os.replace(path, dest)
        except OSError:
            path.unlink(missing_ok=True)  # cross-device edge; still a miss
        self.quarantined += 1
        _LOGGER.warning(
            "quarantined corrupt artifact %s -> %s (%s); it will be "
            "recomputed", path.name, dest, exc,
        )

    # -- cell artifacts -------------------------------------------------------
    def load_cell(self, key: str) -> PatternOutcome | None:
        """Cached outcome for a key, or None (missing / quarantined)."""
        path = self.cell_path(key)
        if not path.exists():
            return None
        try:
            header, record = read_jsonl(path)
            if header.get("kind") != "cell":
                raise ArtifactCorrupt(f"{path}: not a cell artifact")
            return outcome_from_record(record)
        except (ArtifactCorrupt, ValueError, KeyError, TypeError) as exc:
            self._quarantine(path, exc)
            return None

    def save_cell(self, key: str, outcome: PatternOutcome) -> None:
        write_jsonl_atomic(self.cell_path(key), [
            {"schema": _SCHEMA, "kind": "cell", "key": key},
            outcome_to_record(outcome),
        ], fault_point="store.save_cell")

    # -- campaign artifacts ---------------------------------------------------
    def load_campaign(self, key: str) -> tuple[dict, list[dict]] | None:
        """(meta, record dicts) for a cached campaign, or None."""
        path = self.campaign_path(key)
        if not path.exists():
            return None
        try:
            header, meta, *records = read_jsonl(path)
            if header.get("kind") != "campaign":
                raise ArtifactCorrupt(f"{path}: not a campaign artifact")
            return meta, records
        except (ArtifactCorrupt, ValueError, KeyError, TypeError) as exc:
            self._quarantine(path, exc)
            return None

    def save_campaign(self, key: str, meta: dict,
                      records: list[dict]) -> None:
        write_jsonl_atomic(self.campaign_path(key), [
            {"schema": _SCHEMA, "kind": "campaign", "key": key},
            meta,
            *records,
        ], fault_point="store.save_campaign")

    # -- runs -----------------------------------------------------------------
    def list_runs(self) -> list[RunManifest]:
        """Every stored manifest, newest first (unreadable ones skipped)."""
        runs_dir = self.root / "runs"
        manifests = []
        if runs_dir.is_dir():
            for run_dir in runs_dir.iterdir():
                try:
                    manifests.append(RunManifest.load(run_dir / "manifest.json"))
                except (OSError, ValueError, KeyError, TypeError):
                    continue
        manifests.sort(key=lambda m: m.started_at, reverse=True)
        return manifests

    def load_manifest(self, run_id: str) -> RunManifest:
        """Manifest for a run id; raises :class:`UnknownRunError` if absent."""
        path = self.manifest_path(run_id)
        try:
            return RunManifest.load(path)
        except (OSError, ValueError, KeyError, TypeError):
            raise UnknownRunError(
                f"no run {run_id!r} in store {self.root} "
                f"(try `repro runs list`)"
            ) from None

    def _incomplete_runs(self) -> list[tuple[Path, RunManifest]]:
        """(run dir, manifest) of every run not ``completed``: in progress
        or resumable.  Unreadable manifests are not resumable, nor is a
        run that a completed run resumed, directly or through a chain of
        interrupted resumes: the completed run carries its work."""
        runs_dir = self.root / "runs"
        if not runs_dir.is_dir():
            return []
        incomplete = []
        superseded: list[str | None] = []
        for run_dir in runs_dir.iterdir():
            try:
                manifest = RunManifest.load(run_dir / "manifest.json")
            except (OSError, ValueError, KeyError, TypeError):
                continue
            if manifest.status != "completed":
                incomplete.append((run_dir, manifest))
            else:
                superseded.append(manifest.resumed_from)
        resumed_from = {run_dir.name: manifest.resumed_from
                        for run_dir, manifest in incomplete}
        retired: set[str] = set()
        while superseded:
            run_id = superseded.pop()
            if run_id in resumed_from and run_id not in retired:
                retired.add(run_id)
                superseded.append(resumed_from[run_id])
        return [(run_dir, manifest) for run_dir, manifest in incomplete
                if run_dir.name not in retired]

    # -- resumable-run index --------------------------------------------------
    def mark_resumable(self, command: str, config: dict,
                       run_id: str) -> None:
        """Index a run that has not completed (no fsync: a hint only)."""
        self._touch(self.resumable_marker(command, config, run_id))

    @staticmethod
    def _touch(marker: Path) -> None:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_WRONLY, 0o644))
        except FileNotFoundError:  # the store's first run makes the index
            marker.parent.mkdir(parents=True, exist_ok=True)
            os.close(os.open(marker, os.O_CREAT | os.O_WRONLY, 0o644))

    def load_resumable(self, command: str,
                       config: dict) -> list[RunManifest]:
        """Manifests of the indexed unfinished runs under this command +
        config's key — the only manifests a resume lookup reads.

        Markers whose run has completed, or whose manifest is gone past
        the start-up grace, are pruned on the way.
        """
        index = self.resumable_dir()
        prefix = f"{self.resume_key(command, config)}."
        try:
            names = os.listdir(index)
        except FileNotFoundError:
            return []
        candidates = []
        for name in names:
            if not name.startswith(prefix):
                continue
            marker = index / name
            try:
                manifest = RunManifest.load(
                    self.manifest_path(name[len(prefix):]))
            except (OSError, ValueError, KeyError, TypeError):
                if not self._in_grace(marker):
                    marker.unlink(missing_ok=True)
                continue
            if manifest.status == "completed":
                marker.unlink(missing_ok=True)
                continue
            candidates.append(manifest)
        return candidates

    def reindex_resumable(
        self, incomplete: list[tuple[Path, RunManifest]] | None = None,
    ) -> tuple[int, int]:
        """Rebuild the resumable index from one manifest scan.

        Adds the marker of every unfinished run that lacks one (older
        stores, a create lost to a power cut) and drops every other marker
        past the start-up grace.  Returns ``(added, dropped)``.
        """
        if incomplete is None:
            incomplete = self._incomplete_runs()
        wanted = {
            self.resumable_marker(manifest.command, manifest.config,
                                  run_dir.name)
            for run_dir, manifest in incomplete
        }
        index = self.resumable_dir()
        present = set(index.iterdir()) if index.is_dir() else set()
        for marker in wanted - present:
            self._touch(marker)
        dropped = 0
        for marker in present - wanted:
            if not self._in_grace(marker):
                marker.unlink(missing_ok=True)
                dropped += 1
        return len(wanted - present), dropped

    @staticmethod
    def _in_grace(marker: Path) -> bool:
        """True while a marker is inside the start-up grace (or gone)."""
        try:
            age = time.time() - marker.stat().st_mtime
        except FileNotFoundError:
            return True
        return age < _ORPHAN_GRACE_S

    # -- garbage collection ---------------------------------------------------
    @staticmethod
    def _gc_protected(
        incomplete: list[tuple[Path, RunManifest]],
    ) -> tuple[set[str], set[str]]:
        """(run ids, artifact keys) that gc must keep regardless of age.

        Any run whose manifest status is not ``completed`` (and that no
        completed run resumed) is either in progress or resumable
        (``--resume`` restarts it and turns its finished cells into cache
        hits), so its run record — and every artifact its checkpoint log
        references — must survive collection.
        """
        protected_runs: set[str] = set()
        protected_keys: set[str] = set()
        for run_dir, _ in incomplete:
            protected_runs.add(run_dir.name)
            checkpoint = run_dir / "checkpoint.jsonl"
            if not checkpoint.is_file():
                continue
            try:
                lines = checkpoint.read_text().splitlines()
            except OSError:
                continue
            for line in lines:
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue  # torn final line after a kill
                key = entry.get("key") if isinstance(entry, dict) else None
                if isinstance(key, str):
                    protected_keys.add(key)
        return protected_runs, protected_keys

    def gc(self, *, days: float = 30.0, dry_run: bool = False) -> GCStats:
        """Remove artifacts and run records older than ``days`` (by mtime).

        ``days=0`` empties the store.  ``dry_run=True`` only reports what
        a real pass would reclaim.  Runs that are still in progress or
        resumable (manifest status other than ``completed``, and not
        resumed by a completed run) are never removed, nor are the
        artifacts their checkpoints reference —
        collecting those would silently restart a resumed sweep from zero.
        A real pass also rebuilds the resumable index from the same scan.
        """
        cutoff = time.time() - days * 86400.0
        incomplete = self._incomplete_runs()
        protected_runs, protected_keys = self._gc_protected(incomplete)
        artifacts = runs = freed = protected = 0
        for bucket in ("cells", "campaigns", "quarantine"):
            base = self.root / bucket
            if not base.is_dir():
                continue
            # quarantined copies may carry a .N collision suffix, so match
            # any file there; live buckets stay strict.
            pattern = "*" if bucket == "quarantine" else "*.jsonl"
            for path in base.rglob(pattern):
                if not path.is_file():
                    continue
                if path.stat().st_mtime <= cutoff:
                    if bucket != "quarantine" and path.stem in protected_keys:
                        protected += 1
                        continue
                    artifacts += 1
                    freed += path.stat().st_size
                    if not dry_run:
                        path.unlink(missing_ok=True)
        runs_dir = self.root / "runs"
        if runs_dir.is_dir():
            for run_dir in runs_dir.iterdir():
                if not run_dir.is_dir():
                    continue
                newest = max(
                    (p.stat().st_mtime for p in run_dir.iterdir()),
                    default=run_dir.stat().st_mtime,
                )
                if newest <= cutoff:
                    if run_dir.name in protected_runs:
                        protected += 1
                        continue
                    runs += 1
                    freed += sum(
                        p.stat().st_size for p in run_dir.rglob("*")
                        if p.is_file()
                    )
                    if not dry_run:
                        shutil.rmtree(run_dir, ignore_errors=True)
        added = dropped = 0
        if not dry_run:
            added, dropped = self.reindex_resumable(incomplete)
        return GCStats(artifacts=artifacts, runs=runs, bytes=freed,
                       protected=protected, index_added=added,
                       index_dropped=dropped)
