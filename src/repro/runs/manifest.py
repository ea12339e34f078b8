"""Per-invocation run manifests.

Every cached CLI invocation writes one manifest: what was asked for
(command + config), what produced it (package version, code fingerprint,
git commit when available), how it went (status, wall-clock per stage,
cache hit/miss counters) and where it came from (``resumed_from``).  The
manifest is written atomically twice — once as ``running`` when the
invocation starts, so an interrupted sweep still leaves a resumable
record, and once with its final status and counters at the end.
"""

from __future__ import annotations

import json
import secrets
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro.runs.durable import durable_write_text

__all__ = ["RunManifest", "new_run_id", "git_commit"]

_SCHEMA = 1


def new_run_id(now: float | None = None) -> str:
    """Sortable, collision-resistant run id: UTC timestamp + random hex."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(now))
    return f"{stamp}-{secrets.token_hex(3)}"


_HEX = frozenset("0123456789abcdef")


def git_commit() -> str | None:
    """Short (7-digit) commit hash of the working tree, or None outside a
    checkout.

    Read from the repository's files rather than by running ``git``, which
    costs a few milliseconds on every run: find ``.git`` from the working
    directory up (a directory, or a ``gitdir:`` file in a linked worktree
    or submodule), then follow ``HEAD`` through the loose ref files and
    ``packed-refs``.  A detached ``HEAD`` holds the hash itself.
    """
    try:
        git_dir = _find_git_dir(Path.cwd())
        if git_dir is None:
            return None
        common = git_dir
        if (git_dir / "commondir").is_file():
            common = git_dir / (git_dir / "commondir").read_text().strip()
        head = (git_dir / "HEAD").read_text().strip()
        for _ in range(8):  # symbolic refs may chain; bound the walk
            if not head.startswith("ref:"):
                break
            head = _read_ref(git_dir, common, head[4:].strip())
    except (OSError, UnicodeDecodeError, ValueError):
        return None
    if len(head) in (40, 64) and set(head) <= _HEX:  # SHA-1 or SHA-256
        return head[:7]
    return None


def _find_git_dir(start: Path) -> Path | None:
    for folder in (start, *start.parents):
        dot_git = folder / ".git"
        if dot_git.is_dir():
            return dot_git
        if dot_git.is_file():
            text = dot_git.read_text().strip()
            if text.startswith("gitdir:"):
                return folder / text[len("gitdir:"):].strip()
    return None


def _read_ref(git_dir: Path, common: Path, name: str) -> str:
    """What ref ``name`` holds (a hash or ``ref: ...``); "" if unknown."""
    for root in dict.fromkeys((git_dir, common)):  # per-worktree refs first
        try:
            return (root / name).read_text().strip()
        except (FileNotFoundError, NotADirectoryError, IsADirectoryError):
            pass
    try:
        packed = (common / "packed-refs").read_text()
    except FileNotFoundError:
        return ""
    for line in packed.splitlines():
        value, _, ref = line.partition(" ")
        if ref == name and not line.startswith(("#", "^")):
            return value
    return ""


@dataclass
class RunManifest:
    """Provenance record of one cached CLI invocation."""

    run_id: str
    command: str
    config: dict
    status: str = "running"  #: running | completed | failed
    started_at: float = 0.0
    finished_at: float | None = None
    version: str = ""
    fingerprint: str = ""
    git_commit: str | None = None
    #: wall-clock seconds per named stage, in execution order
    stages: dict = field(default_factory=dict)
    #: free-form command metrics (e.g. per-stage events_per_second)
    counters: dict = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    resumed_from: str | None = None

    @property
    def duration_s(self) -> float | None:
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_dict(self) -> dict:
        return {"schema": _SCHEMA, **asdict(self)}

    @classmethod
    def from_dict(cls, data: dict) -> RunManifest:
        """Build a manifest from stored JSON, tolerating schema drift.

        Older manifests may lack fields added since they were written and
        newer ones may carry fields this version doesn't know; both load —
        unknown keys are dropped, missing ones take their defaults.  Only
        the identity fields (``run_id``, ``command``) are required.
        """
        if not isinstance(data, dict):
            raise ValueError(f"manifest is not an object: {data!r}")
        known = {f.name for f in fields(cls)}
        data = {k: v for k, v in data.items() if k in known}
        for required in ("run_id", "command"):
            if required not in data:
                raise ValueError(f"manifest is missing {required!r}")
        data.setdefault("config", {})
        return cls(**data)

    def save(self, path: Path) -> None:
        """Atomic, durable write (temp file + fsync + rename)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        durable_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            fault_point="store.manifest",
        )

    @classmethod
    def load(cls, path: Path) -> RunManifest:
        return cls.from_dict(json.loads(path.read_text()))
