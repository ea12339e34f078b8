"""Environment fingerprint attached to every benchmark record.

Enough about the host to tell a noisy machine from a regression when two
records are compared later: CPU count, interpreter and library versions,
the code under test, the filesystem holding the run stores, and the load
average around the run.  Nothing here imports numpy or scipy; versions
come from package metadata so the fingerprint costs no start-up time.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, or None when it is not a git repository."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=5, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else None


def source_digest(src: Path) -> str:
    """SHA-256 over every Python source file under ``src`` (path + bytes),
    identifying the code under test where git is unavailable."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def filesystem_type(path: Path, mounts: str = "/proc/mounts") -> str | None:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    target = os.path.realpath(path)
    best, best_type = "", None
    try:
        with open(mounts) as handle:
            lines = handle.read().splitlines()
    except OSError:
        return None
    for line in lines:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1].replace("\\040", " ")
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, best_type = mount, fields[2]
    return best_type


def loadavg() -> list[float]:
    return [round(value, 2) for value in os.getloadavg()]


def fingerprint(root: Path, workdir: Path) -> dict:
    """Static part of the record; load averages are added around the run."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root / "src"),
        "workdir_fs": filesystem_type(workdir),
        "machine": platform.machine(),
    }
