"""Zero-copy shared-memory column broadcast for campaign fan-outs.

A pooled ``shm`` campaign's evaluation sweep needs one read-only column
in every worker: the damaged-entry set its scout sweep found.  Pickling
it into every submit would serialize it once per range job; instead the
host writes it once into a ``multiprocessing.shared_memory`` segment
(an *arena*) and each submit carries only a small descriptor:

* the host creates the arena and writes the columns into a slice
  ``(offset, capacity)`` with :func:`write_columns`, which returns a
  :class:`SliceDescriptor` — per-column ``(offset, count, dtype)``
  blocks plus a CRC32 of the bytes written — or ``None`` when the
  columns outgrow the slice;
* a worker maps the descriptor back with :func:`read_attached` (the
  checksum-verified, zero-copy :func:`read_columns` plus a copy out);
* the host unlinks the arena when the sweep finishes (or dies trying —
  see below).

Crash safety: the arena name embeds the creating pid, so a segment whose
creator is no longer alive is *stale* by construction.
:func:`cleanup_stale` reclaims such leftovers (a host killed mid-campaign
cannot unlink its own arena) and runs at every arena creation;
``faultpoint()`` hooks at create/attach/detach let ``repro chaos`` kill
processes at exactly those moments and assert the recovery story.

Python 3.11/3.12 note: ``SharedMemory`` registers every mapping — created
*or* attached — with the ``resource_tracker``, whose bookkeeping is a set;
concurrent worker attach/detach pairs race the host's create/unlink pair
and either side can strand or double-remove the entry (3.13's
``track=False`` is not available on the floor version we support).  All
arena mappings therefore run under :func:`_untracked`, which silences the
tracker for the duration; leak recovery is this module's own pid-based
orphan scan, not the tracker.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import stat
import weakref
import zlib
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.faults import faultpoint

__all__ = [
    "ColumnBlock",
    "ShmArena",
    "SliceDescriptor",
    "align",
    "cleanup_stale",
    "orphaned_segments",
    "read_attached",
    "read_columns",
    "release_arenas",
    "write_columns",
]

#: segment-name prefix — the orphan scanner keys on it
PREFIX = "repro-shm"

#: /dev/shm on every Linux; segment names become files here
_SHM_DIR = "/dev/shm"

#: slice offsets and column starts stay 16-byte aligned (float64/int64
#: views must not straddle alignment, and 16 keeps room for wider dtypes)
_ALIGN = 16


def align(n: int) -> int:
    """``n`` rounded up to the arena alignment quantum."""
    return (int(n) + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class ColumnBlock:
    """One column inside a slice: where it starts and how to view it."""

    key: str
    dtype: str  #: numpy dtype string, e.g. ``"<i8"``
    count: int  #: element count
    offset: int  #: absolute byte offset into the segment


@dataclass(frozen=True)
class SliceDescriptor:
    """What a worker sends back instead of pickled columns."""

    segment: str  #: arena segment name
    offset: int  #: slice base (bytes)
    length: int  #: bytes actually written
    checksum: int  #: CRC32 over the written column bytes, in block order
    columns: tuple  #: :class:`ColumnBlock` per column, write order


def _segment_name() -> str:
    """A fresh arena name: prefix, creator pid, random token."""
    return f"{PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"


@contextlib.contextmanager
def _untracked():
    """Keep the resource tracker out of arena segment (un)mapping."""
    register = resource_tracker.register
    unregister = resource_tracker.unregister
    resource_tracker.register = lambda name, rtype: None
    resource_tracker.unregister = lambda name, rtype: None
    try:
        yield
    finally:
        resource_tracker.register = register
        resource_tracker.unregister = unregister


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker adoption."""
    with _untracked():
        return shared_memory.SharedMemory(name=name)


#: every arena this process created and has not yet closed — the hook
#: :func:`release_arenas` (wired to SIGTERM/SIGINT/atexit by
#: :func:`repro.core.pool.install_shutdown_hooks`) unlinks them so a
#: killed host doesn't strand segments until the next stale-scan
_LIVE_ARENAS: "weakref.WeakSet[ShmArena]" = weakref.WeakSet()


def release_arenas() -> list[str]:
    """Close (detach + unlink) every live arena of this process.

    Returns the released segment names; idempotent — an arena already
    closed by its campaign is skipped.
    """
    released = []
    for arena in list(_LIVE_ARENAS):
        if arena._segment is not None:
            released.append(arena.name)
            try:
                arena.close()
            except OSError:  # pragma: no cover - teardown best-effort
                pass
    return sorted(released)


class ShmArena:
    """The host side of one campaign's shared-memory arena.

    Create with the total byte budget, hand workers ``(name, offset,
    capacity)`` triples, and :meth:`close` (or use as a context manager)
    when every descriptor has been read back — close unlinks, so views
    into the buffer must be copied out first.  Creation reclaims stale
    segments from dead processes and fires the ``shm.arena.create``
    faultpoint after the segment exists, which is how the chaos harness
    manufactures an orphaned arena.
    """

    def __init__(self, nbytes: int, *, name: str | None = None) -> None:
        self.reclaimed = cleanup_stale()
        self.nbytes = max(align(nbytes), _ALIGN)
        with _untracked():
            self._segment = shared_memory.SharedMemory(
                name=name or _segment_name(), create=True, size=self.nbytes,
            )
        self.name = self._segment.name
        _LIVE_ARENAS.add(self)
        faultpoint("shm.arena.create", segment=self.name)

    @property
    def buf(self) -> memoryview:
        return self._segment.buf

    def close(self) -> None:
        """Detach and unlink (idempotent)."""
        if self._segment is None:
            return
        segment, self._segment = self._segment, None
        try:
            segment.close()
        finally:
            with _untracked():
                try:
                    segment.unlink()
                except FileNotFoundError:
                    pass

    def __enter__(self) -> ShmArena:
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def write_columns(segment_name: str, offset: int, capacity: int,
                  columns: dict) -> SliceDescriptor | None:
    """Write ``columns`` into an arena slice; ``None`` when they don't fit.

    Fires ``shm.arena.attach`` before mapping the segment and
    ``shm.arena.detach`` after the bytes (and their checksum) are in
    place, bracketing exactly the window where a killed writer leaves a
    partially-written slice behind — which is harmless: a descriptor
    only exists once the write returned.
    """
    total = sum(align(array.nbytes) for array in columns.values())
    if total > capacity:
        return None
    faultpoint("shm.arena.attach", segment=segment_name, offset=offset)
    segment = _attach(segment_name)
    try:
        blocks = []
        cursor = int(offset)
        checksum = 0
        for key, array in columns.items():
            array = np.ascontiguousarray(array)
            raw = array.view(np.uint8).reshape(-1)
            segment.buf[cursor:cursor + raw.size] = raw.tobytes()
            checksum = zlib.crc32(
                segment.buf[cursor:cursor + raw.size], checksum
            )
            blocks.append(ColumnBlock(
                key=key, dtype=array.dtype.str, count=int(array.size),
                offset=cursor,
            ))
            cursor += align(raw.size)
        descriptor = SliceDescriptor(
            segment=segment_name, offset=int(offset),
            length=cursor - int(offset), checksum=checksum,
            columns=tuple(blocks),
        )
    finally:
        segment.close()
    faultpoint("shm.arena.detach", segment=segment_name, offset=offset)
    return descriptor


def read_columns(buf: memoryview,
                 descriptor: SliceDescriptor) -> dict:
    """Zero-copy column views for one descriptor, checksum-verified.

    The returned arrays alias ``buf`` — copy (e.g. concatenate) before
    the arena is closed.
    """
    checksum = 0
    columns: dict = {}
    for block in descriptor.columns:
        dtype = np.dtype(block.dtype)
        end = block.offset + block.count * dtype.itemsize
        checksum = zlib.crc32(buf[block.offset:end], checksum)
        columns[block.key] = np.frombuffer(
            buf, dtype=dtype, count=block.count, offset=block.offset,
        )
    if checksum != descriptor.checksum:
        raise ValueError(
            f"shm slice checksum mismatch in {descriptor.segment} at "
            f"offset {descriptor.offset}: expected "
            f"{descriptor.checksum:#010x}, read {checksum:#010x}"
        )
    return columns


def read_attached(descriptor: SliceDescriptor) -> dict:
    """Attach the descriptor's segment, copy its columns out, detach.

    The worker-side counterpart of :func:`read_columns`, for host→worker
    broadcasts (the shm engine ships its global damaged-entry set
    this way).  The returned arrays own their data, so they stay valid
    after the segment is unmapped — and after the host unlinks the arena.
    """
    faultpoint("shm.arena.attach", segment=descriptor.segment,
               offset=descriptor.offset)
    segment = _attach(descriptor.segment)
    try:
        columns = {
            key: np.array(view)
            for key, view in read_columns(segment.buf, descriptor).items()
        }
    finally:
        segment.close()
    faultpoint("shm.arena.detach", segment=descriptor.segment,
               offset=descriptor.offset)
    return columns


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


def orphaned_segments() -> list[str]:
    """Arena segments whose creating process is gone (name-embedded pid)."""
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:  # pragma: no cover - no /dev/shm on this platform
        return []
    orphans = []
    for entry in entries:
        if not entry.startswith(PREFIX + "-"):
            continue
        parts = entry.split("-")
        try:
            pid = int(parts[2])
        except (IndexError, ValueError):
            continue
        try:
            if not stat.S_ISREG(os.stat(os.path.join(_SHM_DIR, entry))
                                .st_mode):
                continue
        except OSError:
            continue
        if not _pid_alive(pid):
            orphans.append(entry)
    return sorted(orphans)


def cleanup_stale() -> list[str]:
    """Unlink orphaned arena segments; returns the reclaimed names."""
    reclaimed = []
    for name in orphaned_segments():
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
        except OSError:
            continue
        reclaimed.append(name)
    return reclaimed
