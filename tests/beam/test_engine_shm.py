"""The fused shared-memory engine and its damaged-set broadcast.

Three contracts, in test-class order: the seed-for-seed equivalence
matrix (``shm`` vs the scalar ``reference`` — statistics float
identical, traces structurally comparable); the streaming sweep's
broadcast of the damaged-entry set and the arena under it (one arena
per pooled sweep, inline fallback, round trip, checksum verification,
orphan reclaim, lifecycle hygiene); and recovery (a worker killed
mid-range must not change the statistics or leave a ``/dev/shm``
segment behind).
"""

import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import faults
from repro.beam import engine
from repro.beam.engine import run_statistics_campaign
from repro.beam.events import (
    BatchEventSynthesis,
    EventParameters,
    _inverse_permutations,
    _smallest_mask,
)
from repro.core.shm import (
    PREFIX,
    ShmArena,
    cleanup_stale,
    orphaned_segments,
    read_columns,
    write_columns,
)
from repro.dram.geometry import HBM2Geometry
from repro.faults import FaultPlan

SEED = 41
EVENTS = 600
CHUNK = 97  # deliberately not a divisor: last chunk is a short one
#: ~1k entries under 400 events: entry collisions are certain, so the
#: scout's damaged set is non-empty and a pooled evaluation sweep
#: broadcasts it through an arena (7 chunks of 64 events)
TINY = dict(
    seed=7, chunk=64,
    geometry=HBM2Geometry(
        num_stacks=1, channels_per_stack=1, banks_per_channel=2,
        subarrays_per_bank=2, rows_per_subarray=16, columns_per_row=16))
TINY_EVENTS = 400


def _segments() -> list[str]:
    """Every live repro arena segment, orphaned or not."""
    try:
        return sorted(e for e in os.listdir("/dev/shm")
                      if e.startswith(PREFIX + "-"))
    except OSError:  # pragma: no cover - no /dev/shm on this platform
        return []


def _tallies(result) -> dict:
    """The accumulator's integer tallies (fold wall-clock excluded)."""
    state = dict(result.accumulator.state())
    state.pop("fold_ns")
    return state


def _assert_stats_identical(a, b):
    assert a.n_records == b.n_records
    assert a.n_observed == b.n_observed
    assert a.class_fractions == b.class_fractions
    assert a.mbme_histogram == b.mbme_histogram
    assert a.byte_alignment == b.byte_alignment
    assert a.bits_per_word_aligned == b.bits_per_word_aligned
    assert a.bits_per_word_non_aligned == b.bits_per_word_non_aligned
    assert a.table1 == b.table1
    assert _tallies(a) == _tallies(b)


@pytest.fixture(scope="module")
def matrix():
    """One campaign per engine, same seed/chunking."""
    return {
        name: run_statistics_campaign(
            EVENTS, seed=SEED, chunk=CHUNK, engine=name)
        for name in engine.ENGINES
    }


@pytest.fixture(scope="module")
def tiny():
    """The serial tiny-geometry campaign every pooled one must equal."""
    result = run_statistics_campaign(TINY_EVENTS, **TINY)
    assert result.n_observed < TINY_EVENTS  # events were really filtered
    return result


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("other", ["reference"])
    def test_statistics_byte_identical(self, matrix, other):
        _assert_stats_identical(matrix["shm"], matrix[other])

    def test_traces_structurally_equal(self, matrix):
        """Each engine's spans are one campaign span, per-job chunk
        spans and exactly its own stage vocabulary, so per-stage
        events_per_second reads off either trace the same way."""
        for name, result in matrix.items():
            spans = [r.name for r in result.trace]
            assert set(spans) == {"campaign", "chunk", *engine._STAGES[name]}
            assert spans.count("campaign") == 1
            assert set(result.stage_seconds) == set(engine._STAGES[name])
        assert [r.name for r in matrix["reference"].trace].count(
            "postprocess") == 1

    def test_shm_fuses_chunks_into_ranges(self, matrix):
        n_chunks = -(-EVENTS // CHUNK)
        chunk_spans = [r for r in matrix["shm"].trace if r.name == "chunk"]
        # two sweeps (scout, evaluation), each over every chunk once...
        assert len(chunk_spans) < 2 * n_chunks  # ...genuinely fused...
        assert sum(r.attrs["chunks"] for r in chunk_spans) == 2 * n_chunks
        reference = [r for r in matrix["reference"].trace
                     if r.name == "chunk"]
        assert len(reference) == n_chunks  # ...while reference is per-chunk

    def test_range_partition_is_statistics_invariant(self, matrix):
        for range_chunks in (1, 3, 64):
            repartitioned = run_statistics_campaign(
                EVENTS, seed=SEED, chunk=CHUNK, range_chunks=range_chunks)
            _assert_stats_identical(repartitioned, matrix["shm"])


def test_fused_range_columns_equal_table_at():
    # Both chunks' plain words fill more than one offset slice (seed 18
    # has a multi-word site across a multiple of the slice size, seed
    # 20211018 a 5,595-entry MBME event), and the counting scatter must
    # still see every site whole in one part.
    params = EventParameters()
    chunks = tuple(
        engine._ChunkJob(index=i, start=1000 * i, size=1000,
                         seed_seq=np.random.SeedSequence(seed))
        for i, seed in enumerate((18, 20211018)))
    job = engine._RangeJob(index=0, start=0, size=2000, chunks=chunks)
    columns = engine._fused_range_columns(
        HBM2Geometry.for_gpu(32), params, job)
    tables = [
        BatchEventSynthesis(seed=engine._fresh_seed(chunk.seed_seq))
        .table_at(engine._event_times(chunk.start, chunk.size, params))
        for chunk in chunks
    ]
    expected = {
        "write_cycle": [chunk.start + table.site_event
                        for chunk, table in zip(chunks, tables)],
        "entry_index": [table.site_entry for table in tables],
        "flips_per_record": [table.flips_per_site() for table in tables],
        "flip_bit": [table.flip_bit for table in tables],
    }
    for key, parts in expected.items():
        assert np.array_equal(columns[key], np.concatenate(parts))


@pytest.mark.slow
class TestPooledShm:
    def test_pooled_matches_serial_and_leaves_no_segments(self, tiny):
        before = _segments()
        pooled = run_statistics_campaign(
            TINY_EVENTS, **TINY, workers=2, range_chunks=2)
        _assert_stats_identical(pooled, tiny)
        # 4 ranges of 2 chunks, in each of the two sweeps
        assert pooled.pool_counters.get("pool_completed") == 8
        assert _segments() == before  # arena unlinked on the way out

    def test_killed_worker_recovers_bit_identically(self, tiny):
        """kill -9 a worker mid-range: the campaign must requeue, finish
        with byte-identical statistics, and unlink the arena."""
        before = _segments()
        faults.install(
            FaultPlan.parse("pool.worker.crash:mode=exit,times=1"),
            export_env=True)
        try:
            crashed = run_statistics_campaign(
                TINY_EVENTS, **TINY, workers=2, range_chunks=2)
        finally:
            faults.uninstall()
            faults.reset()
        _assert_stats_identical(crashed, tiny)
        assert crashed.pool_counters.get("pool_breaks", 0) >= 1
        assert _segments() == before
        assert orphaned_segments() == []


class _DoneFuture:
    def __init__(self, value):
        self.value = value

    def result(self, timeout=None):
        return self.value

    def cancel(self):
        pass


class _InlinePool:
    """Executes submissions in-process: the real broadcast code path
    (arena, descriptors) without multi-process variance."""

    def __init__(self, max_workers=None, initializer=None):
        pass

    def submit(self, fn, *args, **kwargs):
        return _DoneFuture(fn(*args, **kwargs))

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def arenas(monkeypatch):
    """Every arena the engine creates during the test, in order."""
    created = []

    class _Counted(ShmArena):
        def __init__(self, nbytes, **kwargs):
            super().__init__(nbytes, **kwargs)
            created.append(self.name)

    monkeypatch.setattr(engine, "ShmArena", _Counted)
    return created


class TestTransportFallbacks:
    def test_descriptor_transport_matches_serial(self, monkeypatch, arenas,
                                                 tiny):
        monkeypatch.setattr(engine, "ProcessPoolExecutor", _InlinePool)
        before = _segments()
        pooled = run_statistics_campaign(
            TINY_EVENTS, **TINY, workers=4, range_chunks=2)
        _assert_stats_identical(pooled, tiny)
        assert len(arenas) == 1  # one broadcast for the whole sweep
        assert _segments() == before

    def test_no_arena_without_damaged_entries(self, monkeypatch, arenas,
                                              matrix):
        monkeypatch.setattr(engine, "ProcessPoolExecutor", _InlinePool)
        pooled = run_statistics_campaign(
            EVENTS, seed=SEED, chunk=CHUNK, workers=4, range_chunks=2)
        _assert_stats_identical(pooled, matrix["shm"])
        campaign, = (r for r in pooled.trace if r.name == "campaign")
        assert campaign.counters["damaged_entries"] == 0
        assert arenas == []

    def test_broadcast_reclaims_orphans_into_the_trace(self, monkeypatch,
                                                       tiny):
        # a segment left by a dead host: the broadcast arena's creation
        # reclaims it and the campaign span counts it
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True)
        path = os.path.join("/dev/shm",
                            f"{PREFIX}-{int(probe.stdout)}-0dd0dead")
        with open(path, "wb") as handle:
            handle.write(b"\0" * 64)
        monkeypatch.setattr(engine, "ProcessPoolExecutor", _InlinePool)
        try:
            pooled = run_statistics_campaign(
                TINY_EVENTS, **TINY, workers=4, range_chunks=2)
        finally:
            if os.path.exists(path):
                os.unlink(path)
        _assert_stats_identical(pooled, tiny)
        campaign, = (r for r in pooled.trace if r.name == "campaign")
        assert campaign.counters["shm_reclaimed"] == 1

    def test_arena_unavailable_degrades_to_pickles(self, monkeypatch,
                                                   caplog, tiny):
        def _no_arena(nbytes, **kwargs):
            raise OSError("shm exhausted")

        monkeypatch.setattr(engine, "ShmArena", _no_arena)
        monkeypatch.setattr(engine, "ProcessPoolExecutor", _InlinePool)
        with caplog.at_level(logging.WARNING, logger="repro.beam.engine"):
            pooled = run_statistics_campaign(
                TINY_EVENTS, **TINY, workers=4, range_chunks=2)
        _assert_stats_identical(pooled, tiny)
        assert any("arena unavailable" in r.message for r in caplog.records)

    def test_heartbeat_advances_once_per_range(self, monkeypatch):
        class _Broken(_InlinePool):
            def submit(self, fn, *args, **kwargs):
                raise engine.BrokenExecutor("fake")

        class _Heartbeat:
            total = None
            advances = []

            def update(self, advance=0, events=0):
                self.advances.append((advance, events))

            def close(self):
                pass

        monkeypatch.setattr(engine, "ProcessPoolExecutor", _Broken)
        heartbeat = _Heartbeat()
        run_statistics_campaign(
            TINY_EVENTS, **TINY, workers=4, range_chunks=2,
            heartbeat=heartbeat)
        # 7 chunks in ranges of 2 -> 4 ranges, each advanced exactly once
        # per sweep (scout, evaluation) on the serial-fallback path that
        # completed it; the engine sizes the bar in ranges, not chunks.
        assert heartbeat.total == 8
        assert len(heartbeat.advances) == 8
        assert sum(events for _, events in heartbeat.advances) \
            == 2 * TINY_EVENTS


class TestArena:
    COLUMNS = {
        "time_s": np.linspace(0.0, 1.0, 7),
        "flip_bit": np.arange(7, dtype=np.int64) * 3,
        "flags": np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint8),
    }

    def _copied_read(self, arena, descriptor):
        """Read back through a detached copy of the arena bytes.

        The zero-copy views alias the segment, and a mapping with live
        exports cannot be unmapped — tests must not leak views past
        ``close()`` (the engine copies out before closing, too).
        """
        return read_columns(memoryview(bytearray(arena.buf)), descriptor)

    def test_round_trip(self):
        with ShmArena(4096) as arena:
            descriptor = write_columns(arena.name, 0, 4096, self.COLUMNS)
            assert descriptor is not None
            assert descriptor.segment == arena.name
            assert descriptor.length <= 4096
            got = self._copied_read(arena, descriptor)
            assert list(got) == list(self.COLUMNS)
            for key, array in self.COLUMNS.items():
                assert got[key].dtype == array.dtype
                np.testing.assert_array_equal(got[key], array)

    def test_round_trip_at_an_offset(self):
        with ShmArena(8192) as arena:
            descriptor = write_columns(arena.name, 4096, 4096, self.COLUMNS)
            assert descriptor.offset == 4096
            got = self._copied_read(arena, descriptor)
            np.testing.assert_array_equal(got["flip_bit"],
                                          self.COLUMNS["flip_bit"])

    def test_checksum_mismatch_raises(self):
        with ShmArena(4096) as arena:
            descriptor = write_columns(arena.name, 0, 4096, self.COLUMNS)
            block = descriptor.columns[0]
            arena.buf[block.offset] ^= 0x01  # one flipped bit
            with pytest.raises(ValueError, match="checksum mismatch"):
                self._copied_read(arena, descriptor)

    def test_overflow_returns_none_without_attaching(self):
        # Capacity check precedes the attach: a bogus segment name is
        # fine because an oversized write must bail out before mapping.
        assert write_columns("no-such-segment", 0, 8, self.COLUMNS) is None

    def test_close_is_idempotent_and_unlinks(self):
        arena = ShmArena(1024)
        name = arena.name
        assert name in _segments()
        arena.close()
        arena.close()
        assert name not in _segments()

    def test_orphan_detection_and_reclaim(self):
        # A segment named for a process that no longer exists: exactly
        # what a kill -9'd campaign leaves behind.
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True)
        dead_pid = int(probe.stdout)
        name = f"{PREFIX}-{dead_pid}-feedface"
        path = os.path.join("/dev/shm", name)
        with open(path, "wb") as handle:
            handle.write(b"\0" * 64)
        try:
            assert name in orphaned_segments()
            assert name in cleanup_stale()
            assert name not in _segments()
            assert name not in orphaned_segments()
        finally:
            if os.path.exists(path):
                os.unlink(path)

    def test_live_segments_are_not_orphans(self):
        with ShmArena(1024) as arena:
            assert arena.name not in orphaned_segments()
            assert cleanup_stale() == []

    def test_creation_reclaims_earlier_orphans(self):
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True)
        name = f"{PREFIX}-{int(probe.stdout)}-deadbeef"
        path = os.path.join("/dev/shm", name)
        with open(path, "wb") as handle:
            handle.write(b"\0" * 64)
        try:
            with ShmArena(1024) as arena:
                assert name in arena.reclaimed
            assert name not in _segments()
        finally:
            if os.path.exists(path):
                os.unlink(path)


class TestSmallestMask:
    def _oracle(self, u, counts):
        return _inverse_permutations(u) < counts[:, None]

    def test_matches_oracle_on_random_rows(self):
        rng = np.random.default_rng(7)
        u = rng.random((200, 8))
        counts = rng.integers(1, 9, size=200)
        np.testing.assert_array_equal(
            _smallest_mask(u, counts), self._oracle(u, counts))

    def test_forced_boundary_ties_fall_back_to_stable_ranks(self):
        # Row 0 ties exactly at the selection boundary (counts=2 over
        # [.5, .5, .5, .1]): membership must follow the stable argsort,
        # i.e. earlier-index duplicates win.
        u = np.array([
            [0.5, 0.5, 0.5, 0.1],
            [0.5, 0.1, 0.5, 0.5],
            [0.2, 0.2, 0.2, 0.2],
        ])
        counts = np.array([2, 3, 1])
        np.testing.assert_array_equal(
            _smallest_mask(u, counts), self._oracle(u, counts))

    def test_full_width_rows_have_no_boundary(self):
        u = np.array([[0.3, 0.3, 0.3]])
        counts = np.array([3])
        np.testing.assert_array_equal(
            _smallest_mask(u, counts),
            np.ones((1, 3), dtype=bool))

    def test_empty_input(self):
        empty = np.empty((0, 4))
        got = _smallest_mask(empty, np.empty(0, dtype=np.int64))
        assert got.shape == (0, 4)
        assert got.dtype == bool
