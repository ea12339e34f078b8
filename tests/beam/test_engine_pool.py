"""Pool degradation in the statistics engine's default (shm, streaming) path.

Mirrors the Monte Carlo harness's graceful-degradation coverage on the
beam side: a job that times out, a pool that breaks, or a pool that
cannot start must all degrade to in-process serial evaluation and still
produce results bit-identical to the plain serial run — with the requeue
accounted exactly once per job of each sweep (scout and evaluation) in
the campaign counters.
"""

import logging

import pytest

from repro.beam import engine
from repro.beam.engine import run_statistics_campaign

EVENTS = 500
CHUNK = 128  # -> 4 chunks, enough to exercise the fan-out
#: the default streaming path runs every job twice: scout, then evaluate
SWEEPS = 2


class _FakeFuture:
    def __init__(self, exc):
        self._exc = exc

    def result(self, timeout=None):
        raise self._exc

    def cancel(self):
        pass


class _FakePool:
    """Stands in for ProcessPoolExecutor; every chunk fails the same way."""

    exc_factory = None

    def __init__(self, max_workers=None, initializer=None):
        pass

    def submit(self, fn, *args, **kwargs):
        return _FakeFuture(self.exc_factory())

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def serial_result():
    return run_statistics_campaign(EVENTS, seed=23, chunk=CHUNK)


def _patched(monkeypatch, exc_factory):
    pool = type("_Pool", (_FakePool,),
                {"exc_factory": staticmethod(exc_factory)})
    monkeypatch.setattr(engine, "ProcessPoolExecutor", pool)


def _assert_identical(fanned, serial):
    assert fanned.table1 == serial.table1
    assert fanned.class_fractions == serial.class_fractions
    assert fanned.n_records == serial.n_records
    assert fanned.mbme_histogram == serial.mbme_histogram


class TestGracefulDegradation:
    def test_chunk_timeout_requeues_then_falls_back(self, monkeypatch,
                                                    caplog, serial_result):
        self._expect_degraded(
            monkeypatch, caplog, serial_result,
            lambda: engine._FuturesTimeout(), chunk_timeout=0.01,
            messages=("exceeded", "falling back"),
        )

    def test_broken_pool_falls_back(self, monkeypatch, caplog,
                                    serial_result):
        self._expect_degraded(
            monkeypatch, caplog, serial_result,
            lambda: engine.BrokenExecutor("fake"),
            messages=("worker pool broke", "falling back"),
        )

    def _expect_degraded(self, monkeypatch, caplog, serial_result,
                         exc_factory, messages, chunk_timeout=None):
        _patched(monkeypatch, exc_factory)
        with caplog.at_level(logging.WARNING, logger="repro.beam.engine"):
            fanned = run_statistics_campaign(
                EVENTS, seed=23, chunk=CHUNK, workers=4,
                chunk_timeout=chunk_timeout,
            )
        _assert_identical(fanned, serial_result)
        for expected in messages:
            assert any(expected in record.message
                       for record in caplog.records), expected

    def test_pool_that_cannot_start_falls_back(self, monkeypatch, caplog,
                                               serial_result):
        def _raise(max_workers=None, initializer=None):
            raise OSError("no more processes")

        monkeypatch.setattr(engine, "ProcessPoolExecutor", _raise)
        with caplog.at_level(logging.WARNING, logger="repro.beam.engine"):
            fanned = run_statistics_campaign(EVENTS, seed=23, chunk=CHUNK,
                                             workers=4)
        _assert_identical(fanned, serial_result)
        assert any("cannot start worker pool" in record.message
                   for record in caplog.records)


class TestRequeueCounters:
    def test_each_chunk_requeued_exactly_once_despite_double_timeouts(
            self, monkeypatch, serial_result):
        _patched(monkeypatch, lambda: engine._FuturesTimeout())
        fanned = run_statistics_campaign(EVENTS, seed=23, chunk=CHUNK,
                                         workers=4, chunk_timeout=0.01)
        _assert_identical(fanned, serial_result)
        n_chunks = (EVENTS + CHUNK - 1) // CHUNK
        counters = fanned.counters()
        # 4 workers fuse one chunk per range; 4 ranges timing out on both
        # attempts in each of the two sweeps: 8 requeued, 16 timeouts —
        # the reconciled accounting this helper exists to pin down.
        assert counters["pool_requeued"] == SWEEPS * n_chunks
        assert counters["pool_timeouts"] == SWEEPS * 2 * n_chunks
        assert counters["pool_serial_fallback"] == SWEEPS * n_chunks
        assert counters["pool_completed"] == 0

    def test_trace_still_complete_after_serial_fallback(self, monkeypatch):
        _patched(monkeypatch, lambda: engine.BrokenExecutor("fake"))
        fanned = run_statistics_campaign(EVENTS, seed=23, chunk=CHUNK,
                                         workers=4)
        chunks = [r for r in fanned.trace if r.name == "chunk"]
        n_chunks = (EVENTS + CHUNK - 1) // CHUNK
        assert len(chunks) == SWEEPS * n_chunks
        assert {c.attrs["index"] for c in chunks} == set(range(n_chunks))


@pytest.mark.parametrize("timeout", [-1, 0, float("nan")])
def test_non_positive_chunk_timeout_raises_before_any_pool(monkeypatch,
                                                            timeout):
    def _no_pool(max_workers=None, initializer=None):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(engine, "ProcessPoolExecutor", _no_pool)
    with pytest.raises(ValueError, match="timeout must be above 0"):
        run_statistics_campaign(3000, engine="shm", workers=2,
                                chunk_timeout=timeout)
