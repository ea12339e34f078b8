"""Tracer span lifecycle, counters, worker merging and aggregates."""

import pytest

from repro.obs import (
    SpanRecord,
    Tracer,
    counter_totals,
    slowest_spans,
    stage_totals,
)


class FakeClock:
    """Deterministic perf_counter stand-in (advance by hand)."""

    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


class TestSpanLifecycle:
    def test_nesting_mirrors_the_call_stack(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            clock.tick(1.0)
            with tracer.span("inner"):
                clock.tick(0.25)
            clock.tick(1.0)
        outer = next(r for r in tracer.records if r.name == "outer")
        inner = next(r for r in tracer.records if r.name == "inner")
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.duration_s == pytest.approx(0.25)
        assert outer.duration_s == pytest.approx(2.25)
        # children finish (and are recorded) before their parents
        assert tracer.records.index(inner) < tracer.records.index(outer)

    def test_sibling_spans_share_a_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("parent"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, parent = tracer.records
        assert (a.name, b.name, parent.name) == ("a", "b", "parent")
        assert a.parent_id == b.parent_id == parent.span_id
        assert a.span_id != b.span_id

    def test_attrs_are_captured(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("chunk", index=3, engine="shm"):
            pass
        assert tracer.records[0].attrs == {"index": 3, "engine": "shm"}

    def test_exception_marks_span_failed_and_closes_it(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        record = tracer.records[0]
        assert record.attrs["failed"] is True
        assert not tracer._stack  # nothing left dangling

    def test_start_offsets_are_relative_to_the_tracer_epoch(self):
        clock = FakeClock(start=500.0)
        tracer = Tracer(clock=clock)
        clock.tick(2.0)
        with tracer.span("late"):
            pass
        assert tracer.records[0].start_s == pytest.approx(2.0)


class TestCounters:
    def test_counters_attach_to_the_active_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            tracer.count(events=10)
            with tracer.span("inner"):
                tracer.count(events=5, sites=2)
            tracer.count(events=1)
        inner = next(r for r in tracer.records if r.name == "inner")
        outer = next(r for r in tracer.records if r.name == "outer")
        assert inner.counters == {"events": 5, "sites": 2}
        assert outer.counters == {"events": 11}

    def test_count_outside_any_span_is_a_noop(self):
        tracer = Tracer(clock=FakeClock())
        tracer.count(events=99)  # must not raise
        assert tracer.records == []


class TestMerge:
    def _worker_records(self, worker_tagged=False):
        worker = Tracer(clock=FakeClock())
        with worker.span("cell", pattern="BIT"):
            worker.count(events=7)
            with worker.span("decode"):
                pass
        if worker_tagged:
            for record in worker.records:
                record.worker = "pid:777"
        return worker.records

    def test_merge_grafts_roots_under_the_active_span(self):
        parent = Tracer(clock=FakeClock())
        with parent.span("evaluate") as active:
            parent.merge(self._worker_records(), worker="pid:41")
        ids = {r.span_id for r in parent.records}
        assert len(ids) == len(parent.records)  # renumbered, no collisions
        cell = next(r for r in parent.records if r.name == "cell")
        decode = next(r for r in parent.records if r.name == "decode")
        assert cell.parent_id == active.span_id
        assert decode.parent_id == cell.span_id
        assert cell.worker == decode.worker == "pid:41"
        assert cell.counters == {"events": 7}

    def test_merge_preserves_existing_worker_tags(self):
        parent = Tracer(clock=FakeClock())
        with parent.span("evaluate"):
            parent.merge(self._worker_records(worker_tagged=True),
                         worker="pid:41")
        assert all(r.worker == "pid:777"
                   for r in parent.records if r.name != "evaluate")

    def test_merge_outside_a_span_creates_new_roots(self):
        parent = Tracer(clock=FakeClock())
        parent.merge(self._worker_records())
        cell = next(r for r in parent.records if r.name == "cell")
        assert cell.parent_id is None

    def test_merging_two_workers_keeps_both_trees_intact(self):
        parent = Tracer(clock=FakeClock())
        with parent.span("evaluate"):
            parent.merge(self._worker_records(), worker="pid:1")
            parent.merge(self._worker_records(), worker="pid:2")
        cells = [r for r in parent.records if r.name == "cell"]
        decodes = [r for r in parent.records if r.name == "decode"]
        assert {c.worker for c in cells} == {"pid:1", "pid:2"}
        for decode in decodes:
            owner = next(c for c in cells if c.span_id == decode.parent_id)
            assert owner.worker == decode.worker

    def test_merge_empty_is_a_noop(self):
        parent = Tracer(clock=FakeClock())
        parent.merge([])
        assert parent.records == []


class TestSerialization:
    def test_record_round_trips_through_dict(self):
        record = SpanRecord(span_id=4, parent_id=2, name="scan",
                            start_s=1.5, duration_s=0.5,
                            attrs={"index": 1}, counters={"records": 10},
                            worker="pid:9")
        assert SpanRecord.from_dict(record.to_dict()) == record

    def test_sparse_fields_are_omitted_from_the_encoding(self):
        record = SpanRecord(span_id=1, parent_id=None, name="top",
                            start_s=0.0, duration_s=1.0)
        encoded = record.to_dict()
        assert "attrs" not in encoded
        assert "counters" not in encoded
        assert "worker" not in encoded


class TestAggregates:
    def _records(self):
        return [
            SpanRecord(1, None, "synthesize", 0.0, 1.0,
                       counters={"events": 100}),
            SpanRecord(2, None, "scan", 1.0, 2.0, counters={"events": 50}),
            SpanRecord(3, None, "synthesize", 3.0, 0.5),
        ]

    def test_stage_totals_accumulate_per_name(self):
        totals = stage_totals(self._records())
        assert totals == {"synthesize": 1.5, "scan": 2.0}

    def test_stage_totals_names_preseed_and_order(self):
        totals = stage_totals(self._records(),
                              names=("synthesize", "scan", "postprocess"))
        assert list(totals) == ["synthesize", "scan", "postprocess"]
        assert totals["postprocess"] == 0.0

    def test_counter_totals_sum_and_filter_by_name(self):
        assert counter_totals(self._records()) == {"events": 150}
        assert counter_totals(self._records(), name="scan") == {"events": 50}

    def test_slowest_spans_sorted_and_capped(self):
        slow = slowest_spans(self._records(), "synthesize", top=1)
        assert [r.span_id for r in slow] == [1]
