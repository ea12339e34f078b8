"""Span aggregation across a real process pool and across cell threads.

The acceptance-critical property: when the beam engine fans out over a
genuine ``ProcessPoolExecutor``, the worker-side spans come back over the
result channel and merge into the parent trace — correctly parented,
pid-tagged, and with counters that reconcile with the work actually done.
The Monte Carlo harness's threaded cells merge the same way.
"""

import os

from repro.beam import run_statistics_campaign
from repro.core import get_scheme
from repro.errormodel.montecarlo import evaluate_scheme
from repro.obs import Tracer, counter_totals

EVENTS = 600
CHUNK = 128
#: the per-chunk engine: one pool job, one ``chunk`` span per chunk on
#: every worker count (shm fuses chunks into worker-count-sized ranges)
ENGINE = "reference"


class TestEngineAggregation:
    def test_worker_spans_merge_into_the_campaign_trace(self):
        result = run_statistics_campaign(EVENTS, seed=5, chunk=CHUNK,
                                         engine=ENGINE, workers=2)
        names = {record.name for record in result.trace}
        assert {"campaign", "chunk", "synthesize", "scan",
                "postprocess"} <= names

        campaign = next(r for r in result.trace if r.name == "campaign")
        chunks = [r for r in result.trace if r.name == "chunk"]
        assert len(chunks) == (EVENTS + CHUNK - 1) // CHUNK
        assert all(c.parent_id == campaign.span_id for c in chunks)
        assert {c.attrs["index"] for c in chunks} == set(range(len(chunks)))

        # every chunk subtree is pid-tagged, and the tag is consistent
        # down the subtree (synthesize/scan ran where their chunk ran)
        by_id = {r.span_id: r for r in result.trace}
        for record in result.trace:
            if record.name in ("synthesize", "scan"):
                assert record.worker == by_id[record.parent_id].worker
        assert all(c.worker and c.worker.startswith("pid:") for c in chunks)

    def test_worker_counters_reconcile_with_the_workload(self):
        result = run_statistics_campaign(EVENTS, seed=5, chunk=CHUNK,
                                         engine=ENGINE, workers=2)
        totals = counter_totals(result.trace, name="synthesize")
        assert totals["events"] == EVENTS
        assert result.pool_counters["pool_jobs"] == len(
            [r for r in result.trace if r.name == "chunk"])
        assert result.pool_counters["pool_completed"] \
            + result.pool_counters["pool_serial_fallback"] \
            == result.pool_counters["pool_jobs"]

    def test_fanned_trace_matches_serial_span_structure(self):
        serial = run_statistics_campaign(EVENTS, seed=5, chunk=CHUNK,
                                         engine=ENGINE)
        fanned = run_statistics_campaign(EVENTS, seed=5, chunk=CHUNK,
                                         engine=ENGINE, workers=2)
        def shape(trace):
            return sorted((r.name, r.attrs.get("index")) for r in trace
                          if r.name != "campaign")
        assert shape(serial.trace) == shape(fanned.trace)


class TestMonteCarloAggregation:
    def test_thread_cell_spans_nest_in_evaluate(self, monkeypatch):
        from repro.errormodel import montecarlo

        threads = []
        original = montecarlo._cell_threads

        def spy(jobs, workers):
            threads.append(original(jobs, workers))
            return threads[-1]

        monkeypatch.setattr(montecarlo, "_cell_threads", spy)
        tracer = Tracer()
        with tracer.span("evaluate"):
            # 6,000 samples clear the one-chunk threshold for threads
            evaluate_scheme(get_scheme("duet"), samples=6000, seed=11,
                            workers=2, tracer=tracer)
        assert threads == [2]
        cells = [r for r in tracer.records if r.name == "cell"]
        assert len(cells) == 7  # one per Table-1 pattern
        evaluate = next(r for r in tracer.records if r.name == "evaluate")
        assert all(c.parent_id == evaluate.span_id for c in cells)
        # threads never leave this process
        assert {c.worker for c in cells} == {f"pid:{os.getpid()}"}

    def test_serial_tracing_tags_cells_with_the_parent_pid(self):
        tracer = Tracer()
        with tracer.span("evaluate"):
            evaluate_scheme(get_scheme("duet"), samples=300, seed=11,
                            tracer=tracer)
        cells = [r for r in tracer.records if r.name == "cell"]
        assert len(cells) == 7
        assert {c.worker for c in cells} == {f"pid:{os.getpid()}"}
