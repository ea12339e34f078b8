"""Tests of the one-shot reproduction report's production paths."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import report
from repro.analysis.report import ReportConfig, generate_report

SAMPLES = 300
EVENTS = 300


@pytest.mark.parametrize("seed", [20211018, 5])
def test_table1_equals_scalar_derivation(seed):
    """The report's batch-synthesized Table 1 equals ``derive_table1``
    over the scalar oracle's events for the same seed, float for float."""
    from repro.beam.events import BatchEventSynthesis
    from repro.beam.postprocess import derive_table1, events_from_truth

    config = ReportConfig(seed=seed, campaign_events=EVENTS)
    expected = derive_table1(events_from_truth(
        BatchEventSynthesis(seed=seed).events_at(20.0 * np.arange(EVENTS))))
    assert report._derived_table1(config) == expected


@pytest.fixture(scope="module")
def markdown():
    return generate_report(samples=SAMPLES, seed=11, campaign_events=EVENTS)


def test_sections_equal_per_scheme_evaluation(markdown):
    """One sweep renders exactly what per-scheme evaluation renders."""
    from repro.core import all_schemes
    from repro.errormodel import evaluate_scheme, weighted_outcomes

    config = ReportConfig(samples=SAMPLES, seed=11, campaign_events=EVENTS)
    outcomes = {
        scheme.name: weighted_outcomes(scheme, per_pattern=evaluate_scheme(
            scheme, samples=SAMPLES, seed=11))
        for scheme in all_schemes()
    }
    for section in (report._section_table2(outcomes),
                    report._section_fig8(outcomes),
                    report._section_table3(),
                    report._section_fig9(outcomes, config),
                    report._section_automotive(outcomes)):
        assert f"\n\n{section}\n" in markdown


def test_table3_equals_the_benchmark_reference():
    reference = Path(__file__).resolve().parents[2] / "perfbench" \
        / "reference" / "report.json"
    if not reference.exists():
        pytest.skip("benchmark reference not present")
    expected = json.loads(reference.read_text())["table3"]
    assert report._section_table3() == expected


def test_heartbeat_counts_the_single_sweep():
    from repro.obs import Heartbeat

    lines = []
    beat = Heartbeat("report", unit="cells", interval_s=1e-9,
                     callback=lines.append)
    generate_report(samples=SAMPLES, campaign_events=EVENTS, heartbeat=beat)
    assert lines
    assert all(line.startswith("[repro] report: ") for line in lines)
    assert "63/63 cells" in lines[-1]


def test_no_thread_outlives_the_report():
    import threading

    before = threading.active_count()
    generate_report(samples=SAMPLES, campaign_events=EVENTS)
    assert threading.active_count() == before


def test_table3_error_propagates_after_the_sweep(monkeypatch):
    """Table 3 runs on a side thread: its error reaches the caller, and
    the thread is gone by then."""
    import threading

    def broken():
        raise RuntimeError("table 3 failed")

    monkeypatch.setattr(report, "_section_table3", broken)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="table 3 failed"):
        generate_report(samples=SAMPLES, campaign_events=EVENTS)
    assert threading.active_count() == before
