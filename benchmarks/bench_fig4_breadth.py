"""Figure 4 — soft error severity and breadth.

(a) the SBSE/SBME/MBSE/MBME event-class mixture;
(b) the long-tailed MBME breadth histogram;
(c) byte-aligned vs non-byte-aligned multi-bit errors with words/entry.
"""

import numpy as np
import pytest

from benchmarks._output import emit
from repro.analysis.tables import format_table
from repro.beam.events import BatchEventSynthesis, EventClass
from repro.beam.postprocess import (
    breadth_class_fractions,
    byte_alignment_stats,
    events_from_truth,
    mbme_breadth_histogram,
)

NUM_EVENTS = 8000


@pytest.fixture(scope="module")
def observed_events():
    return events_from_truth(BatchEventSynthesis(seed=20211018).events_at(
        20.0 * np.arange(NUM_EVENTS)
    ))


def test_fig4a_event_classes(benchmark, observed_events):
    fractions = benchmark(breadth_class_fractions, observed_events)

    paper = {
        EventClass.SBSE: 0.65, EventClass.SBME: 0.02,
        EventClass.MBSE: 0.05, EventClass.MBME: 0.28,
    }
    rows = [
        [klass.name, f"{fractions[klass]:.1%}", f"{paper[klass]:.1%}"]
        for klass in EventClass
    ]
    emit(
        "Figure 4a: error breadth/severity classes",
        format_table(["class", "measured", "paper"], rows),
    )
    assert abs(fractions[EventClass.SBSE] - 0.65) < 0.03
    assert abs(fractions[EventClass.MBME] - 0.28) < 0.03


def test_fig4b_mbme_breadth(benchmark, observed_events):
    histogram = benchmark(mbme_breadth_histogram, observed_events)

    rows = [[label, count] for label, count in histogram.items()]
    emit(
        "Figure 4b: 32B entries affected per MBME error "
        "(paper: long tail, most broad error = 5,359 entries)",
        format_table(["entries affected", "events"], rows),
    )
    # Long tail: small events dominate yet hundreds-wide events exist.
    assert histogram["2-3"] > histogram["64-127"]
    assert sum(
        count for label, count in histogram.items()
        if int(label.split("-")[0]) >= 128
    ) > 0


def test_fig4c_byte_alignment(benchmark, observed_events):
    stats = benchmark(byte_alignment_stats, observed_events)

    rows = [[key, f"{value:.1%}"] for key, value in stats.items()]
    emit(
        "Figure 4c: multi-bit error alignment and words per entry "
        "(paper: 74.6% byte-aligned; aligned errors ~1 word/entry, "
        "non-aligned errors usually all 4)",
        format_table(["statistic", "value"], rows),
    )
    assert abs(stats["byte_aligned_fraction"] - 0.746) < 0.04
    assert stats["aligned_words_1"] > stats["aligned_words_2"]
    assert stats["non_aligned_words_4"] > stats["non_aligned_words_2"]
