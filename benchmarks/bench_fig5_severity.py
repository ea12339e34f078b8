"""Figure 5 — multi-bit error severity in bits per 64b word.

(a) byte-aligned errors: 2-8 bits, binomially distributed with an ~15%
    full-inversion anomaly at 8 bits;
(b) non-byte-aligned errors: up to 64 bits, peaking near half the word.
"""

from math import comb

import numpy as np
import pytest

from benchmarks._output import emit
from repro.analysis.tables import format_table
from repro.beam.events import BatchEventSynthesis
from repro.beam.postprocess import bits_per_word_histogram, events_from_truth

NUM_EVENTS = 8000


@pytest.fixture(scope="module")
def observed_events():
    return events_from_truth(BatchEventSynthesis(seed=20211018).events_at(
        20.0 * np.arange(NUM_EVENTS)
    ))


def _binomial_conditional(width, minimum=2):
    """The paper's random-corruption expectation (brown bars)."""
    total = sum(comb(width, k) for k in range(minimum, width + 1))
    return {k: comb(width, k) / total for k in range(minimum, width + 1)}


def test_fig5a_byte_aligned_severity(benchmark, observed_events):
    histogram = benchmark(
        bits_per_word_histogram, observed_events, byte_aligned=True
    )

    expectation = _binomial_conditional(8)
    rows = [
        [bits, f"{histogram.get(bits, 0.0):.1%}", f"{expectation.get(bits, 0.0):.1%}"]
        for bits in range(2, 9)
    ]
    emit(
        "Figure 5a: byte-aligned multi-bit severity (bits per word)",
        format_table(["bits", "measured", "random-corruption"], rows),
    )
    # Half-the-byte is the modal severity...
    assert max(histogram, key=histogram.get) in (4, 8)
    assert histogram[4] > histogram[2]
    # ...and the inversion anomaly inflates 8-bit flips well beyond binomial.
    assert histogram[8] > 2 * expectation[8]


def test_fig5b_non_aligned_severity(benchmark, observed_events):
    histogram = benchmark(
        bits_per_word_histogram, observed_events, byte_aligned=False
    )

    bins = [(2, 8), (9, 16), (17, 24), (25, 32), (33, 40), (41, 48), (49, 64)]
    binned = {
        f"{low}-{high}": sum(v for k, v in histogram.items() if low <= k <= high)
        for low, high in bins
    }
    rows = [[label, f"{value:.1%}"] for label, value in binned.items()]
    emit(
        "Figure 5b: non-byte-aligned multi-bit severity (bits per word) "
        "(paper: peaks near half the 64b word, ~15% full inversions)",
        format_table(["bits", "measured"], rows),
    )
    # Peak near half the word; inversions give a visible 64-bit component.
    assert binned["25-32"] > binned["2-8"] * 0.5
    assert histogram.get(64, 0.0) > 0.05
