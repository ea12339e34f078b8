"""Table 1 — soft error pattern probabilities.

Runs the full characterization pipeline: a simulated beam campaign for the
observation path (device, scanning, intermittent filtering, grouping),
supplemented with synthesized ground-truth events for statistical weight, then
classifies every event into the 7 patterns with the paper's priority rule.
A second benchmark times the vectorized synthesis that ``repro report``
draws its Table 1 from, against an absolute bound.
"""

import time

import numpy as np
import pytest

from benchmarks._output import emit
from repro.analysis.tables import format_table
from repro.beam.campaign import BeamCampaign, CampaignConfig
from repro.beam.displacement import DamageParameters
from repro.beam.events import BatchEventSynthesis, EventParameters
from repro.beam.postprocess import (
    derive_table1,
    events_from_truth,
    filter_intermittent,
    group_events,
)
from repro.errormodel.patterns import TABLE1_PROBABILITIES, ErrorPattern


def _characterize():
    # The observation path: a short campaign through the real device loop.
    config = CampaignConfig(
        runs=3, write_cycles=6, reads_per_write=3, loop_time_s=2.0, seed=11,
        event_parameters=EventParameters(mean_time_to_event_s=8.0),
        damage_parameters=DamageParameters(leaky_pool=80,
                                           saturation_fluence=3e8),
    )
    result = BeamCampaign(config).run()
    filtered = filter_intermittent(result.records)
    observed = group_events(filtered.soft_records)

    # Statistical weight: synthesized ground-truth events at analysis scale.
    observed += events_from_truth(BatchEventSynthesis(seed=20211018).events_at(
        20.0 * np.arange(6000)
    ))
    return derive_table1(observed), len(observed), len(filtered.damaged_entries)


def test_tab1_pattern_probabilities(benchmark):
    probabilities, num_events, num_damaged = benchmark.pedantic(
        _characterize, rounds=1, iterations=1
    )

    rows = [
        [pattern.value, f"{probabilities[pattern]:.2%}",
         f"{TABLE1_PROBABILITIES[pattern]:.2%}"]
        for pattern in ErrorPattern
    ]
    emit(
        f"Table 1: soft error pattern probabilities "
        f"({num_events} events; {num_damaged} damaged entries filtered)",
        format_table(["severity", "measured", "paper"], rows),
    )

    assert abs(sum(probabilities.values()) - 1.0) < 1e-9
    # Shape: single-bit dominates, byte errors are the major multi-bit mode.
    assert probabilities[ErrorPattern.BIT] > 0.55
    assert 0.12 < probabilities[ErrorPattern.BYTE] < 0.35
    assert probabilities[ErrorPattern.BYTE] > probabilities[ErrorPattern.ENTRY]
    assert probabilities[ErrorPattern.PIN] < 0.02


#: best-of-5 wall time of ``table_at`` over 4,000 events 20 s apart,
#: seconds: the shared synthesis kernel takes 0.04-0.05 s on a 2-vCPU
#: host (the per-row argsort picks and global lexsort it replaced took
#: 0.13-0.17 s)
TABLE1_SYNTHESIS_BOUND_S = 0.12


def test_tab1_synthesis_time():
    times = 20.0 * np.arange(4000)
    BatchEventSynthesis(seed=1).table_at(times)  # warm the CDF caches
    walls = []
    for _ in range(5):
        start = time.perf_counter()
        table = BatchEventSynthesis(seed=20211018).table_at(times)
        walls.append(time.perf_counter() - start)
    best = min(walls)
    emit(
        "Throughput — Table 1 event synthesis",
        f"table_at  best {best * 1e3:.1f} ms, median "
        f"{sorted(walls)[2] * 1e3:.1f} ms of 5 calls ({table.n_events} "
        f"events, {table.n_sites} sites, {table.flip_bit.size} flips; "
        f"bound {TABLE1_SYNTHESIS_BOUND_S * 1e3:.0f} ms)",
    )
    assert best <= TABLE1_SYNTHESIS_BOUND_S
