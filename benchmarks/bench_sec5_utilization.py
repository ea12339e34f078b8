"""Section 5 ("Effect of DRAM Utilization") — logic vs array error scaling.

The paper sweeps the microbenchmark's DRAM utilization and finds the
fraction of broad-and-severe logic errors (MBSE+MBME) proportional to the
number of memory accesses, while narrow array errors (SBSE+SBME) are
proportional to exposure time — the evidence that multi-bit errors
originate in DRAM logic rather than direct cell strikes.  This benchmark
reproduces the sweep with the event model's utilization scaling.
"""

import numpy as np

from benchmarks._output import emit
from repro.analysis.fitting import fit_linear
from repro.analysis.tables import format_table
from repro.beam.events import BatchEventSynthesis, EventClass

UTILIZATIONS = (0.1, 0.25, 0.5, 0.75, 1.0)
DURATION_S = 60_000.0  # long exposure for tight statistics


def _sweep():
    results = {}
    for index, utilization in enumerate(UTILIZATIONS):
        events = BatchEventSynthesis(seed=100 + index).interval_events(
            DURATION_S, utilization=utilization
        )
        multi = sum(
            1 for event in events
            if event.event_class in (EventClass.MBSE, EventClass.MBME)
        )
        single = len(events) - multi
        results[utilization] = (single, multi)
    return results


def test_sec5_utilization_scaling(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    rows = []
    for utilization, (single, multi) in results.items():
        fraction = multi / (single + multi)
        rows.append([
            f"{utilization:.2f}",
            single,
            multi,
            f"{fraction:.1%}",
        ])
    emit(
        "Section 5: error mix vs DRAM utilization "
        "(paper: logic errors scale with accesses, array errors with time)",
        format_table(
            ["utilization", "array errors (SB*)", "logic errors (MB*)",
             "multi-bit fraction"],
            rows,
        ),
    )

    singles = np.array([results[u][0] for u in UTILIZATIONS], dtype=float)
    multis = np.array([results[u][1] for u in UTILIZATIONS], dtype=float)
    utils = np.array(UTILIZATIONS)

    # Array-error counts are utilization-independent (same exposure time)...
    assert singles.std() / singles.mean() < 0.10
    # ...while logic-error counts are linear in utilization through ~0.
    fit = fit_linear(utils, multis)
    assert fit.r_squared > 0.95
    assert abs(fit.intercept) < 0.15 * multis.max()
    # At full utilization the mixture recovers Figure 4a's ~33% multi-bit.
    full = multis[-1] / (multis[-1] + singles[-1])
    assert 0.28 < full < 0.38
