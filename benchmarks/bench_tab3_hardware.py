"""Table 3 — encoder/decoder hardware overheads.

Synthesizes every circuit at the performant and area-time-efficient design
points.  Areas are technology-independent AND2-equivalent counts from our
cell model; the paper's relative orderings are asserted, not its absolute
Synopsys numbers.  A second benchmark times the whole build against an
absolute bound, since ``repro report`` rebuilds Table 3 on every run.
"""

import time

from benchmarks._output import emit
from repro.analysis.tables import format_table
from repro.hardware.synth import table3_rows


def _render(rows, baseline):
    rendered = []
    for row in rows:
        for label, stats, base in (("Perf.", row.perf, baseline.perf),
                                   ("Eff.", row.eff, baseline.eff)):
            rendered.append([
                row.name,
                label,
                f"{stats.area:,.0f}",
                f"{stats.area_overhead(base):+.1%}",
                f"{stats.delay_ns:.3f}",
                f"{stats.delay_overhead(base):+.1%}",
            ])
    return rendered


def test_tab3_hardware_overheads(benchmark):
    encoders, decoders = benchmark.pedantic(table3_rows, rounds=1, iterations=1)

    headers = ["circuit", "point", "area (AND2)", "area vs SEC-DED",
               "delay (ns)", "delay vs SEC-DED"]
    emit(
        "Table 3 (encoders): hardware overheads",
        format_table(headers, _render(encoders, encoders[0])),
    )
    emit(
        "Table 3 (decoders): hardware overheads",
        format_table(headers, _render(decoders, decoders[0])),
    )

    enc = {row.name: row for row in encoders}
    dec = {row.name: row for row in decoders}

    # Encoder ordering: binary < I:SSC < SSC-DSD+ (paper: +443% for DSD+).
    assert (enc["SEC-DED"].perf.area
            < enc["SEC-2bEC (Duet/Trio)"].perf.area
            < enc["I:SSC"].perf.area
            < enc["SSC-DSD+"].perf.area)
    assert enc["SSC-DSD+"].perf.area / enc["SEC-DED"].perf.area > 3

    # Decoder ordering: SEC-DED < Duet < Trio; symbol decoders slower.
    assert (dec["SEC-DED"].perf.area
            < dec["DuetECC"].perf.area
            < dec["TrioECC"].perf.area)
    trio_overhead = dec["TrioECC"].perf.area_overhead(dec["SEC-DED"].perf)
    assert 0.2 < trio_overhead < 1.0  # paper: +54.5%
    assert dec["SSC-DSD+"].perf.delay_ns > dec["TrioECC"].perf.delay_ns
    assert dec["SSC-DSD+"].perf.area == max(r.perf.area for r in decoders)

    # Drop-in claim: Duet/Trio decode well inside a 0.66 ns GPU cycle.
    assert dec["TrioECC"].perf.delay_ns < 0.66

    # Every Eff. point trades delay for area.
    for row in list(encoders) + list(decoders):
        assert row.eff.area < row.perf.area
        assert row.eff.delay_ns > row.perf.delay_ns


#: best-of-5 wall time of one ``table3_rows()`` call, seconds: the block
#: builder takes ~0.06 s on a 2-vCPU host (the one-gate-at-a-time builder
#: it replaced took 0.37-0.43 s)
TABLE3_BUILD_BOUND_S = 0.15


def test_tab3_netlist_build_time():
    table3_rows()  # warm imports and the per-code matrix caches
    times = []
    for _ in range(5):
        start = time.perf_counter()
        encoders, decoders = table3_rows()
        times.append(time.perf_counter() - start)
    best = min(times)
    circuits = 2 * (len(encoders) + len(decoders))
    emit(
        "Throughput — Table 3 netlist build",
        f"table3_rows  best {best * 1e3:.1f} ms, median "
        f"{sorted(times)[2] * 1e3:.1f} ms of 5 calls "
        f"({circuits} circuits, bound {TABLE3_BUILD_BOUND_S * 1e3:.0f} ms)",
    )
    assert best <= TABLE3_BUILD_BOUND_S
