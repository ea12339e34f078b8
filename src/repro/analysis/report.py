"""One-shot reproduction report generator.

Builds a self-contained Markdown report covering the paper's full
evaluation — Table 1 (derived from batch-synthesized SEU events), Table 2,
Figure 8, Table 3, Figure 9 and the Section 7.3 automotive analysis —
from a single entry point:

>>> from repro.analysis.report import generate_report
>>> markdown = generate_report(samples=20_000)

or from the shell: ``python -m repro report -o report.md``.

The heavy lifting is delegated to the same library calls the benchmark
harness uses; this module only orchestrates and formats.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

__all__ = ["ReportConfig", "generate_report"]


@dataclass(frozen=True)
class ReportConfig:
    """Knobs for :func:`generate_report`."""

    samples: int = 20_000
    seed: int = 20211018
    campaign_events: int = 4000
    exaflops: tuple[float, ...] = (0.5, 1.0, 2.0)


def _md_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def _derived_table1(config: ReportConfig) -> dict:
    """Table 1 over ``campaign_events`` batch-synthesized SEUs, 20 s apart."""
    import numpy as np

    from repro.beam.events import BatchEventSynthesis
    from repro.beam.postprocess import events_from_truth_table
    from repro.stats import CampaignAccumulator

    truth = BatchEventSynthesis(seed=config.seed).table_at(
        20.0 * np.arange(config.campaign_events))
    accumulator = CampaignAccumulator()
    accumulator.update_from_flip_table(events_from_truth_table(truth))
    return accumulator.finalize()["table1"]


def _section_table1(config: ReportConfig) -> str:
    from repro.errormodel.patterns import TABLE1_PROBABILITIES, ErrorPattern

    derived = _derived_table1(config)
    rows = [
        [pattern.value, f"{derived[pattern]:.2%}",
         f"{TABLE1_PROBABILITIES[pattern]:.2%}"]
        for pattern in ErrorPattern
    ]
    return (
        "## Table 1 — soft error pattern probabilities\n\n"
        f"Derived from {config.campaign_events} simulated SEU events.\n\n"
        + _md_table(["pattern", "derived", "paper"], rows)
    )


def _outcomes(config: ReportConfig, workers=None, cache=None, tracer=None,
              heartbeat=None, warm_pool=None):
    from repro.core import all_schemes
    from repro.errormodel.montecarlo import sdc_risk_table, weighted_outcomes

    schemes = all_schemes()
    table = sdc_risk_table(
        schemes, samples=config.samples, seed=config.seed, workers=workers,
        cache=cache, tracer=tracer, heartbeat=heartbeat, warm_pool=warm_pool,
    )
    return {
        scheme.name: weighted_outcomes(scheme, per_pattern=table[scheme.name])
        for scheme in schemes
    }


def _section_table2(outcomes) -> str:
    from repro.core import SCHEME_NAMES, get_scheme
    from repro.errormodel.patterns import ErrorPattern

    headers = ["scheme"] + [pattern.value for pattern in ErrorPattern]
    rows = []
    for name in SCHEME_NAMES:
        per_pattern = outcomes[name].per_pattern
        rows.append(
            [get_scheme(name).label]
            + [per_pattern[pattern].cell() for pattern in ErrorPattern]
        )
    return (
        "## Table 2 — SDC risk per error pattern\n\n"
        "`C` = always corrected, `D` = always detected.\n\n"
        + _md_table(headers, rows)
    )


def _section_fig8(outcomes) -> str:
    from repro.analysis.tables import format_percent
    from repro.core import SCHEME_NAMES

    rows = [
        [outcomes[name].label, f"{outcomes[name].correct:.2%}",
         f"{outcomes[name].detect:.2%}", format_percent(outcomes[name].sdc)]
        for name in SCHEME_NAMES
    ]
    return (
        "## Figure 8 — Table-1-weighted outcome probabilities\n\n"
        + _md_table(["scheme", "corrected", "DUE", "SDC"], rows)
    )


def _section_table3() -> str:
    from repro.hardware.synth import table3_rows

    encoders, decoders = table3_rows()
    sections = []
    for title, rows in (("encoders", encoders), ("decoders", decoders)):
        baseline = rows[0]
        rendered = []
        for row in rows:
            for label, stats, base in (("Perf.", row.perf, baseline.perf),
                                       ("Eff.", row.eff, baseline.eff)):
                rendered.append([
                    row.name, label, f"{stats.area:,.0f}",
                    f"{stats.area_overhead(base):+.1%}",
                    f"{stats.delay_ns:.3f} ns",
                ])
        sections.append(
            f"### {title.capitalize()}\n\n"
            + _md_table(
                ["circuit", "point", "area (AND2)", "vs SEC-DED", "delay"],
                rendered,
            )
        )
    return "## Table 3 — hardware overheads\n\n" + "\n\n".join(sections)


def _section_fig9(outcomes, config: ReportConfig) -> str:
    from repro.system.hpc import figure9_series

    series = figure9_series(
        {name: outcomes[name] for name in ("duet", "trio")},
        exaflops=config.exaflops,
    )
    rows = []
    for name, points in series.items():
        for point in points:
            rows.append([
                name, f"{point.exaflops:.1f}", f"{point.gpus:,}",
                f"{point.mtti_hours:.1f} h", f"{point.mttf_months:,.1f} mo",
            ])
    return (
        "## Figure 9 — exascale MTTI / MTTF\n\n"
        + _md_table(["scheme", "EF", "GPUs", "MTTI", "MTTF"], rows)
    )


def _section_automotive(outcomes) -> str:
    from repro.core import SCHEME_NAMES, get_scheme
    from repro.system.automotive import assess_scheme

    rows = []
    for name in SCHEME_NAMES:
        assessment = assess_scheme(outcomes[name])
        rows.append([
            get_scheme(name).label,
            f"{assessment.sdc_fit:.4g}",
            "PASS" if assessment.meets_iso26262 else "FAIL",
            f"{assessment.fleet_due_cars_per_day:,.0f}",
        ])
    return (
        "## Section 7.3 — automotive safety\n\n"
        + _md_table(
            ["scheme", "SDC FIT/GPU", "ISO 26262", "DUE cars/day"], rows,
        )
    )


def generate_report(
    *,
    samples: int = 20_000,
    seed: int = 20211018,
    campaign_events: int = 4000,
    exaflops: tuple[float, ...] = (0.5, 1.0, 2.0),
    workers: int | None = None,
    cache=None,
    tracer=None,
    heartbeat=None,
    warm_pool=None,
) -> str:
    """Render the full reproduction report as Markdown.

    Every Table-2 cell comes from one sweep over all schemes, run on one
    thread per core unless ``workers`` says otherwise (``1`` is serial,
    ``N`` a pool of N processes); unless a pool forks, Table 3 is built
    on a side thread meanwhile.  ``cache`` (e.g.
    :class:`repro.runs.CellCache`) reuses cells already in the persistent
    run store, ``tracer`` (a :class:`repro.obs.Tracer`) collects per-cell
    spans, ``heartbeat`` (a :class:`repro.obs.Heartbeat`) reports the
    sweep's progress, and ``warm_pool`` (a
    :class:`repro.core.pool.WarmPool`) supplies the worker processes — all
    leave the rendered report byte-identical.
    """
    config = ReportConfig(
        samples=samples, seed=seed, campaign_events=campaign_events,
        exaflops=exaflops,
    )
    # Table 1 is built before the cells start rather than beside two of
    # them: on a seed whose events hold several 6,000-entry MBME events
    # its transient is still the run's memory peak.  Table 3 is built on
    # a side thread while the cells run, joined before this returns, even
    # on error; a process pool forks during the sweep, and no process is
    # forked with a thread alive.
    table1 = _section_table1(config)
    forks = workers is not None and workers > 1
    with ThreadPoolExecutor(1, thread_name_prefix="repro-table3") as side:
        table3 = None if forks else side.submit(_section_table3)
        outcomes = _outcomes(config, workers=workers, cache=cache,
                             tracer=tracer, heartbeat=heartbeat,
                             warm_pool=warm_pool)
    parts = [
        "# Reproduction report — Characterizing and Mitigating Soft Errors "
        "in GPU DRAM (MICRO 2021)",
        f"Monte Carlo: {config.samples:,} samples per sampled pattern, "
        f"seed {config.seed}.",
        table1,
        _section_table2(outcomes),
        _section_fig8(outcomes),
        _section_table3() if table3 is None else table3.result(),
        _section_fig9(outcomes, config),
        _section_automotive(outcomes),
    ]
    return "\n\n".join(parts) + "\n"
