"""The code-space superset report: resilience × area × delay ranking.

Table 2 scores resilience and Table 3 scores silicon; this module joins
them across *every* registered organization — the nine paper schemes, the
Section-6.2 extension tier, and the expansion tier (searched Hsiao, SEC-
DAEC, BCH DEC, polar) — into one ranked view.

Ranking order is deliberately lexicographic, mirroring how the paper
argues: silent data corruption is the failure mode that matters most
(weighted SDC ascending), then unavailability (weighted DUE ascending),
and only then silicon cost (performance-point decoder area ascending).
Schemes without a single-cycle netlist (the extension tier's iterative
decoders) rank after any scheme of equal resilience that has one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.tables import format_percent, format_table

__all__ = ["RankedScheme", "ranking_rows", "format_ranking"]

#: Resilience fractions are compared after rounding to this many decimals,
#: so floating-point dust cannot reorder genuinely tied schemes.
_TIE_DECIMALS = 9


@dataclass(frozen=True)
class RankedScheme:
    """One registry organization with its joined resilience + cost record."""

    name: str
    label: str
    tier: str  # "paper" | "extension" | "expansion"
    corrects_pins: bool
    corrected: float  #: Table-1-weighted corrected fraction
    due: float  #: Table-1-weighted DUE fraction
    sdc: float  #: Table-1-weighted SDC fraction
    encoder_area: float | None  #: Perf.-point area (AND2 equivalents)
    decoder_area: float | None
    decoder_delay_ns: float | None

    @property
    def sort_key(self) -> tuple:
        return (
            round(self.sdc, _TIE_DECIMALS),
            round(self.due, _TIE_DECIMALS),
            self.decoder_area if self.decoder_area is not None else math.inf,
            self.name,
        )


def _tier(name: str) -> str:
    from repro.core.registry import EXTENSION_SCHEME_NAMES, SCHEME_NAMES

    if name in SCHEME_NAMES:
        return "paper"
    if name in EXTENSION_SCHEME_NAMES:
        return "extension"
    return "expansion"


def ranking_rows(
    *,
    samples: int = 20_000,
    seed: int = 1234,
    workers: int | None = None,
    cache=None,
    cell_timeout: float | None = None,
    tracer=None,
    heartbeat=None,
    warm_pool=None,
) -> list[RankedScheme]:
    """Evaluate and synthesize every registry scheme; returns ranked rows.

    Evaluation is one Table-2 Monte Carlo sweep over every scheme (so a
    populated run-store cache makes re-ranking nearly free), and the
    hardware columns come from :func:`repro.hardware.expansion.
    scheme_hardware` at the performance design point.
    """
    from repro.core.registry import get_scheme, known_scheme_names
    from repro.errormodel import sdc_risk_table, weighted_outcomes
    from repro.hardware.expansion import scheme_hardware

    hardware = scheme_hardware()
    schemes = [get_scheme(name) for name in known_scheme_names()]
    table = sdc_risk_table(
        schemes, samples=samples, seed=seed, workers=workers, cache=cache,
        cell_timeout=cell_timeout, tracer=tracer, heartbeat=heartbeat,
        warm_pool=warm_pool,
    )
    rows = []
    for scheme in schemes:
        name = scheme.name
        outcome = weighted_outcomes(scheme, per_pattern=table[name])
        encoder, decoder = hardware[name]
        rows.append(RankedScheme(
            name=name,
            label=scheme.label,
            tier=_tier(name),
            corrects_pins=scheme.corrects_pins,
            corrected=outcome.correct,
            due=outcome.detect,
            sdc=outcome.sdc,
            encoder_area=None if encoder is None else encoder.perf.area,
            decoder_area=None if decoder is None else decoder.perf.area,
            decoder_delay_ns=None if decoder is None else decoder.perf.delay_ns,
        ))
    return sorted(rows, key=lambda row: row.sort_key)


def format_ranking(rows: list[RankedScheme]) -> str:
    """Render the superset report as a diff-friendly ASCII table."""

    def area(value: float | None) -> str:
        return "-" if value is None else f"{value:,.0f}"

    def delay(value: float | None) -> str:
        return "-" if value is None else f"{value:.3f}"

    table = format_table(
        ["#", "name", "organization", "tier", "corrected", "DUE", "SDC",
         "enc area", "dec area", "dec delay (ns)", "pins"],
        [
            [rank, row.name, row.label, row.tier,
             f"{row.corrected:.2%}", f"{row.due:.2%}", format_percent(row.sdc),
             area(row.encoder_area), area(row.decoder_area),
             delay(row.decoder_delay_ns),
             "yes" if row.corrects_pins else "no"]
            for rank, row in enumerate(rows, start=1)
        ],
        title="Code-space ranking — Table-1-weighted resilience x Perf.-point "
              "silicon (SDC, then DUE, then decoder area)",
    )
    return (
        table
        + "\n\nareas in AND2 equivalents; '-' marks the multi-cycle"
        " extension tier, which has no single-cycle netlist."
    )
