"""Metric values, units, percentiles and failure accounting.

Every number the benchmark prints goes through :func:`metric`, which
attaches the unit from :data:`UNITS`, so a unit label (MiB, never MB)
can never drift between runs or workloads.  Percentiles follow one rule:
a percentile is reported only when at least ten samples lie beyond it.
"""

from __future__ import annotations

import math

#: samples that must lie strictly beyond a reported percentile
MIN_BEYOND = 10

#: the unit of every metric name the benchmark can emit
UNITS = {
    # end to end
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mib": "MiB",
    # errormodel
    "errormodel.sample.busy_s": "s",
    "errormodel.sample.rows_per_s": "1/s",
    "errormodel.sample.accept_ratio": "ratio",
    "errormodel.cell.exhaustive_s": "s",
    "errormodel.cell.sampled_s": "s",
    # core
    "core.decode.busy_s": "s",
    "core.decode.rows_per_s": "1/s",
    # beam
    "beam.events.busy_s": "s",
    "beam.engine.busy_s": "s",
    "beam.engine.synthesize_s": "s",
    "beam.engine.scan_s": "s",
    "beam.engine.postprocess_s": "s",
    "beam.engine.scout_s": "s",
    "beam.engine.fold_s": "s",
    "beam.observed.busy_s": "s",
    "beam.postprocess.busy_s": "s",
    # stats
    "stats.accumulator.busy_s": "s",
    # hardware
    "hardware.synth.busy_s": "s",
    # runs
    "runs.store.save.calls": "count",
    "runs.store.save.busy_s": "s",
    "runs.store.load.calls": "count",
    "runs.store.load.busy_s": "s",
    "runs.cache.hit_ratio": "ratio",
    # serve
    "serve.latency_p50_s": "s",
    "serve.latency_p90_s": "s",
    "serve.submit_ack_s.p50": "s",
    "serve.submit_ack_s.p90": "s",
    "serve.queue_wait_s.p50": "s",
    "serve.queue_wait_s.p90": "s",
    "serve.run_s.p50": "s",
    "serve.run_s.p90": "s",
    "serve.deliver_s.p50": "s",
    "serve.attach_ratio": "ratio",
    "serve.precached_ratio": "ratio",
    "serve.rejected": "count",
    # setup
    "setup.import_s": "s",
    "setup.warm_s": "s",
    # obs
    "trace.coverage": "ratio",
    "obs.trace_overhead_ratio": "ratio",
}

END_TO_END = ("setup_s", "wall_s", "work_per_s", "peak_rss_mib")
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to report it."""


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``n``."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    return n - math.ceil(q * n)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q`` percentile, refused below ten samples beyond it."""
    ordered = sorted(values)
    beyond = samples_beyond(len(ordered), q)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {len(ordered)} samples has only {beyond} "
            f"beyond it (need {MIN_BEYOND})")
    return ordered[math.ceil(q * len(ordered)) - 1]


def metric(name: str, value: float) -> dict:
    """One printed metric: its value with all digits and its fixed unit."""
    if name not in UNITS:
        raise KeyError(f"unknown metric {name!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} is not finite: {value!r}")
    return {"value": value, "unit": UNITS[name]}


def rss_mib_from_kib(kib: float) -> float:
    """``ru_maxrss`` and ``VmHWM`` are KiB on Linux; report MiB."""
    return kib / 1024.0


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason or "failed")

    def fail_all(self, reason: str) -> None:
        """A run-level check failed: every operation's number is suspect."""
        self.failed = self.attempted
        self.reasons.append(reason)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.reasons


def result_line(tally: Tally, metrics: dict) -> dict:
    """The final stdout object: exactly the keys of the result format."""
    return {
        "correct": tally.correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }
