"""Beam-campaign driver: the full closed loop of Section 3.

A campaign ties together the simulated GPU memory, the ChipIR flux model,
the displacement-damage model and the SEU event generator, then runs the
DRAM microbenchmark under irradiation.  The output is exactly what a real
campaign produces — time-stamped mismatch records — plus the ground truth
(injected events and damaged cells) that lets the test-suite validate the
post-processing pipeline end to end.

Also provided are the two intermittent-error experiments of Section 4:

* :func:`refresh_sweep` — take a damaged GPU *out* of the beam and count
  observable weak cells while modulating the DRAM refresh period
  (Figure 3a/3b); and
* accumulation tracking inside :class:`BeamCampaign` — the cumulative count
  of intermittently-classified cells versus fluence (Figure 3c).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.beam.displacement import DamageParameters, DisplacementDamageModel
from repro.beam.events import BatchEventSynthesis, EventParameters, SoftErrorEvent
from repro.beam.flux import CHIPIR_FLUX, FluenceClock
from repro.beam.microbenchmark import (
    DataPattern,
    Microbenchmark,
    MismatchRecord,
    STANDARD_PATTERNS,
)
from repro.dram.device import SimulatedHBM2
from repro.dram.geometry import HBM2Geometry
from repro.dram.refresh import RefreshConfig

__all__ = ["CampaignConfig", "CampaignResult", "BeamCampaign", "refresh_sweep"]


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one beam-testing campaign."""

    gpu_capacity_gb: int = 32
    flux: float = CHIPIR_FLUX
    runs: int = 6  #: microbenchmark runs (patterns rotate per run)
    refresh_period_s: float = 16e-3
    seed: int = 2021
    event_parameters: EventParameters = field(default_factory=EventParameters)
    damage_parameters: DamageParameters = field(default_factory=DamageParameters)
    loop_time_s: float = 0.05
    write_cycles: int = 10
    reads_per_write: int = 20


@dataclass
class CampaignResult:
    """Everything a campaign produced, observations and ground truth."""

    records: list[MismatchRecord]
    events: list[SoftErrorEvent]  #: ground-truth injected SEUs
    clock: FluenceClock
    device: SimulatedHBM2
    damage: DisplacementDamageModel
    #: (fluence, cumulative weak-cell count) samples for Figure 3c
    accumulation_curve: list[tuple[float, int]]

    @property
    def weak_cell_count(self) -> int:
        return self.damage.damaged_count

    def fit_per_gbit(self) -> float:
        """Terrestrial FIT per Gbit derived from this campaign.

        Converts the observed SEU count through the fluence clock's
        acceleration factor and the device capacity — the calculation that
        turns a beam campaign into the 12.51 FIT/Gbit-style rates the
        system models of :mod:`repro.system` consume.
        """
        total_fit = self.clock.events_to_fit(len(self.events))
        gbits = self.device.geometry.data_bytes_total * 8 / 1e9
        return total_fit / gbits


class BeamCampaign:
    """Run the microbenchmark on a simulated GPU inside the beam."""

    def __init__(self, config: CampaignConfig | None = None) -> None:
        self.config = config or CampaignConfig()
        geometry = HBM2Geometry.for_gpu(self.config.gpu_capacity_gb)
        self.device = SimulatedHBM2(
            geometry, RefreshConfig(self.config.refresh_period_s)
        )
        self.clock = FluenceClock(flux=self.config.flux)
        self.damage = DisplacementDamageModel(
            geometry, self.config.damage_parameters, seed=self.config.seed
        )
        self.events = BatchEventSynthesis(
            geometry, self.config.event_parameters, seed=self.config.seed + 1
        )
        self._event_log: list[SoftErrorEvent] = []
        self._accumulation: list[tuple[float, int]] = []
        # the running run's events: arrival times, per-event site offsets,
        # site entries and packed flip rows, and how many are injected
        self._times = np.empty(0)
        self._site_start = np.zeros(1, dtype=np.int64)
        self._site_entry = np.empty(0, dtype=np.int64)
        self._site_rows = np.empty((0, 5), dtype=np.uint64)
        self._applied = 0

    # -- environment stepping -----------------------------------------------
    def _environment(self, dt_s: float) -> None:
        """Advance the world while the benchmark runs one loop step."""
        step_fluence = self.clock.advance(dt_s)
        if step_fluence > 0.0:
            entries, bits, retentions, leaks = \
                self.damage.accumulate_columns(step_fluence)
            if entries.size:
                self.device.install_weak_cells_batch(
                    entries, bits, retentions, leaks
                )
            # every pending event that arrived before the clock
            due = int(np.searchsorted(self._times, self.clock.elapsed_s))
            sites = slice(self._site_start[self._applied],
                          self._site_start[due])
            self.device.inject_upsets_batch(
                self._site_entry[sites], self._site_rows[sites]
            )
            self._applied = due
        self._accumulation.append(
            (self.clock.fluence, self.damage.damaged_count)
        )

    # -- campaign ------------------------------------------------------------
    def run(
        self,
        patterns: list[DataPattern] | None = None,
        *,
        checkpoint=None,
    ) -> CampaignResult:
        """Run ``config.runs`` microbenchmark runs, rotating data patterns.

        ``checkpoint`` (e.g. :class:`repro.runs.CampaignCheckpoint`, or any
        object with ``record_run(run_index, records, clock)``) is notified
        after each completed run, so an interrupted campaign leaves an
        append-only progress log behind.
        """
        patterns = patterns or STANDARD_PATTERNS()
        config = self.config
        benchmark = Microbenchmark(
            self.device,
            write_cycles=config.write_cycles,
            reads_per_write=config.reads_per_write,
            loop_time_s=config.loop_time_s,
        )
        # One synthesis call covers every loop step of every run.
        duration_s = (config.runs * config.write_cycles
                      * (1 + config.reads_per_write) * config.loop_time_s)
        pending = self.events.interval_table(duration_s, self.clock.elapsed_s)
        self._times = pending.event_columns["time_s"]
        self._site_start = pending.event_site_start()
        self._site_entry = pending.site_entry
        self._site_rows = pending.packed_rows()
        self._applied = 0
        records: list[MismatchRecord] = []
        for run_index in range(config.runs):
            pattern = patterns[run_index % len(patterns)]
            records.extend(
                benchmark.run(
                    pattern,
                    run_index=run_index,
                    start_time_s=self.clock.elapsed_s,
                    environment=self._environment,
                )
            )
            if checkpoint is not None:
                checkpoint.record_run(run_index, records, self.clock)
        self._event_log.extend(pending.to_events()[:self._applied])
        return CampaignResult(
            records=records,
            events=list(self._event_log),
            clock=self.clock,
            device=self.device,
            damage=self.damage,
            accumulation_curve=list(self._accumulation),
        )


def refresh_sweep(
    damage: DisplacementDamageModel,
    periods_s: list[float],
) -> dict[float, int]:
    """The Figure 3a experiment: observable weak cells per refresh period.

    Run *outside* the beam on an already-damaged model (the paper pulls one
    GPU out of the beam and modulates refresh through a modified BIOS).
    """
    counts = damage.observable_counts(periods_s)
    return {
        period: int(count) for period, count in zip(periods_s, counts)
    }
