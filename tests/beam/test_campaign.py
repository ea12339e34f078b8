"""End-to-end tests of the beam-campaign driver."""

import numpy as np
import pytest

from repro.beam.campaign import BeamCampaign, CampaignConfig, refresh_sweep
from repro.beam.displacement import DamageParameters, DisplacementDamageModel
from repro.beam.events import BatchEventSynthesis, EventParameters
from repro.beam.postprocess import filter_intermittent, group_events
from repro.dram.geometry import HBM2Geometry
from repro.dram.refresh import RefreshConfig


CONFIG = CampaignConfig(
    runs=2,
    write_cycles=5,
    reads_per_write=4,
    loop_time_s=2.0,
    seed=77,
    event_parameters=EventParameters(mean_time_to_event_s=6.0),
    damage_parameters=DamageParameters(leaky_pool=60, saturation_fluence=2e8),
)


@pytest.fixture(scope="module")
def result():
    return BeamCampaign(CONFIG).run()


class TestCampaign:
    def test_produces_events_and_records(self, result):
        assert len(result.events) > 5
        assert len(result.records) > 5

    def test_fluence_accrued(self, result):
        expected_time = 2 * 5 * (1 + 4) * 2.0
        assert result.clock.elapsed_s == pytest.approx(expected_time)
        assert result.clock.fluence == pytest.approx(9.8e5 * expected_time)

    def test_accumulation_curve_monotone(self, result):
        counts = [count for _, count in result.accumulation_curve]
        assert counts == sorted(counts)
        fluences = [fluence for fluence, _ in result.accumulation_curve]
        assert fluences == sorted(fluences)

    def test_weak_cells_created(self, result):
        assert result.weak_cell_count > 10

    def test_observed_events_are_subset_of_truth(self, result):
        # Every observed erroneous entry must trace back to ground truth: a
        # real SEU, a filtered damaged entry, or a weak cell seen too few
        # times for the filter (e.g. created late in the campaign).
        filtered = filter_intermittent(result.records)
        observed = group_events(filtered.soft_records)
        true_entries = set()
        for event in result.events:
            true_entries.update(event.flips)
        weak_entries = {cell.entry_index for cell in result.damage.damaged_cells}
        for event in observed:
            for entry in event.flips:
                assert (
                    entry in true_entries
                    or entry in filtered.damaged_entries
                    or entry in weak_entries
                )

    def test_filter_catches_most_weak_cells(self, result):
        filtered = filter_intermittent(result.records)
        # Damaged entries discovered by the filter must be real weak cells
        # (no soft-error entry recurs across write cycles at these rates).
        weak_entries = {cell.entry_index for cell in result.damage.damaged_cells}
        soft_entries = set()
        for event in result.events:
            soft_entries.update(event.flips)
        for entry in filtered.damaged_entries:
            assert entry in weak_entries or entry in soft_entries


class TestGroundTruth:
    def test_events_come_from_one_synthesis_call(self, result):
        """The injected events are one interval draw over the whole
        campaign, not one draw per loop step."""
        duration_s = (CONFIG.runs * CONFIG.write_cycles
                      * (1 + CONFIG.reads_per_write) * CONFIG.loop_time_s)
        truth = BatchEventSynthesis(
            HBM2Geometry.for_gpu(CONFIG.gpu_capacity_gb),
            CONFIG.event_parameters, seed=CONFIG.seed + 1,
        ).interval_events(duration_s)
        assert len(result.events) == len(truth) > 5
        for got, want in zip(result.events, truth):
            assert got.time_s == want.time_s
            assert got.event_class is want.event_class
            assert list(got.flips) == list(want.flips)
            for entry, positions in want.flips.items():
                assert np.array_equal(got.flips[entry], positions)


class TestRefreshSweep:
    def test_sweep_monotone(self):
        model = DisplacementDamageModel(seed=5)
        model.accumulate(1e11)
        sweep = refresh_sweep(model, [8e-3, 16e-3, 32e-3, 48e-3])
        counts = [sweep[p] for p in sorted(sweep)]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]

    def test_sweep_keys_are_periods(self):
        model = DisplacementDamageModel(seed=6)
        model.accumulate(1e10)
        sweep = refresh_sweep(model, [16e-3])
        assert set(sweep) == {16e-3}


class TestAnnealingProtocol:
    """The paper's exact Section-4 annealing protocol: a trial refresh
    sweep, ~3.5 hours outside the beam, then the full sweep — short
    retention periods lose far more cells than long ones."""

    def test_trial_then_full_experiment(self):
        from repro.beam.displacement import DisplacementDamageModel

        model = DisplacementDamageModel(seed=40)
        model.accumulate(1e11)  # a heavily damaged GPU

        trial = refresh_sweep(model, [8e-3, 48e-3])
        model.anneal(3.5 * 3600)
        full = refresh_sweep(model, [8e-3, 48e-3])

        drop_short = 1.0 - full[8e-3] / trial[8e-3]
        drop_long = 1.0 - full[48e-3] / trial[48e-3]
        # Paper: -26% at 8 ms vs -2.5% at 48 ms.
        assert 0.05 < drop_short < 0.5
        assert 0.0 <= drop_long < 0.10
        assert drop_short > 3 * drop_long


class TestFitDerivation:
    """Closing the characterization loop: campaign event counts convert to
    terrestrial FIT rates via the fluence clock."""

    def test_campaign_fit_matches_configured_rate(self):
        from repro.beam.flux import CHIPIR_FLUX, TERRESTRIAL_FLUX, FluenceClock

        clock = FluenceClock()
        beam_seconds = 3600.0
        clock.advance(beam_seconds)
        # With a 20s in-beam MTTE the underlying terrestrial event rate is
        # (1/20s) / acceleration; events_to_fit must invert that exactly.
        events = int(beam_seconds / 20.0)
        fit = clock.events_to_fit(events)
        acceleration = CHIPIR_FLUX / TERRESTRIAL_FLUX
        expected_per_hour = (1.0 / 20.0) * 3600.0 / acceleration
        assert fit == pytest.approx(expected_per_hour * 1e9, rel=1e-6)


class TestCampaignFitDerivation:
    def test_fit_per_gbit_closed_form(self, result):
        """Events / terrestrial-equivalent hours / capacity — checked
        against a hand computation from the clock state."""
        fit = result.fit_per_gbit()
        hours = result.clock.terrestrial_equivalent_hours()
        gbits = result.device.geometry.data_bytes_total * 8 / 1e9
        expected = len(result.events) / hours * 1e9 / gbits
        assert fit == pytest.approx(expected)
        assert fit > 0

    def test_end_to_end_into_system_model(self, result):
        """A campaign-derived rate can drive the Section 7.3 models."""
        from repro.core import get_scheme
        from repro.errormodel import weighted_outcomes
        from repro.system import GpuMemoryModel, assess_scheme

        gpu = GpuMemoryModel(fit_per_gbit=result.fit_per_gbit(),
                             memory_gbit=256.0)  # the campaign's 32GB GPU
        outcome = weighted_outcomes(get_scheme("trio"), samples=2000, seed=1)
        assessment = assess_scheme(outcome, gpu=gpu)
        assert assessment.sdc_fit >= 0.0
        assert assessment.due_fit > 0.0
