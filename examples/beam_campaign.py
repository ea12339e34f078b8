#!/usr/bin/env python3
"""Simulated neutron-beam campaign, end to end (Sections 3-5).

Runs the DRAM microbenchmark on a simulated 32GB HBM2 GPU inside the
ChipIR-like beam, while displacement damage and SEU events accumulate.
Then post-processes the mismatch logs exactly as a real campaign would:
filter intermittent (weak-cell) errors, group the remainder into events,
and report the soft-error patterns of Figures 4-5 and Table 1.

Run:  python examples/beam_campaign.py
"""

import numpy as np

from repro.beam import (
    BatchEventSynthesis,
    BeamCampaign,
    CampaignConfig,
    DamageParameters,
    EventParameters,
    breadth_class_fractions,
    byte_alignment_stats,
    derive_table1,
    filter_intermittent,
    group_events,
)
from repro.beam.postprocess import events_from_truth
from repro.dram.refresh import RefreshConfig


def main() -> None:
    config = CampaignConfig(
        runs=4,
        write_cycles=8,
        reads_per_write=4,
        loop_time_s=2.0,
        seed=42,
        event_parameters=EventParameters(mean_time_to_event_s=6.0),
        damage_parameters=DamageParameters(leaky_pool=150,
                                           saturation_fluence=4e8),
    )
    print("Running beam campaign (4 microbenchmark runs, 3 data patterns)...")
    result = BeamCampaign(config).run()

    clock = result.clock
    print(f"  beam time            : {clock.elapsed_s:,.0f} s")
    print(f"  cumulative fluence   : {clock.fluence:.3g} n/cm^2")
    print(f"  terrestrial equivalent: {clock.terrestrial_equivalent_hours():,.0f} h")
    print(f"  injected SEU events  : {len(result.events)}")
    print(f"  weak cells created   : {result.weak_cell_count}")
    print(f"  mismatch records     : {len(result.records)}")

    print("\nPost-processing (Section 4): filtering intermittent errors...")
    filtered = filter_intermittent(result.records)
    print(f"  soft records         : {len(filtered.soft_records)}")
    print(f"  intermittent records : {len(filtered.intermittent_records)}")
    print(f"  damaged entries      : {len(filtered.damaged_entries)}")

    observable = result.damage.observable_count(RefreshConfig(16e-3))
    print(f"  weak cells observable @16ms refresh: {observable}")

    observed = group_events(filtered.soft_records)
    print(f"\nGrouped {len(observed)} soft-error events from the logs.")

    # Add synthesized ground-truth events so the statistics below are stable.
    observed += events_from_truth(
        BatchEventSynthesis(seed=7).events_at(20.0 * np.arange(3000))
    )

    print("\nError breadth/severity classes (Figure 4a):")
    for klass, fraction in breadth_class_fractions(observed).items():
        print(f"  {klass.name}: {fraction:6.1%}")

    stats = byte_alignment_stats(observed)
    print(f"\nByte-aligned fraction of multi-bit errors (Figure 4c): "
          f"{stats['byte_aligned_fraction']:.1%}  (paper: 74.6%)")

    print("\nDerived Table 1 pattern probabilities:")
    for pattern, probability in derive_table1(observed).items():
        print(f"  {pattern.value:8s}: {probability:7.2%}")


if __name__ == "__main__":
    main()
