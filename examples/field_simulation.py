#!/usr/bin/env python3
"""Simulating a GPU's memory in the field, end to end.

Stores real payloads in the simulated HBM2 through the protected-memory
controller, bombards it with synthesized SEU events (mapped onto the stored
layout), periodically scrubs, and reports the driver-style RAS counters —
the view a fleet operator gets.  Run once with SEC-DED and once with
TrioECC to see the paper's proposal as operational telemetry.

Run:  python examples/field_simulation.py
"""

import numpy as np

from repro.beam.events import BatchEventSynthesis
from repro.core import get_scheme
from repro.core.layout import ENTRY_BITS, NUM_PINS
from repro.dram import (
    HBM2Geometry,
    ProtectedMemory,
    SimulatedHBM2,
    UncorrectableError,
)

NUM_EVENTS = 400
ENTRIES_PER_EVENT = 4  # cap the broadest events to keep the demo quick
SCRUB_EVERY = 100  # events between background scrub passes


def transmitted_flips(positions) -> np.ndarray:
    """Map an event's logical data-bit flips onto the stored entry."""
    flips = np.zeros(ENTRY_BITS, dtype=np.uint8)
    for position in positions:
        beat, pin = divmod(int(position), 64)
        flips[beat * NUM_PINS + pin] = 1
    return flips


def run_fleet_window(scheme_name: str) -> tuple[dict, int]:
    events = BatchEventSynthesis(seed=2026).events_at(
        20.0 * np.arange(NUM_EVENTS)
    )
    device = SimulatedHBM2(HBM2Geometry.for_gpu(32))
    memory = ProtectedMemory(device, get_scheme(scheme_name))
    rng = np.random.default_rng(0)

    silent_corruptions = 0
    for index, event in enumerate(events):
        for entry_index, positions in list(event.flips.items())[
            :ENTRIES_PER_EVENT
        ]:
            payload = rng.integers(0, 256, 32, dtype=np.uint8).tobytes()
            memory.write(entry_index, payload)
            device.inject_upset(entry_index, transmitted_flips(positions))
            try:
                if memory.read(entry_index) != payload:
                    silent_corruptions += 1
            except UncorrectableError:
                pass  # the driver would poison the page and log the DUE
        if (index + 1) % SCRUB_EVERY == 0:
            memory.scrub()
    return memory.counters.snapshot(), silent_corruptions


def main() -> None:
    print(f"Replaying {NUM_EVENTS} SEU events through the protected-memory "
          f"controller...\n")
    header = f"{'RAS counter':24s}{'NI:SEC-DED':>14s}{'TrioECC':>14s}"
    secded, secded_sdc = run_fleet_window("ni-secded")
    trio, trio_sdc = run_fleet_window("trio")

    print(header)
    print("-" * len(header))
    for key in secded:
        print(f"{key:24s}{secded[key]:>14,}{trio[key]:>14,}")
    print(f"{'SILENT corruptions':24s}{secded_sdc:>14,}{trio_sdc:>14,}")

    print(
        "\nSame event stream, same memory: TrioECC turns most of SEC-DED's "
        "interrupts\n(and all of its silent corruptions) into transparent "
        "corrections — the\noperational version of Figure 8."
    )


if __name__ == "__main__":
    main()
