"""Columnar containers for the beam/characterization hot path.

The Section 3-5 pipeline used to move corruption around as
``dict[int, np.ndarray]`` — one tiny array per affected entry, one dict per
event, one Python loop iteration per record.  Statistics-scale campaigns
(thousands of SEUs, MBME events spanning up to 6,000 entries) spend nearly
all their time in that plumbing, so this module replaces it with one flat,
NumPy-native table: :class:`FlipTable`, a set of events as four parallel
columns — a per-site ``(event, entry)`` pair plus a CSR view of each
site's flipped data bits.  The batch event synthesizer, the campaign
engine's event grouping and the streaming accumulator all work on one.

The table converts losslessly from and back to the scalar event objects,
so the retained reference paths remain first-class oracles; the packed
``(N, 5)`` ``uint64`` views use the entry bit transport of
:func:`repro.gf.gf2.pack_rows` (bit ``i`` lands in word ``i // 64`` at
weight ``2**(i % 64)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.arrays import concat_or_empty

__all__ = [
    "FlipTable",
    "unpack_packed_rows",
    "ENTRY_BITS",
    "DATA_BITS",
]

ENTRY_BITS = 288  #: transmitted bits per entry (data + ECC)
DATA_BITS = 256  #: observable data bits per entry


def unpack_packed_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Packed ``(N, 5)`` uint64 rows to flat ``(row_of_flip, bit)`` pairs.

    Bits come back sorted by (row, bit) — the order a per-entry scan would
    report them in.
    """
    rows = np.asarray(rows, dtype=np.uint64)
    bits = np.unpackbits(
        rows.view(np.uint8), axis=-1, bitorder="little"
    )[..., :ENTRY_BITS]
    row_of_flip, bit = np.nonzero(bits)
    return row_of_flip.astype(np.int64), bit.astype(np.int64)


def _csr_from_counts(counts: np.ndarray) -> np.ndarray:
    starts = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return starts


@dataclass
class FlipTable:
    """A batch of SEU events as flat columns.

    ``site_event`` is non-decreasing (events are contiguous site runs) and
    ``flip_bit`` is sorted ascending within each site — the same invariants
    the scalar ``dict[int, np.ndarray]`` representation kept implicitly.
    """

    n_events: int
    site_event: np.ndarray  #: (S,) int64 — owning event id of each site
    site_entry: np.ndarray  #: (S,) int64 — memory entry index of each site
    site_flip_start: np.ndarray  #: (S+1,) int64 — CSR offsets into flip_bit
    flip_bit: np.ndarray  #: (F,) integer — data-bit offsets 0-255 (int64
    #: from the synthesizer and scalar paths, int16 off the shm transport)
    #: per-event metadata columns, each (n_events,) — e.g. ``time_s``,
    #: ``class_code`` for ground truth; ``run``/``write_cycle``/``read_pass``
    #: for reconstructed events
    event_columns: dict[str, np.ndarray] = field(default_factory=dict)

    # -- shape helpers -----------------------------------------------------
    @property
    def n_sites(self) -> int:
        return self.site_event.size

    @property
    def n_flips(self) -> int:
        return self.flip_bit.size

    def flips_per_site(self) -> np.ndarray:
        return np.diff(self.site_flip_start)

    def event_site_start(self) -> np.ndarray:
        """(E+1,) CSR offsets of each event's site run."""
        return _csr_from_counts(
            np.bincount(self.site_event, minlength=self.n_events)
        ).astype(np.int64)

    def breadths(self) -> np.ndarray:
        """Entries affected per event (Figure 4b's quantity)."""
        return np.bincount(self.site_event, minlength=self.n_events)

    # -- conversions -------------------------------------------------------
    @classmethod
    def from_flips(
        cls,
        site_event: np.ndarray,
        site_entry: np.ndarray,
        flips_per_site: np.ndarray,
        flip_bit: np.ndarray,
        *,
        n_events: int,
        event_columns: dict[str, np.ndarray] | None = None,
    ) -> FlipTable:
        flip_bit = np.asarray(flip_bit)
        if not np.issubdtype(flip_bit.dtype, np.integer):
            flip_bit = flip_bit.astype(np.int64)
        return cls(
            n_events=int(n_events),
            site_event=np.asarray(site_event, dtype=np.int64),
            site_entry=np.asarray(site_entry, dtype=np.int64),
            site_flip_start=_csr_from_counts(
                np.asarray(flips_per_site, dtype=np.int64)
            ),
            # integer width is preserved: the shm engine ships int16 bits
            # (values < ENTRY_BITS) and the statistics kernels accept any
            # integer dtype, so upcasting would only double the footprint
            flip_bit=flip_bit,
            event_columns=dict(event_columns or {}),
        )

    @classmethod
    def from_events(cls, events) -> FlipTable:
        """Columnarize scalar ground-truth
        :class:`~repro.beam.events.SoftErrorEvent` objects (or any object
        with ``.flips``); per-event ``time_s`` is preserved when present."""
        site_event: list[int] = []
        site_entry: list[int] = []
        counts: list[int] = []
        bits: list[np.ndarray] = []
        times = []
        for index, event in enumerate(events):
            times.append(getattr(event, "time_s", 0.0))
            for entry, positions in event.flips.items():
                positions = np.asarray(positions, dtype=np.int64).reshape(-1)
                site_event.append(index)
                site_entry.append(int(entry))
                counts.append(positions.size)
                bits.append(positions)
        return cls.from_flips(
            np.array(site_event, dtype=np.int64),
            np.array(site_entry, dtype=np.int64),
            np.array(counts, dtype=np.int64),
            concat_or_empty(bits, np.int64),
            n_events=len(times),
            event_columns={"time_s": np.array(times, dtype=np.float64)},
        )

    @classmethod
    def from_observed_events(cls, events) -> FlipTable:
        """Columnarize :class:`~repro.beam.postprocess.ObservedEvent`
        objects: one site per ``flips`` item in insertion order, bits
        sorted ascending within each site (the table invariant — observed
        flip tuples already satisfy it, sorting is a cheap no-op then).

        This is how the streaming accumulator folds scalar events (the
        beam run's recovered events, the reference engine's) with the
        same kernels, and therefore the same tallies, as the shm engine.
        """
        site_event: list[int] = []
        site_entry: list[int] = []
        counts: list[int] = []
        bits: list[np.ndarray] = []
        runs, cycles, passes = [], [], []
        for index, event in enumerate(events):
            runs.append(event.run)
            cycles.append(event.write_cycle)
            passes.append(event.read_pass)
            for entry, positions in event.flips.items():
                positions = np.sort(
                    np.asarray(positions, dtype=np.int64).reshape(-1)
                )
                site_event.append(index)
                site_entry.append(int(entry))
                counts.append(positions.size)
                bits.append(positions)
        return cls.from_flips(
            np.array(site_event, dtype=np.int64),
            np.array(site_entry, dtype=np.int64),
            np.array(counts, dtype=np.int64),
            concat_or_empty(bits, np.int64),
            n_events=len(runs),
            event_columns={
                "run": np.array(runs, dtype=np.int64),
                "write_cycle": np.array(cycles, dtype=np.int64),
                "read_pass": np.array(passes, dtype=np.int64),
            },
        )

    def to_events(self):
        """Scalar :class:`~repro.beam.events.SoftErrorEvent` objects, the
        inverse of :meth:`from_events` (requires ``time_s`` and
        ``class_code`` columns, as the synthesizer writes them)."""
        from repro.beam.events import EventClass, SoftErrorEvent

        classes = list(EventClass)
        entries = self.site_entry.tolist()
        bits = np.split(self.flip_bit, self.site_flip_start[1:-1])
        starts = self.event_site_start().tolist()
        return [
            SoftErrorEvent(
                time_s=float(time_s),
                event_class=classes[code],
                flips=dict(zip(entries[lo:hi], bits[lo:hi])),
            )
            for time_s, code, lo, hi in zip(
                self.event_columns["time_s"].tolist(),
                self.event_columns["class_code"].tolist(),
                starts[:-1], starts[1:],
            )
        ]

    def packed_rows(self) -> np.ndarray:
        """Each site's flips as one bit-packed ``(S, 5)`` uint64 row."""
        bit = self.flip_bit.astype(np.int64)
        site = np.repeat(np.arange(self.n_sites), self.flips_per_site())
        rows = np.zeros((self.n_sites, -(-ENTRY_BITS // 64)), dtype=np.uint64)
        np.bitwise_or.at(
            rows, (site, bit >> 6),
            np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64)),
        )
        return rows
