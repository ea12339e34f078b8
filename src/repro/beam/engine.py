"""Columnar statistics-campaign engine (generate → scan → post-process).

The Figure 4/5 and Table 1 statistics need thousands of ground-truth SEU
events pushed through the whole observation pipeline: synthesize the
event, corrupt the simulated device, scan it back and classify what the
scan recovered.  This module packages that loop as one engine with two
interchangeable implementations:

* ``engine="columnar"`` — :class:`~repro.beam.events.BatchEventSynthesis`
  draws every event of a chunk vectorized, the device is corrupted with
  bit-packed batch injections, read back through
  :meth:`~repro.dram.device.SimulatedHBM2.scan_mismatches_batch`, and the
  mismatch log is post-processed as a
  :class:`~repro.beam.fliptable.RecordTable` without ever materializing
  per-record Python objects.
* ``engine="reference"`` — the retained scalar oracle: per-event draws,
  per-entry injection, the per-entry scalar scan and the record-list
  post-processing helpers.

Both engines consume identical random streams (chunk ``c`` is seeded by
``SeedSequence(seed).spawn(n_chunks)[c]``) and therefore derive
bit-identical statistics; the equivalence suite asserts it and the
throughput benchmark measures the gap.

Chunks are independent, so ``workers=N`` fans them out over a process
pool with the shared requeue-once-then-serial robustness of
:func:`repro.core.pool.run_with_requeue` — and, thanks to per-chunk
seeding, the same results on every path.

Observability: every chunk runs under its own worker-side
:class:`repro.obs.Tracer` (``chunk`` → ``synthesize``/``scan`` spans with
event/record counters, tagged with the worker pid); the parent merges
the records as chunks complete, wraps the whole run in a ``campaign``
span, and derives :attr:`StatisticsResult.stage_seconds` from the trace.
Pass ``tracer=`` to graft the campaign into a larger trace (the CLI
passes its run session's tracer) and ``heartbeat=`` for periodic
progress lines while chunks complete.
"""

from __future__ import annotations

import logging
import os

# BrokenExecutor and the futures TimeoutError are re-exported here for the
# degradation tests, which monkeypatch this module's ProcessPoolExecutor
# and raise these exact types from fake futures.
from concurrent.futures import BrokenExecutor  # noqa: F401
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout  # noqa: F401
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.beam.events import (
    BITS_PER_WORD,
    WORDS_PER_ENTRY,
    BatchEventSynthesis,
    EventParameters,
    _floor_scaled,
    _inverse_permutations,
    _power_law_breadths,
    _truncated_binomial_cdf,
)
from repro.beam.fliptable import RecordTable, unpack_packed_rows
from repro.beam.microbenchmark import (
    ANPattern,
    CheckerboardPattern,
    DataPattern,
    MismatchRecord,
    UniformPattern,
)
from repro.core.arrays import concat_or_empty
from repro.core.mem import enable_heap_reuse
from repro.core.pool import (
    RetryPolicy,
    pool_worker_init,
    run_with_requeue,
)
from repro.core.shm import ShmArena, SliceDescriptor, align, read_attached, \
    read_columns, write_columns
from repro.dram.device import SimulatedHBM2
from repro.dram.geometry import HBM2Geometry
from repro.faults import faultpoint
from repro.obs import Tracer, stage_totals

__all__ = ["StatisticsResult", "run_statistics_campaign", "ENGINES",
           "STATS_MODES", "resolve_stats_mode"]

_LOGGER = logging.getLogger(__name__)

_DATA_BITS = 256
_DATA_WORDS = _DATA_BITS // 64

#: The interchangeable engine implementations: ``shm`` is the fused
#: zero-copy fast path, ``columnar`` and ``reference`` are its oracles.
ENGINES = ("shm", "columnar", "reference")

#: how the statistics are aggregated: ``materialize`` concatenates every
#: record column and post-processes once (the oracle); ``streaming``
#: folds each job into a fixed-size accumulator worker-side and merges
#: states — same floats, O(state) transport, flat host memory
STATS_MODES = ("materialize", "streaming")


def resolve_stats_mode(engine: str, stats: str | None = None) -> str:
    """The statistics mode a campaign entry point runs ``engine`` with.

    ``None`` picks the engine's default: ``streaming`` on the vectorized
    engines, ``materialize`` on the scalar reference engine, which has
    no streaming path.  An explicit ``streaming`` on the reference
    engine is a :class:`ValueError`.
    """
    if stats is None:
        return "materialize" if engine == "reference" else "streaming"
    if stats not in STATS_MODES:
        raise ValueError(f"stats must be one of {STATS_MODES}")
    if stats == "streaming" and engine == "reference":
        raise ValueError(
            "the reference engine has no streaming statistics path; "
            "use engine 'shm' or 'columnar', or stats 'materialize'"
        )
    return stats


#: the record columns every engine's chunk evaluation produces
_COLUMN_KEYS = ("time_s", "write_cycle", "entry_index",
                "flips_per_record", "flip_bit")
#: dtypes of an *empty* column set.  The shm transport ships the two
#: flip-sized columns narrow (flip bits are < 288, per-record flip
#: counts < 2**15) — a 4x smaller resident set keeps the whole-campaign
#: postprocess under the allocator's fresh-page regime; the columnar
#: engine keeps shipping int64 and both finalizers accept either width.
_COLUMN_DTYPES = {
    "time_s": np.float64,
    "write_cycle": np.int64,
    "entry_index": np.int64,
    "flips_per_record": np.int16,
    "flip_bit": np.int16,
}

#: arena budget per event for the shm transport (generous vs the ~1.2 KB
#: empirical mean; tmpfs pages materialize only when written, and a range
#: that outgrows its slice degrades to the inline pickled path)
_SHM_BYTES_PER_EVENT = 4096
#: flat per-job slice headroom on top of the per-event budget
_SHM_JOB_HEADROOM = 1 << 20

_STAGES = ("synthesize", "scan", "postprocess")
#: streaming pipeline stages: the scout sweep (entry placement replay →
#: occupancy index), the evaluation sweep's synthesis (plus ``scan`` on
#: the columnar engine, which still runs its device pass), and the folds
_STREAM_STAGES = ("scout", "synthesize", "scan", "fold")


def _pattern_by_name(name: str) -> DataPattern:
    if name == "all0":
        return UniformPattern(ones=False)
    if name == "all1":
        return UniformPattern(ones=True)
    if name == "checkerboard":
        return CheckerboardPattern()
    if name == "an-encoded":
        return ANPattern()
    raise ValueError(f"unknown data pattern {name!r}")


@dataclass
class StatisticsResult:
    """Derived statistics plus the per-stage throughput accounting."""

    engine: str
    n_events: int
    n_records: int
    n_observed: int
    class_fractions: dict
    mbme_histogram: dict
    byte_alignment: dict
    bits_per_word_aligned: dict
    bits_per_word_non_aligned: dict
    table1: dict
    #: accumulated wall-clock seconds per stage, in pipeline order
    #: (derived from the trace; kept as a dict for manifest compatibility)
    stage_seconds: dict = field(default_factory=dict)
    #: the campaign's span records (chunk/worker spans included) — what
    #: the run store exports as the trace artifact
    trace: list = field(default_factory=list, repr=False, compare=False)
    #: pool-degradation telemetry (requeues, timeouts), empty when serial
    pool_counters: dict = field(default_factory=dict, repr=False,
                                compare=False)
    #: which aggregation path produced this result (``STATS_MODES``)
    stats_mode: str = "materialize"
    #: the merged streaming accumulator (``stats="streaming"`` only) —
    #: carries the raw tallies for downstream models (e.g. the fleet FIT
    #: composition) without re-deriving them from the float statistics
    accumulator: object = field(default=None, repr=False, compare=False)
    #: lazy materializer for :attr:`observed_events` (columnar results
    #: keep the grouped table and only build ObservedEvent objects on use)
    _observed_factory: object = field(default=None, repr=False, compare=False)
    _observed: list | None = field(default=None, repr=False, compare=False)

    @property
    def observed_events(self) -> list:
        """The recovered events, for merging with campaign observations."""
        if self._observed is None:
            factory = self._observed_factory
            self._observed = list(factory()) if factory is not None else []
        return self._observed

    @property
    def events_per_second(self) -> dict:
        """Per-stage throughput — what ``repro runs show`` surfaces."""
        return {
            stage: (self.n_events / seconds) if seconds > 0 else 0.0
            for stage, seconds in self.stage_seconds.items()
        }

    def counters(self) -> dict:
        """Flat manifest-ready counters (JSON-safe scalars only)."""
        flat: dict = {"engine": self.engine, "events": self.n_events,
                      "records": self.n_records, "observed": self.n_observed}
        if self.stats_mode != "materialize":
            flat["stats"] = self.stats_mode
        for stage, seconds in self.stage_seconds.items():
            flat[f"{stage}_s"] = round(seconds, 6)
        for stage, rate in self.events_per_second.items():
            flat[f"{stage}_events_per_s"] = round(rate, 3)
        flat.update(self.pool_counters)
        return flat


#: what both finalizers return for a campaign that observed nothing
_EMPTY_STATS = ({}, {}, {}, {}, {}, {})


class _ChunkJob(NamedTuple):
    """One contiguous run of global event indices awaiting evaluation."""

    index: int
    start: int  #: global index of the chunk's first event
    size: int
    seed_seq: np.random.SeedSequence


class _RangeJob(NamedTuple):
    """A run of whole chunks the shm engine evaluates in one fused pass.

    Chunk seeding is untouched — the range replays each member chunk's
    phase streams with that chunk's own ``SeedSequence`` — so the range
    partition never changes the statistics, only the dispatch granularity.
    """

    index: int
    start: int  #: global index of the range's first event
    size: int  #: total events across the member chunks
    chunks: tuple  #: the member :class:`_ChunkJob`s, in order


def _fresh_seed(seq: np.random.SeedSequence) -> np.random.SeedSequence:
    """A pristine copy of a chunk's seed sequence.

    ``SeedSequence.spawn`` is stateful — a second spawn from the same
    object yields different children — but a chunk's streams are defined
    as the *first* spawn of its seed.  Every evaluation therefore spawns
    from a copy (same entropy, same spawn_key, zero children spawned), so
    replaying a chunk in the same process — the streaming engine's scout
    sweep followed by its evaluation sweep, or a serial requeue — sees
    exactly the streams a fresh worker would.
    """
    return np.random.SeedSequence(
        entropy=seq.entropy, spawn_key=seq.spawn_key,
        pool_size=seq.pool_size,
    )


def _event_times(start: int, size: int,
                 parameters: EventParameters) -> np.ndarray:
    """Each event owns one write cycle; time is its global index scaled."""
    return (start + np.arange(size, dtype=np.float64)) \
        * parameters.mean_time_to_event_s


def _columnar_chunk(
    geometry: HBM2Geometry,
    parameters: EventParameters,
    pattern: DataPattern,
    job: _ChunkJob,
    tracer: Tracer,
) -> dict:
    """Vectorized chunk: batch synthesis, packed injection + scan."""
    synthesis = BatchEventSynthesis(
        geometry, parameters, seed=_fresh_seed(job.seed_seq)
    )
    with tracer.span("synthesize"):
        table = synthesis.table_at(
            _event_times(job.start, job.size, parameters)
        )
        tracer.count(events=job.size, sites=int(table.site_entry.size))

    with tracer.span("scan"):
        columns = _scan_columnar(geometry, pattern, job, table)
        tracer.count(records=int(columns["entry_index"].size))
    return columns


def _scan_columnar(
    geometry: HBM2Geometry,
    pattern: DataPattern,
    job: _ChunkJob,
    table,
) -> dict:
    """Inject and scan one synthesized chunk, returning record columns."""
    device = SimulatedHBM2(geometry)
    expected = pattern.entry_fn(False)
    packed = pattern.packed_fn(False)
    packed_sites = table.packed_site_rows()
    times = table.event_columns["time_s"]

    # Fast path: inject the whole chunk's sites, scan once.  Each event's
    # write cycle is distinct, so the batched scan is record-for-record
    # the per-event scan *provided* no two events of the chunk hit the
    # same entry (their overlays would XOR-merge); site entries are
    # event-major and ascending within an event, so after the entry-sorted
    # scan a searchsorted gather restores per-site record order.
    unique_entries = np.unique(table.site_entry)
    if unique_entries.size == table.site_entry.size:
        device.write_all(expected, packed)
        device.inject_upsets_batch(table.site_entry, packed_sites)
        entries, diff = device.scan_mismatches_batch(expected, packed)
        diff = diff.copy()
        diff[:, _DATA_WORDS:] = 0  # ECC-disabled: data bits only
        keep = diff.any(axis=1)
        entries, diff = entries[keep], diff[keep]
        site_rows = diff[np.searchsorted(entries, table.site_entry)]
        observed = site_rows.any(axis=1)
        row_of_flip, bits = unpack_packed_rows(site_rows[observed])
        n_observed = int(observed.sum())
        counts = np.diff(
            np.searchsorted(row_of_flip, np.arange(n_observed + 1))
        )
        site_event = table.site_event[observed]
        columns = {
            "time_s": times[site_event],
            "write_cycle": job.start + site_event,
            "entry_index": table.site_entry[observed],
            "flips_per_record": counts,
            "flip_bit": bits,
        }
        return columns

    # Collision path (rare): per-event write/inject/scan, same records.
    site_start = table.event_site_start()
    time_col: list[np.ndarray] = []
    cycle_col: list[np.ndarray] = []
    entry_col: list[np.ndarray] = []
    count_col: list[np.ndarray] = []
    bit_col: list[np.ndarray] = []
    for index in range(table.n_events):
        lo, hi = site_start[index], site_start[index + 1]
        device.write_all(expected, packed)  # O(1): resets the overlay
        device.inject_upsets_batch(
            table.site_entry[lo:hi], packed_sites[lo:hi]
        )
        entries, diff = device.scan_mismatches_batch(expected, packed)
        diff = diff.copy()
        diff[:, _DATA_WORDS:] = 0
        keep = diff.any(axis=1)
        if not keep.any():
            continue
        kept = entries[keep]
        row_of_flip, bits = unpack_packed_rows(diff[keep])
        counts = np.diff(
            np.searchsorted(row_of_flip, np.arange(kept.size + 1))
        )
        time_col.append(np.full(kept.size, times[index]))
        cycle_col.append(np.full(kept.size, job.start + index,
                                 dtype=np.int64))
        entry_col.append(kept)
        count_col.append(counts)
        bit_col.append(bits)

    return {
        "time_s": concat_or_empty(time_col, np.float64),
        "write_cycle": concat_or_empty(cycle_col, np.int64),
        "entry_index": concat_or_empty(entry_col, np.int64),
        "flips_per_record": concat_or_empty(count_col, np.int64),
        "flip_bit": concat_or_empty(bit_col, np.int64),
    }


def _smallest_mask(u: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mask of each row's ``counts`` smallest values, without argsorts.

    Bit-identical to ``_inverse_permutations(u) < counts[:, None]``: when
    the value at the selection boundary is strictly below its successor,
    rank membership depends only on the value multiset, so one values-only
    sort plus a threshold compare replaces the stable argsort, its rank
    scatter, and the rank matrix.  Rows with an exact float tie *at the
    boundary* (detected, not assumed away) fall back to the stable-rank
    path, so the measure-zero tie behaviour still matches the oracle.
    """
    if not u.size:
        return np.zeros(u.shape, dtype=bool)
    width = u.shape[-1]
    rows = np.arange(u.shape[0])
    ordered = np.sort(u, axis=-1)
    mask = u <= ordered[rows, counts - 1][:, None]
    boundary = np.nonzero(counts < width)[0]
    tied = boundary[
        ordered[boundary, counts[boundary] - 1]
        == ordered[boundary, counts[boundary]]
    ]
    if tied.size:
        mask[tied] = _inverse_permutations(u[tied]) \
            < counts[tied, None]
    return mask


def _chunk_site_layout(
    geometry: HBM2Geometry,
    params: EventParameters,
    class_cdf: np.ndarray,
    rngs: dict,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class codes, per-site event index and entry placement for one chunk.

    The shared head of the fused pass: everything decided by the
    ``klass``/``breadth``/``place`` phase streams, before any mode or
    severity draw touches the other streams.  The scout sweep replays
    exactly this — entry placement depends on nothing downstream — so its
    entry multiset matches the synthesized records site-for-site.
    """
    per_bank = geometry.entries_per_bank
    codes = np.minimum(
        np.searchsorted(class_cdf, rngs["klass"].random(n), side="right"),
        3,
    ).astype(np.int64)
    is_sbme = codes == 1
    is_mbme = codes == 3

    u_breadth = rngs["breadth"].random(n)
    breadth = np.ones(n, dtype=np.int64)
    breadth[is_sbme] = _power_law_breadths(
        u_breadth[is_sbme], params.sbme_breadth_alpha,
        params.sbme_breadth_max,
    )
    breadth[is_mbme] = _power_law_breadths(
        u_breadth[is_mbme], params.mbme_breadth_alpha,
        params.mbme_breadth_max,
    )
    breadth = np.minimum(breadth, per_bank)

    u_place = rngs["place"].random(2 * n).reshape(n, 2)
    first_entry = _floor_scaled(u_place[:, 0], geometry.total_entries)
    bank_start = (first_entry // per_bank) * per_bank
    offset = np.floor(
        u_place[:, 1] * (per_bank - breadth + 1)
    ).astype(np.int64)
    base_entry = np.where(breadth > 1, bank_start + offset, first_entry)

    site_event = np.repeat(np.arange(n, dtype=np.int64), breadth)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(breadth, out=starts[1:])
    within = np.arange(site_event.size, dtype=np.int64) - np.repeat(
        starts[:-1], breadth
    )
    site_entry = base_entry[site_event] + within
    return codes, site_event, site_entry


def _fused_range_columns(
    geometry: HBM2Geometry,
    parameters: EventParameters,
    job: _RangeJob,
    *,
    include_time: bool = True,
) -> dict:
    """Whole-range fused synthesis: record columns without a device pass.

    Two observations collapse the per-chunk pipeline:

    * The campaign's inject/scan stage is an *identity* on the synthesized
      flips — every event owns its own write cycle, the device is reset
      before each one, and ECC bits are masked — so the record columns are
      the synthesis columns relabeled (``time_s``/``write_cycle`` gathered
      per site).  No :class:`~repro.dram.device.SimulatedHBM2` needed.
    * Per chunk, only the *sized draws* must replay that chunk's phase
      streams, and every transform past the draws (the argsort-of-uniforms
      word and offset picks, the flip scatter, the final ``(site, bit)``
      lexsort) is row-local — rows never mix between chunks and
      ``(site, bit)`` pairs are unique.  The transforms therefore stream
      per chunk and only the slim output columns accumulate; one counting
      scatter merges the whole range at the end.  Keeping the resident
      set near the output size (rather than stacking every intermediate)
      is what holds million-event ranges inside the allocator's
      reused-page regime — see ``repro.core.mem``.

    Bit-for-bit equality with per-chunk :func:`_columnar_chunk` output is
    pinned by the equivalence suite.
    """
    params = parameters
    class_cdf = np.cumsum(np.asarray(
        params.class_probabilities, dtype=np.float64
    ))
    cum_ba = np.cumsum(np.asarray(params.byte_aligned_words_dist))
    cum_na = np.cumsum(np.asarray(params.non_aligned_words_dist))

    cdf8 = _truncated_binomial_cdf(8)
    cdf64 = _truncated_binomial_cdf(BITS_PER_WORD)

    # Per-chunk accumulators; event/site indices are rebased to the range.
    # Flip parts keep (global site run, int16 bits) pairs for the final
    # counting scatter; everything else dies with its chunk iteration.
    site_event_p: list[np.ndarray] = []
    site_entry_p: list[np.ndarray] = []
    counts_p: list[np.ndarray] = []
    flip_site_parts: list[np.ndarray] = []
    flip_bit_parts: list[np.ndarray] = []
    event_off = 0
    site_off = 0

    for chunk in job.chunks:
        n = chunk.size
        rngs = BatchEventSynthesis(
            geometry, params, seed=_fresh_seed(chunk.seed_seq)
        )._phase_rngs()

        codes, site_event, site_entry = _chunk_site_layout(
            geometry, params, class_cdf, rngs, n
        )
        is_mbse = codes == 2
        is_mbme = codes == 3
        is_mb = is_mbse | is_mbme

        u_mode = rngs["mode"].random(4 * n).reshape(n, 4)
        sb_bit = _floor_scaled(u_mode[:, 0], _DATA_BITS)
        pin_bit = _floor_scaled(u_mode[:, 0], BITS_PER_WORD)
        is_pin = is_mbse & (u_mode[:, 1] < params.pin_fault_fraction)
        aligned = is_mb & ~is_pin & (
            u_mode[:, 2] < params.byte_aligned_fraction
        )
        byte_col = np.where(
            aligned, _floor_scaled(u_mode[:, 3], BITS_PER_WORD // 8), -1
        )

        site_is_mb = is_mb[site_event]
        mb_sites = np.nonzero(site_is_mb)[0]
        mb_event = site_event[mb_sites]
        u_words = rngs["words"].random(mb_sites.size)
        nw = np.where(
            is_pin[mb_event],
            2 + _floor_scaled(u_words, WORDS_PER_ENTRY - 1),
            1 + np.minimum(
                np.where(
                    aligned[mb_event],
                    np.searchsorted(cum_ba, u_words, side="right"),
                    np.searchsorted(cum_na, u_words, side="right"),
                ),
                WORDS_PER_ENTRY - 1,
            ),
        ).astype(np.int64)
        u_pick = rngs["pick"].random(4 * mb_sites.size).reshape(-1, 4)

        # Sized draws for the deferred transforms: each plain (non-pin)
        # multi-bit site selects exactly ``nw`` words (`rank < nw` over a
        # permutation of 0..3) of its class's width, so the sev/off stream
        # totals are known without running the argsorts here.
        pin_site = is_pin[mb_event]
        plain_nw = nw[~pin_site]
        plain_width = np.where(aligned[mb_event[~pin_site]], 8, BITS_PER_WORD)
        u_sev = rngs["sev"].random(3 * int(plain_nw.sum())).reshape(-1, 3)
        u_off = rngs["off"].random(int((plain_nw * plain_width).sum()))

        # Chunk-local transforms — mirrors the tail of
        # :meth:`BatchEventSynthesis._table` on this chunk's rows.
        word_sel = _smallest_mask(u_pick, nw)
        plain_word_sel = word_sel & ~pin_site[:, None]
        w_site, w_word = np.nonzero(plain_word_sel)
        w_event = mb_event[w_site]
        w_aligned = aligned[w_event]
        w_width = np.where(w_aligned, 8, BITS_PER_WORD)
        w_base = w_word * BITS_PER_WORD + np.where(
            w_aligned, byte_col[w_event] * 8, 0
        )

        sparse = ~w_aligned & (u_sev[:, 1] < params.sparse_severity_fraction)
        binom = np.minimum(
            2 + np.where(
                w_aligned,
                np.searchsorted(cdf8, u_sev[:, 2], side="right"),
                np.searchsorted(cdf64, u_sev[:, 2], side="right"),
            ),
            w_width,
        )
        count = np.where(
            u_sev[:, 0] < params.inversion_fraction,
            w_width,
            np.where(sparse, 2 + _floor_scaled(u_sev[:, 2], 3), binom),
        ).astype(np.int64)

        off_starts = np.zeros(w_site.size + 1, dtype=np.int64)
        np.cumsum(w_width, out=off_starts[1:])

        chunk_sites: list[np.ndarray] = []
        chunk_bits: list[np.ndarray] = []

        sb_sites = np.nonzero(~site_is_mb)[0]
        chunk_sites.append(sb_sites)
        chunk_bits.append(sb_bit[site_event[sb_sites]])

        p_site, p_word = np.nonzero(word_sel & pin_site[:, None])
        chunk_sites.append(mb_sites[p_site])
        chunk_bits.append(
            p_word * BITS_PER_WORD + pin_bit[mb_event[p_site]]
        )

        for width, cond in ((8, w_aligned), (BITS_PER_WORD, ~w_aligned)):
            group = np.nonzero(cond)[0]
            if not group.size:
                continue
            index = off_starts[group][:, None] + np.arange(width)
            sel = _smallest_mask(u_off[index], count[group])
            g_row, g_off = np.nonzero(sel)
            chunk_sites.append(mb_sites[w_site[group[g_row]]])
            chunk_bits.append(w_base[group[g_row]] + g_off)

        counts_p.append(np.bincount(
            np.concatenate(chunk_sites), minlength=site_event.size
        ).astype(np.int16))
        for sites, bits in zip(chunk_sites, chunk_bits):
            if sites.size:
                flip_site_parts.append(sites + site_off)
                flip_bit_parts.append(bits.astype(np.int16))

        site_event_p.append(site_event + event_off)
        site_entry_p.append(site_entry)
        event_off += n
        site_off += site_event.size

    # consume=True releases the per-chunk blocks as we go
    site_event = concat_or_empty(site_event_p, np.int64, consume=True)
    site_entry = concat_or_empty(site_entry_p, np.int64, consume=True)
    flips_per_site = concat_or_empty(counts_p, np.int16, consume=True)
    n_sites = site_event.size

    # Merge without the global (site, bit) lexsort: each part above emits
    # flips already ascending by (site, bit) — nonzero is row-major and
    # word/offset bases ascend — and the parts cover *disjoint* site sets
    # (sites are chunk-partitioned, and within a chunk a site is
    # single-bit xor pin xor aligned-plain xor non-aligned-plain).  A
    # counting scatter therefore reproduces the sorted layout.
    flip_offset = np.zeros(n_sites + 1, dtype=np.int64)
    np.cumsum(flips_per_site, dtype=np.int64, out=flip_offset[1:])
    flip_bit = np.empty(int(flip_offset[-1]) if n_sites else 0,
                        dtype=np.int16)
    for sites, bits in zip(flip_site_parts, flip_bit_parts):
        run_first = np.flatnonzero(np.r_[True, sites[1:] != sites[:-1]])
        within = np.arange(sites.size, dtype=np.int64) - np.repeat(
            run_first, np.diff(np.r_[run_first, sites.size])
        )
        flip_bit[flip_offset[sites] + within] = bits

    columns = {
        "write_cycle": job.start + site_event,
        "entry_index": site_entry,
        "flips_per_record": flips_per_site,
        "flip_bit": flip_bit,
    }
    if include_time:
        # the streaming fold derives events from write cycles and never
        # touches times — skipping the gather saves a sites-sized float64
        times = _event_times(job.start, job.size, parameters)
        columns["time_s"] = times[site_event]
    return columns


def _reference_chunk(
    geometry: HBM2Geometry,
    parameters: EventParameters,
    pattern: DataPattern,
    job: _ChunkJob,
    tracer: Tracer,
) -> list[MismatchRecord]:
    """Scalar oracle chunk: identical streams, per-entry device traffic."""
    synthesis = BatchEventSynthesis(
        geometry, parameters, seed=_fresh_seed(job.seed_seq)
    )
    with tracer.span("synthesize"):
        events = synthesis.events_at(
            _event_times(job.start, job.size, parameters)
        )
        tracer.count(events=job.size)

    with tracer.span("scan"):
        records = _scan_reference(geometry, pattern, job, events)
        tracer.count(records=len(records))
    return records


def _scan_reference(
    geometry: HBM2Geometry,
    pattern: DataPattern,
    job: _ChunkJob,
    events,
) -> list[MismatchRecord]:
    """Per-event scalar write/inject/scan for one chunk."""
    device = SimulatedHBM2(geometry)
    expected = pattern.entry_fn(False)
    records: list[MismatchRecord] = []
    for index, event in enumerate(events):
        device.write_all(expected)
        for entry, positions in event.flips.items():
            flips = np.zeros(geometry.entry_bits, dtype=np.uint8)
            flips[positions] = 1
            device.inject_upset(entry, flips)
        for mismatch in device.scan_mismatches(expected):
            data_positions = tuple(
                bit for bit in mismatch.bit_positions if bit < _DATA_BITS
            )
            if data_positions:
                records.append(MismatchRecord(
                    time_s=event.time_s,
                    run=0,
                    pattern=pattern.name,
                    write_cycle=job.start + index,
                    read_pass=0,
                    inverted=False,
                    entry_index=mismatch.entry_index,
                    bit_positions=data_positions,
                ))
    return records


def _evaluate_chunk(
    engine: str,
    geometry: HBM2Geometry,
    parameters: EventParameters,
    pattern_name: str,
    job: _ChunkJob,
):
    """Top-level (picklable) chunk evaluator for the worker pool.

    Returns ``(payload, span_records)``: the chunk's result columns (or
    scalar records) plus the finished worker-side trace, tagged with this
    process's pid so merged traces keep worker provenance.
    """
    faultpoint("pool.worker.crash", chunk=job.index)
    faultpoint("engine.chunk.hang", chunk=job.index)
    enable_heap_reuse()
    pattern = _pattern_by_name(pattern_name)
    runner = _columnar_chunk if engine == "columnar" else _reference_chunk
    tracer = Tracer()
    with tracer.span("chunk", index=job.index):
        payload = runner(geometry, parameters, pattern, job, tracer)
    tag = f"pid:{os.getpid()}"
    for record in tracer.records:
        record.worker = tag
    return payload, tracer.records


def _evaluate_range(
    geometry: HBM2Geometry,
    parameters: EventParameters,
    pattern_name: str,
    job: _RangeJob,
    segment: str | None = None,
    offset: int = 0,
    capacity: int = 0,
):
    """Top-level (picklable) fused-range evaluator for the worker pool.

    With ``segment`` set, the result columns go into the arena slice at
    ``(offset, capacity)`` and only the :class:`SliceDescriptor` rides the
    result channel; without one (serial path, or a slice the columns
    outgrew) the columns themselves are returned.  Span names match the
    per-chunk engines — ``chunk`` → ``synthesize``/``scan`` — so traces
    and per-stage throughput counters stay structurally comparable; the
    ``scan`` span here times the (identity) scan's resolution, i.e. the
    transport write.
    """
    faultpoint("pool.worker.crash", chunk=job.chunks[0].index)
    faultpoint("engine.chunk.hang", chunk=job.chunks[0].index)
    enable_heap_reuse()
    _pattern_by_name(pattern_name)  # campaign scans are pattern-invariant
    tracer = Tracer()
    with tracer.span("chunk", index=job.chunks[0].index,
                     chunks=len(job.chunks)):
        with tracer.span("synthesize"):
            columns = _fused_range_columns(geometry, parameters, job)
            tracer.count(events=job.size,
                         sites=int(columns["entry_index"].size))
        with tracer.span("scan"):
            payload = None
            if segment is not None:
                payload = write_columns(segment, offset, capacity, columns)
            tracer.count(records=int(columns["entry_index"].size))
    tag = f"pid:{os.getpid()}"
    for record in tracer.records:
        record.worker = tag
    return (payload if payload is not None else columns), tracer.records


def _member_chunks(job) -> tuple:
    """The chunk jobs a streaming job covers (a range's members, or the
    chunk itself on the per-chunk engines)."""
    return job.chunks if isinstance(job, _RangeJob) else (job,)


def _no_observed_stream():
    """:attr:`StatisticsResult.observed_events` factory for streaming
    results — the whole point is never materializing them."""
    raise RuntimeError(
        "streaming campaigns do not materialize observed events; "
        "rerun with stats='materialize' to recover them"
    )


def _scout_job(
    geometry: HBM2Geometry,
    parameters: EventParameters,
    job,
):
    """Top-level (picklable) scout-sweep worker.

    Replays only the sized entry-placement streams (no mode/severity
    draws, no flip materialization) and reports the slice's entry
    multiset as ``[unique_entries, entries_hit_twice_locally]`` — exactly
    what the host needs to fold into the global occupancy index.  The
    payload is a *list* on purpose: the host folds it and clears the
    slots, so the requeue bookkeeping retains O(1) shells rather than
    O(sites) arrays.
    """
    chunks = _member_chunks(job)
    faultpoint("pool.worker.crash", chunk=chunks[0].index)
    faultpoint("engine.chunk.hang", chunk=chunks[0].index)
    enable_heap_reuse()
    class_cdf = np.cumsum(np.asarray(
        parameters.class_probabilities, dtype=np.float64
    ))
    tracer = Tracer()
    with tracer.span("chunk", index=chunks[0].index, chunks=len(chunks)):
        with tracer.span("scout"):
            parts: list[np.ndarray] = []
            for chunk_job in chunks:
                rngs = BatchEventSynthesis(
                    geometry, parameters, seed=_fresh_seed(chunk_job.seed_seq)
                )._phase_rngs()
                _, _, site_entry = _chunk_site_layout(
                    geometry, parameters, class_cdf, rngs, chunk_job.size
                )
                parts.append(site_entry)
            entries = concat_or_empty(parts, np.int64, consume=True)
            unique, multiplicity = np.unique(entries, return_counts=True)
            tracer.count(events=job.size, sites=int(entries.size))
    tag = f"pid:{os.getpid()}"
    for record in tracer.records:
        record.worker = tag
    return [unique, unique[multiplicity > 1]], tracer.records


def _fold_streaming_columns(columns: dict, job, damaged: np.ndarray) -> dict:
    """Fold one slice's record columns into accumulator state.

    Mirrors :func:`_finalize_shm`'s grouping with the intermittent
    filter answered *globally*: ``damaged`` is the sorted array of
    entries hit by more than one event anywhere in the campaign (the
    scout sweep's verdict), so membership — not local multiplicity —
    decides softness.  Events never span jobs and surviving records stay
    in (cycle, site) order, so per-slice grouping is exact and the folded
    integer tallies partition the whole campaign's.
    """
    from repro.beam.fliptable import FlipTable
    from repro.stats import CampaignAccumulator

    accumulator = CampaignAccumulator()
    columns.pop("time_s", None)
    entry = columns.pop("entry_index")
    counts = columns.pop("flips_per_record")
    site_event = columns.pop("write_cycle") - job.start
    flip_bit = columns.pop("flip_bit")
    accumulator.add_raw(n_events=job.size, n_records=int(entry.size))
    if entry.size and damaged.size:
        probe = np.minimum(np.searchsorted(damaged, entry),
                           damaged.size - 1)
        soft = damaged[probe] != entry
        if not soft.all():
            flip_bit = flip_bit[np.repeat(soft, counts)]
            entry = entry[soft]
            counts = counts[soft]
            site_event = site_event[soft]
    if entry.size:
        new_event = np.r_[True, site_event[1:] != site_event[:-1]]
        event_id = np.cumsum(new_event) - 1
        accumulator.update_from_flip_table(FlipTable.from_flips(
            event_id, entry, counts, flip_bit,
            n_events=int(event_id[-1]) + 1,
        ))
    return accumulator.state()


def _evaluate_streaming(
    engine: str,
    geometry: HBM2Geometry,
    parameters: EventParameters,
    pattern_name: str,
    job,
    damaged: np.ndarray | None = None,
    descriptor: SliceDescriptor | None = None,
):
    """Top-level (picklable) evaluation-sweep worker for the pool.

    Synthesizes its slice (fused, for the shm engine; full device pass,
    for columnar), drops records on globally damaged entries, folds the
    survivors into a :class:`repro.stats.CampaignAccumulator` and returns
    the O(kilobytes) state — per-event columns never leave the worker.
    The damaged set arrives either inline (serial / small campaigns) or
    as an arena ``descriptor`` broadcast once by the host.
    """
    chunks = _member_chunks(job)
    faultpoint("pool.worker.crash", chunk=chunks[0].index)
    faultpoint("engine.chunk.hang", chunk=chunks[0].index)
    enable_heap_reuse()
    pattern = _pattern_by_name(pattern_name)
    if descriptor is not None:
        damaged = read_attached(descriptor)["damaged"]
    damaged = np.asarray(
        damaged if damaged is not None else (), dtype=np.int64
    )
    tracer = Tracer()
    with tracer.span("chunk", index=chunks[0].index, chunks=len(chunks)):
        if engine == "shm":
            with tracer.span("synthesize"):
                columns = _fused_range_columns(
                    geometry, parameters, job, include_time=False
                )
                tracer.count(events=job.size,
                             sites=int(columns["entry_index"].size))
        else:
            columns = _columnar_chunk(geometry, parameters, pattern, job,
                                      tracer)
        with tracer.span("fold"):
            state = _fold_streaming_columns(columns, job, damaged)
            tracer.count(observed=int(state["n_observed"]))
    tag = f"pid:{os.getpid()}"
    for record in tracer.records:
        record.worker = tag
    return state, tracer.records


def _run_chunks(
    engine: str,
    geometry: HBM2Geometry,
    parameters: EventParameters,
    pattern_name: str,
    jobs: list[_ChunkJob],
    workers: int | None,
    chunk_timeout: float | None = None,
    tracer: Tracer | None = None,
    heartbeat=None,
    retry: RetryPolicy | None = None,
    warm_pool=None,
) -> dict[int, tuple]:
    """Evaluate chunks, fanned out when asked, robust to worker failure.

    Delegates the requeue-once-then-serial robustness to
    :func:`repro.core.pool.run_with_requeue` (shared with the Monte Carlo
    harness); per-chunk seeding makes every path bit-identical.  Worker
    span records merge into ``tracer`` and ``heartbeat`` advances as each
    chunk completes, on whichever path completed it.
    """
    def _on_result(job: _ChunkJob, result) -> None:
        if tracer is not None:
            tracer.merge(result[1])
        if heartbeat is not None:
            heartbeat.update(advance=1, events=job.size)

    results, report = run_with_requeue(
        jobs,
        key=lambda job: job.index,
        describe=lambda job: f"chunk {job.index}",
        submit=lambda pool, job: pool.submit(
            _evaluate_chunk, engine, geometry, parameters, pattern_name, job,
        ),
        run_serial=lambda job: _evaluate_chunk(
            engine, geometry, parameters, pattern_name, job,
        ),
        workers=workers,
        timeout=chunk_timeout,
        executor_factory=(
            warm_pool.executor_factory if warm_pool is not None
            else (lambda: ProcessPoolExecutor(
                max_workers=workers, initializer=pool_worker_init))
        ),
        noun="chunks",
        logger=_LOGGER,
        on_result=_on_result,
        retry=retry,
    )
    if tracer is not None:
        tracer.count(**report.counters())
    return results, report


def _range_jobs(
    jobs: list[_ChunkJob],
    workers: int | None,
    range_chunks: int | None = None,
) -> list[_RangeJob]:
    """Partition chunk jobs into fused ranges.

    Defaults to ~4 ranges per worker (so the pool load-balances and a
    requeued range is cheap) capped at 64 chunks per range (bounding the
    fused pass's working set).
    """
    if not jobs:
        return []
    if range_chunks is None:
        per = 4 * max(1, workers or 1)
        range_chunks = max(1, min(64, -(-len(jobs) // per)))
    ranges = []
    for index, lo in enumerate(range(0, len(jobs), range_chunks)):
        block = tuple(jobs[lo:lo + range_chunks])
        ranges.append(_RangeJob(
            index=index,
            start=block[0].start,
            size=sum(job.size for job in block),
            chunks=block,
        ))
    return ranges


def _run_ranges(
    geometry: HBM2Geometry,
    parameters: EventParameters,
    pattern_name: str,
    jobs: list[_RangeJob],
    workers: int | None,
    chunk_timeout: float | None = None,
    tracer: Tracer | None = None,
    heartbeat=None,
    retry: RetryPolicy | None = None,
    warm_pool=None,
):
    """Evaluate fused ranges; returns ``(results, report, arena)``.

    When the pool will actually engage, a shared-memory arena is created
    and every range job gets a deterministic ``(offset, capacity)`` slice
    sized from its event count; workers return descriptors instead of
    pickled columns.  The caller must read the descriptors back (see
    :func:`_merge_range_payloads`) and close the arena — returning it
    instead of closing here keeps the zero-copy reads alive through the
    postprocess stage.  Arena creation failure (or an outgrown slice) is
    never fatal: both degrade to the inline pickled path.
    """
    def _on_result(job: _RangeJob, result) -> None:
        if tracer is not None:
            tracer.merge(result[1])
        if heartbeat is not None:
            heartbeat.update(advance=1, events=job.size)

    arena = None
    offsets: dict[int, tuple[int, int]] = {}
    pooled = (
        workers is not None and workers > 1 and len(jobs) > 1
    )
    if pooled:
        layout = []
        total = 0
        for job in jobs:
            cap = align(job.size * _SHM_BYTES_PER_EVENT + _SHM_JOB_HEADROOM)
            layout.append((total, cap))
            total += cap
        try:
            arena = ShmArena(total)
        except OSError as exc:
            _LOGGER.warning(
                "shared-memory arena unavailable (%s); "
                "falling back to pickled results", exc,
            )
        else:
            offsets = {job.index: slot for job, slot in zip(jobs, layout)}
            if tracer is not None and arena.reclaimed:
                tracer.count(shm_reclaimed=len(arena.reclaimed))

    def _submit(pool, job: _RangeJob):
        if arena is not None:
            off, cap = offsets[job.index]
            return pool.submit(
                _evaluate_range, geometry, parameters, pattern_name, job,
                arena.name, off, cap,
            )
        return pool.submit(
            _evaluate_range, geometry, parameters, pattern_name, job,
        )

    try:
        results, report = run_with_requeue(
            jobs,
            key=lambda job: job.index,
            describe=lambda job: f"chunk range {job.index}",
            submit=_submit,
            run_serial=lambda job: _evaluate_range(
                geometry, parameters, pattern_name, job,
            ),
            workers=workers,
            timeout=chunk_timeout,
            executor_factory=(
                warm_pool.executor_factory if warm_pool is not None
                else (lambda: ProcessPoolExecutor(
                max_workers=workers, initializer=pool_worker_init))
            ),
            noun="chunk ranges",
            logger=_LOGGER,
            on_result=_on_result,
            retry=retry,
        )
    except BaseException:
        if arena is not None:
            arena.close()
        raise
    if tracer is not None:
        tracer.count(**report.counters())
    return results, report, arena


def _run_scout(
    geometry: HBM2Geometry,
    parameters: EventParameters,
    jobs: list,
    workers: int | None,
    chunk_timeout: float | None = None,
    tracer: Tracer | None = None,
    heartbeat=None,
    retry: RetryPolicy | None = None,
    warm_pool=None,
):
    """Scout sweep: fold every job's entry multiset into one occupancy
    index as results land; returns ``(damaged_entries, report)``.

    The index is a sorted set for small campaigns (8 B per distinct
    entry, up to half the device bitmap) and one bit per entry past that
    (peaking under 1.5× the bitmap at the switch), and the payloads are
    cleared as they fold, so peak memory is bounded by the device
    whatever the campaign size.
    """
    from repro.stats import EntryOccupancy

    occupancy = EntryOccupancy(geometry.total_entries)

    def _on_result(job, result) -> None:
        payload = result[0]
        occupancy.fold(payload[0], payload[1])
        payload[0] = payload[1] = None  # results keep O(1) shells
        if tracer is not None:
            tracer.merge(result[1])
        if heartbeat is not None:
            heartbeat.update(advance=1, events=job.size)

    _, report = run_with_requeue(
        jobs,
        key=lambda job: job.index,
        describe=lambda job: f"scout range {job.index}",
        submit=lambda pool, job: pool.submit(
            _scout_job, geometry, parameters, job,
        ),
        run_serial=lambda job: _scout_job(geometry, parameters, job),
        workers=workers,
        timeout=chunk_timeout,
        executor_factory=(
            warm_pool.executor_factory if warm_pool is not None
            else (lambda: ProcessPoolExecutor(
                max_workers=workers, initializer=pool_worker_init))
        ),
        noun="scout ranges",
        logger=_LOGGER,
        on_result=_on_result,
        retry=retry,
    )
    if tracer is not None:
        tracer.count(**report.counters())
    return occupancy.damaged(), report


def _run_streaming(
    engine: str,
    geometry: HBM2Geometry,
    parameters: EventParameters,
    pattern_name: str,
    jobs: list,
    damaged: np.ndarray,
    workers: int | None,
    chunk_timeout: float | None = None,
    tracer: Tracer | None = None,
    heartbeat=None,
    retry: RetryPolicy | None = None,
    warm_pool=None,
):
    """Evaluation sweep: every job folds worker-side and ships back
    accumulator state; returns ``(results, report)``.

    With a pool engaged, the damaged-entry set is broadcast once through
    a small shared-memory arena (read-only to workers) instead of being
    pickled into every submit; arena failure degrades to inline args.
    The result channel needs no arena — states are kilobytes.
    """
    arena = None
    descriptor = None
    pooled = workers is not None and workers > 1 and len(jobs) > 1
    if pooled and damaged.size:
        try:
            arena = ShmArena(align(damaged.nbytes))
        except OSError as exc:
            _LOGGER.warning(
                "shared-memory arena unavailable (%s); "
                "broadcasting damaged entries inline", exc,
            )
        else:
            descriptor = write_columns(
                arena.name, 0, arena.nbytes, {"damaged": damaged}
            )
            if descriptor is None:  # pragma: no cover - capacity is exact
                arena.close()
                arena = None

    def _submit(pool, job):
        if descriptor is not None:
            return pool.submit(
                _evaluate_streaming, engine, geometry, parameters,
                pattern_name, job, None, descriptor,
            )
        return pool.submit(
            _evaluate_streaming, engine, geometry, parameters,
            pattern_name, job, damaged,
        )

    def _on_result(job, result) -> None:
        if tracer is not None:
            tracer.merge(result[1])
        if heartbeat is not None:
            heartbeat.update(advance=1, events=job.size)

    try:
        results, report = run_with_requeue(
            jobs,
            key=lambda job: job.index,
            describe=lambda job: f"streaming range {job.index}",
            submit=_submit,
            run_serial=lambda job: _evaluate_streaming(
                engine, geometry, parameters, pattern_name, job, damaged,
            ),
            workers=workers,
            timeout=chunk_timeout,
            executor_factory=(
                warm_pool.executor_factory if warm_pool is not None
                else (lambda: ProcessPoolExecutor(
                    max_workers=workers, initializer=pool_worker_init))
            ),
            noun="streaming ranges",
            logger=_LOGGER,
            on_result=_on_result,
            retry=retry,
        )
    finally:
        if arena is not None:
            arena.close()
    if tracer is not None:
        tracer.count(**report.counters())
    return results, report


def _merge_streaming_states(results: dict):
    """Merge worker accumulator states in job order (any order would do —
    merge is commutative — but determinism keeps traces comparable)."""
    from repro.stats import CampaignAccumulator

    accumulator = CampaignAccumulator.empty()
    for index in sorted(results):
        accumulator = accumulator.merge(
            CampaignAccumulator.from_state(results[index][0])
        )
    return accumulator


def _merge_range_payloads(results: dict, arena) -> dict:
    """Concatenate range payloads (descriptors or inline columns) in
    range order into one column set; copies out of the arena."""
    parts: dict[str, list[np.ndarray]] = {key: [] for key in _COLUMN_KEYS}
    for index in sorted(results):
        payload = results[index][0]
        if isinstance(payload, SliceDescriptor):
            columns = read_columns(arena.buf, payload)
        else:
            columns = payload
        for key in _COLUMN_KEYS:
            parts[key].append(columns[key])
    return {
        key: (np.concatenate(blocks) if blocks
              else np.empty(0, dtype=_COLUMN_DTYPES[key]))
        for key, blocks in parts.items()
    }


def _finalize_columnar(columns: dict, pattern_name: str) -> tuple:
    from repro.beam.postprocess import (
        derive_table1_table,
        filter_intermittent_table,
        group_events_table,
        breadth_class_fractions_table,
        bits_per_word_histogram_table,
        byte_alignment_stats_table,
        mbme_breadth_histogram_table,
    )

    n_records = int(columns["entry_index"].size)
    table = RecordTable.from_columns(
        time_s=columns["time_s"],
        run=np.zeros(n_records, dtype=np.int64),
        pattern_code=np.zeros(n_records, dtype=np.int64),
        write_cycle=columns["write_cycle"],
        read_pass=np.zeros(n_records, dtype=np.int64),
        inverted=np.zeros(n_records, dtype=bool),
        entry_index=columns["entry_index"],
        flips_per_record=columns["flips_per_record"],
        flip_bit=columns["flip_bit"],
        patterns=(pattern_name,),
    )
    grouped = group_events_table(filter_intermittent_table(table).soft)
    if not grouped.n_events:
        return n_records, 0, _EMPTY_STATS, list
    stats = (
        breadth_class_fractions_table(grouped),
        mbme_breadth_histogram_table(grouped),
        byte_alignment_stats_table(grouped),
        bits_per_word_histogram_table(grouped, byte_aligned=True),
        bits_per_word_histogram_table(grouped, byte_aligned=False),
        derive_table1_table(grouped),
    )
    return n_records, grouped.n_events, stats, grouped.to_observed_events


def _finalize_shm(columns: dict, pattern_name: str) -> tuple:
    """Direct soft-error grouping on the merged record columns.

    Exploits what holds for every campaign record set (and is pinned
    byte-for-byte against :func:`_finalize_columnar` by the equivalence
    suite): entries are unique *within* an event, so an entry recorded
    twice was necessarily hit in two distinct write cycles — the
    intermittent filter reduces to "keep entries with exactly one
    record".  Surviving records are already in (cycle, site) order, so
    grouping is a run-length pass, skipping the
    :class:`~repro.beam.fliptable.RecordTable` materialization and the
    full-table lexsorts of the columnar finalizer.
    """
    from repro.beam.fliptable import FlipTable
    from repro.beam.postprocess import (
        derive_table1_table,
        breadth_class_fractions_table,
        bits_per_word_histogram_table,
        byte_alignment_stats_table,
        mbme_breadth_histogram_table,
    )

    # ``pop`` releases each transport column at last use — the caller
    # discards the dict, and the freed blocks keep the resident set (and
    # with it the page-fault bill) flat through the grouping passes.
    columns.pop("time_s", None)  # derivable; unused by the fused grouping
    entry = columns.pop("entry_index")
    n_records = int(entry.size)
    if not n_records:
        return 0, 0, _EMPTY_STATS, list
    counts = columns.pop("flips_per_record")
    unique_entries, per_entry = np.unique(entry, return_counts=True)
    soft = per_entry[np.searchsorted(unique_entries, entry)] == 1
    del unique_entries, per_entry
    cycles = columns.pop("write_cycle")[soft]
    if not cycles.size:
        return n_records, 0, _EMPTY_STATS, list
    new_event = np.r_[True, cycles[1:] != cycles[:-1]]
    site_event = np.cumsum(new_event) - 1
    n_events = int(site_event[-1]) + 1
    flip_bit = columns.pop("flip_bit")[np.repeat(soft, counts)]
    grouped = FlipTable.from_flips(
        site_event, entry[soft], counts[soft],
        flip_bit,
        n_events=n_events,
        event_columns={
            "run": np.zeros(n_events, dtype=np.int64),
            "write_cycle": cycles[new_event],
            "read_pass": np.zeros(n_events, dtype=np.int64),
        },
    )
    del entry, counts, soft, cycles, new_event, site_event, flip_bit
    stats = (
        breadth_class_fractions_table(grouped),
        mbme_breadth_histogram_table(grouped),
        byte_alignment_stats_table(grouped),
        bits_per_word_histogram_table(grouped, byte_aligned=True),
        bits_per_word_histogram_table(grouped, byte_aligned=False),
        derive_table1_table(grouped),
    )
    return n_records, n_events, stats, grouped.to_observed_events


def _finalize_reference(records: list[MismatchRecord]) -> tuple:
    from repro.beam.postprocess import (
        derive_table1,
        filter_intermittent,
        group_events,
        breadth_class_fractions,
        bits_per_word_histogram,
        byte_alignment_stats,
        mbme_breadth_histogram,
    )

    events = group_events(filter_intermittent(records).soft_records)
    if not events:
        return len(records), 0, _EMPTY_STATS, list
    stats = (
        breadth_class_fractions(events),
        mbme_breadth_histogram(events),
        byte_alignment_stats(events),
        bits_per_word_histogram(events, byte_aligned=True),
        bits_per_word_histogram(events, byte_aligned=False),
        derive_table1(events),
    )
    return len(records), len(events), stats, lambda: events


def run_statistics_campaign(
    n_events: int,
    *,
    seed: int = 2021,
    geometry: HBM2Geometry | None = None,
    parameters: EventParameters | None = None,
    pattern: str | DataPattern = "an-encoded",
    engine: str = "columnar",
    stats: str = "materialize",
    workers: int | None = None,
    chunk: int = 512,
    chunk_timeout: float | None = None,
    tracer: Tracer | None = None,
    heartbeat=None,
    retry: RetryPolicy | None = None,
    warm_pool=None,
    range_chunks: int | None = None,
) -> StatisticsResult:
    """Generate, scan and post-process ``n_events`` ground-truth SEUs.

    Event ``i`` arrives at ``i × mean_time_to_event_s`` and owns write
    cycle ``i`` of run 0; chunk ``c`` of ``chunk`` events is seeded by
    ``SeedSequence(seed).spawn(n_chunks)[c]``, so the result is a pure
    function of ``(n_events, seed, chunk)`` — identical across engines
    and across any ``workers`` setting.

    The run reports through ``tracer`` (a fresh one when omitted): a
    ``campaign`` span wrapping per-chunk worker spans and a
    ``postprocess`` span; the finished records land in
    :attr:`StatisticsResult.trace`.  ``heartbeat``, when given, advances
    once per completed job (chunk, or fused chunk range for
    ``engine="shm"``).

    ``engine="shm"`` evaluates chunks in fused ranges (``range_chunks``
    per job, auto-sized by default), ships pooled results through a
    shared-memory arena, and — with ``warm_pool`` set to a
    :class:`repro.core.pool.WarmPool` — reuses worker processes across
    campaigns in the same invocation.  ``warm_pool`` applies to the
    per-chunk engines too.

    ``stats="streaming"`` replaces the materialize-then-postprocess tail
    with two sweeps: a *scout* pass replays only the entry-placement
    streams and answers the global intermittent filter with an
    occupancy index bounded by the device, then the evaluation sweep
    folds each job's records into a fixed-size :class:`repro.stats
    .CampaignAccumulator` worker-side.  Host memory stays flat in the
    event count, and every statistic is float-identical to
    ``stats="materialize"`` (the tallies are integers; the floats are
    computed once, canonically).  The reference engine keeps only the
    materialized path, and a streaming result never materializes
    :attr:`StatisticsResult.observed_events`.
    """
    if n_events < 0:
        raise ValueError("n_events must be non-negative")
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}")
    if stats not in STATS_MODES:
        raise ValueError(f"stats must be one of {STATS_MODES}")
    resolve_stats_mode(engine, stats)  # rejects reference + streaming
    geometry = geometry or HBM2Geometry.for_gpu(32)
    parameters = parameters or EventParameters()
    pattern_name = pattern if isinstance(pattern, str) else pattern.name
    _pattern_by_name(pattern_name)  # validate before spawning workers
    enable_heap_reuse()

    tracer = tracer if tracer is not None else Tracer()
    trace_base = len(tracer.records)

    n_chunks = (n_events + chunk - 1) // chunk if n_events else 0
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    jobs = [
        _ChunkJob(
            index=index,
            start=index * chunk,
            size=min(chunk, n_events - index * chunk),
            seed_seq=children[index],
        )
        for index in range(n_chunks)
    ]
    ranges = _range_jobs(jobs, workers, range_chunks) \
        if engine == "shm" else None
    sweeps = 2 if stats == "streaming" else 1
    if heartbeat is not None and heartbeat.total is None:
        heartbeat.total = sweeps * (
            len(ranges) if ranges is not None else n_chunks
        )
        if getattr(heartbeat, "total_events", None) is None:
            heartbeat.total_events = sweeps * n_events

    accumulator = None
    with tracer.span("campaign", engine=engine, stats=stats):
        tracer.count(events=n_events, chunks=n_chunks)
        if stats == "streaming":
            from repro.stats import STATS_KEYS

            stream_jobs = ranges if ranges is not None else jobs
            damaged, scout_report = _run_scout(
                geometry, parameters, stream_jobs, workers, chunk_timeout,
                tracer, heartbeat, retry, warm_pool,
            )
            results, report = _run_streaming(
                engine, geometry, parameters, pattern_name, stream_jobs,
                damaged, workers, chunk_timeout, tracer, heartbeat, retry,
                warm_pool,
            )
            accumulator = _merge_streaming_states(results)
            n_records = accumulator.n_records
            n_observed = accumulator.n_observed
            stats_tuple = (
                tuple(accumulator.finalize()[key] for key in STATS_KEYS)
                if n_observed else _EMPTY_STATS
            )
            observed = _no_observed_stream
            tracer.count(records=n_records, observed=n_observed,
                         damaged_entries=int(damaged.size))
            pool_counters = scout_report.counters()
            for key, value in report.counters().items():
                pool_counters[key] = pool_counters.get(key, 0) + value
        elif engine == "shm":
            results, report, arena = _run_ranges(
                geometry, parameters, pattern_name, ranges, workers,
                chunk_timeout, tracer, heartbeat, retry, warm_pool,
            )
            try:
                with tracer.span("postprocess"):
                    columns = _merge_range_payloads(results, arena)
                    n_records, n_observed, stats_tuple, observed = \
                        _finalize_shm(columns, pattern_name)
                    tracer.count(records=n_records, observed=n_observed)
            finally:
                if arena is not None:
                    arena.close()
            pool_counters = report.counters()
        else:
            results, report = _run_chunks(
                engine, geometry, parameters, pattern_name, jobs, workers,
                chunk_timeout, tracer, heartbeat, retry, warm_pool,
            )

            with tracer.span("postprocess"):
                if engine == "columnar":
                    columns = {
                        key: concat_or_empty(
                            [results[i][0][key] for i in sorted(results)],
                            _COLUMN_DTYPES[key],
                        )
                        for key in _COLUMN_KEYS
                    }
                    n_records, n_observed, stats_tuple, observed = \
                        _finalize_columnar(columns, pattern_name)
                else:
                    records = [
                        record for index in sorted(results)
                        for record in results[index][0]
                    ]
                    n_records, n_observed, stats_tuple, observed = \
                        _finalize_reference(records)
                tracer.count(records=n_records, observed=n_observed)
            pool_counters = report.counters()
    if heartbeat is not None:
        heartbeat.close()

    trace = tracer.records[trace_base:]
    (class_fractions, mbme_histogram, byte_alignment, bits_aligned,
     bits_non_aligned, table1) = stats_tuple
    return StatisticsResult(
        engine=engine,
        n_events=n_events,
        n_records=n_records,
        n_observed=n_observed,
        class_fractions=class_fractions,
        mbme_histogram=mbme_histogram,
        byte_alignment=byte_alignment,
        bits_per_word_aligned=bits_aligned,
        bits_per_word_non_aligned=bits_non_aligned,
        table1=table1,
        stage_seconds=stage_totals(
            trace, _STREAM_STAGES if stats == "streaming" else _STAGES
        ),
        trace=trace,
        pool_counters=pool_counters,
        stats_mode=stats,
        accumulator=accumulator,
        _observed_factory=observed,
    )
