"""Statistics-campaign engine (generate → scan → post-process).

The Figure 4/5 and Table 1 statistics need thousands of ground-truth SEU
events pushed through the whole observation pipeline: synthesize the
event, corrupt the simulated device, scan it back and classify what the
scan recovered.  This module packages that loop as one engine with two
implementations:

* ``engine="shm"`` — the production path.  Chunks are evaluated in fused
  ranges: :class:`~repro.beam.events.BatchEventSynthesis`' phase streams
  are replayed vectorized and the (identity) inject/scan stage is
  skipped.  A scout sweep answers the global intermittent filter, then
  every range's records are grouped into observed events and folded
  worker-side into a :class:`repro.stats.CampaignAccumulator` — the one
  vectorized definition of every statistic.  Only accumulator states
  travel back, so host memory stays flat in the event count.
* ``engine="reference"`` — the retained scalar oracle: per-event draws,
  per-entry injection, the per-entry scalar scan and the record-list
  post-processing helpers of :mod:`repro.beam.postprocess`.  It keeps
  the scalar events as :attr:`StatisticsResult.observed_events`.

Both engines consume identical random streams (chunk ``c`` is seeded by
``SeedSequence(seed).spawn(n_chunks)[c]``) and therefore derive
bit-identical statistics; the equivalence suite asserts it and the
throughput benchmark measures the gap.

Chunks are independent, so ``workers=N`` fans them out over a process
pool with the shared requeue-once-then-serial robustness of
:func:`repro.core.pool.run_with_requeue` — and, thanks to per-chunk
seeding, the same results on every path.

Observability: every job runs under its own worker-side
:class:`repro.obs.Tracer` (``chunk`` → ``synthesize``/``scan`` on
``reference``, ``scout``/``synthesize``/``fold`` on ``shm``, spans with
event/record counters, tagged with the worker pid); the parent merges
the records as jobs complete, wraps the whole run in a ``campaign``
span, and derives :attr:`StatisticsResult.stage_seconds` from the trace.
Pass ``tracer=`` to graft the campaign into a larger trace (the CLI
passes its run session's tracer) and ``heartbeat=`` for periodic
progress lines while jobs complete.
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
    BatchEventSynthesis,
    EventParameters,
    _flip_parts,
    _merge_flips,
    _site_layout,
)
from repro.beam.fliptable import FlipTable
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
    write_columns
from repro.dram.device import SimulatedHBM2
from repro.dram.geometry import HBM2Geometry
from repro.faults import faultpoint
from repro.obs import Tracer, stage_totals

__all__ = ["StatisticsResult", "run_statistics_campaign", "ENGINES"]

_LOGGER = logging.getLogger(__name__)

_DATA_BITS = 256

#: The engine implementations: ``shm`` is the fused zero-copy fast
#: path, ``reference`` its scalar oracle.
ENGINES = ("shm", "reference")

#: each engine's pipeline stages: the shm scout sweep (entry placement
#: replay → occupancy index), its evaluation sweep's synthesis and the
#: worker-side folds; the reference engine's synthesis, scalar scan and
#: host-side postprocess
_STAGES = {"shm": ("scout", "synthesize", "fold"),
           "reference": ("synthesize", "scan", "postprocess")}


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
    #: the campaign's merged :class:`repro.stats.CampaignAccumulator` —
    #: on ``shm`` the source of every statistic above, on ``reference``
    #: folded from its scalar-derived events; carries the raw tallies for
    #: downstream merges (the CLI report, the fleet FIT composition)
    accumulator: object = field(default=None, repr=False, compare=False)
    #: the reference engine's scalar events; ``None`` on ``shm``
    _observed: list | None = field(default=None, repr=False, compare=False)

    @property
    def observed_events(self) -> list:
        """The recovered events, for merging with campaign observations.

        Only the scalar ``reference`` engine keeps them: ``shm`` folds
        its events worker-side and never materializes them.
        """
        if self._observed is None:
            raise RuntimeError(
                "the shm engine folds its events into accumulators and "
                "keeps none; rerun with engine='reference' to recover them"
            )
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
        for stage, seconds in self.stage_seconds.items():
            flat[f"{stage}_s"] = round(seconds, 6)
        for stage, rate in self.events_per_second.items():
            flat[f"{stage}_events_per_s"] = round(rate, 3)
        flat.update(self.pool_counters)
        return flat


#: the statistics of a campaign that observed no event
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
    replaying a chunk in the same process — the shm engine's scout
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


def _fused_range_columns(
    geometry: HBM2Geometry,
    parameters: EventParameters,
    job: _RangeJob,
) -> dict:
    """Whole-range fused synthesis: record columns without a device pass.

    Two observations collapse the per-chunk pipeline:

    * The campaign's inject/scan stage is an *identity* on the synthesized
      flips — every event owns its own write cycle, the device is reset
      before each one, and ECC bits are masked — so the record columns are
      the synthesis columns relabeled (``write_cycle`` gathered per
      site).  No :class:`~repro.dram.device.SimulatedHBM2` needed.
    * Each chunk replays its own phase streams through the synthesis
      kernel that :meth:`BatchEventSynthesis.table_at` runs
      (:func:`~repro.beam.events._site_layout` then
      :func:`~repro.beam.events._flip_parts`), whose transforms are
      row-local — rows never mix between chunks and ``(site, bit)``
      pairs are unique.  The kernel therefore streams per chunk and only
      the slim output columns accumulate; the same counting scatter
      (:func:`~repro.beam.events._merge_flips`) merges the whole range
      at the end.  Keeping the resident set near the output size (rather
      than stacking every intermediate) is what holds million-event
      ranges inside the allocator's reused-page regime — see
      ``repro.core.mem``.

    Bit-for-bit equality of the derived statistics with the reference
    engine's device pass is pinned by the equivalence suite.
    """
    class_cdf = np.cumsum(np.asarray(
        parameters.class_probabilities, dtype=np.float64
    ))

    # Per-chunk accumulators; event/site indices are rebased to the range.
    # Flip parts keep (global site run, int16 bits) pairs for the final
    # counting scatter; everything else dies with its chunk iteration.
    site_event_p: list[np.ndarray] = []
    site_entry_p: list[np.ndarray] = []
    counts_p: list[np.ndarray] = []
    flip_parts: list[tuple[np.ndarray, np.ndarray]] = []
    event_off = 0
    site_off = 0

    for chunk in job.chunks:
        rngs = BatchEventSynthesis(
            geometry, parameters, seed=_fresh_seed(chunk.seed_seq)
        )._phase_rngs()
        codes, site_event, site_entry = _site_layout(
            geometry, parameters, class_cdf, rngs, chunk.size
        )
        parts, counts = _flip_parts(parameters, rngs, codes, site_event)
        counts_p.append(counts.astype(np.int16))
        flip_parts.extend((sites + site_off, bits.astype(np.int16))
                          for sites, bits in parts if sites.size)

        site_event_p.append(site_event + event_off)
        site_entry_p.append(site_entry)
        event_off += chunk.size
        site_off += site_event.size

    # consume=True releases the per-chunk blocks as we go
    site_event = concat_or_empty(site_event_p, np.int64, consume=True)
    site_entry = concat_or_empty(site_entry_p, np.int64, consume=True)
    flips_per_site = concat_or_empty(counts_p, np.int16, consume=True)
    # Sites are chunk-partitioned, so the range's parts stay disjoint and
    # one counting scatter merges them without a global sort.
    flip_bit = _merge_flips(flip_parts, flips_per_site, np.int16)

    return {
        "write_cycle": job.start + site_event,
        "entry_index": site_entry,
        "flips_per_record": flips_per_site,
        "flip_bit": flip_bit,
    }


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


def _worker_records(tracer: Tracer) -> list:
    """A job's finished spans, tagged with this process's pid so merged
    traces keep worker provenance."""
    tag = f"pid:{os.getpid()}"
    for record in tracer.records:
        record.worker = tag
    return tracer.records


def _evaluate_chunk(
    geometry: HBM2Geometry,
    parameters: EventParameters,
    pattern_name: str,
    job: _ChunkJob,
):
    """Top-level (picklable) reference-chunk evaluator for the worker pool.

    Returns ``(records, span_records)``: the chunk's scalar mismatch
    records plus the finished worker-side trace.
    """
    faultpoint("pool.worker.crash", chunk=job.index)
    faultpoint("engine.chunk.hang", chunk=job.index)
    enable_heap_reuse()
    pattern = _pattern_by_name(pattern_name)
    tracer = Tracer()
    with tracer.span("chunk", index=job.index):
        records = _reference_chunk(geometry, parameters, pattern, job, tracer)
    return records, _worker_records(tracer)


def _scout_job(
    geometry: HBM2Geometry,
    parameters: EventParameters,
    job: _RangeJob,
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
    chunks = job.chunks
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
                _, _, site_entry = _site_layout(
                    geometry, parameters, class_cdf, rngs, chunk_job.size
                )
                parts.append(site_entry)
            entries = concat_or_empty(parts, np.int64, consume=True)
            unique, multiplicity = np.unique(entries, return_counts=True)
            tracer.count(events=job.size, sites=int(entries.size))
    return [unique, unique[multiplicity > 1]], _worker_records(tracer)


def _group_records(columns: dict, damaged: np.ndarray) -> FlipTable:
    """Group one partition's record columns into observed events.

    ``damaged`` is the sorted array of entries the intermittent filter
    rejects: entries hit by more than one event anywhere in the campaign
    (the scout sweep's verdict).  Entries are unique *within* an event,
    so membership — not local multiplicity — decides softness.  Events
    never span partitions and surviving records stay in (cycle, site)
    order, so grouping is a run-length pass.  ``pop`` releases each
    record column at last use, and every temporary dies on return,
    which keeps the resident set flat through the fold that follows.
    """
    entry = columns.pop("entry_index")
    counts = columns.pop("flips_per_record")
    cycles = columns.pop("write_cycle")
    flip_bit = columns.pop("flip_bit")
    if entry.size and damaged.size:
        soft = damaged[np.minimum(np.searchsorted(damaged, entry),
                                  damaged.size - 1)] != entry
        if not soft.all():
            flip_bit = flip_bit[np.repeat(soft, counts)]
            entry, counts, cycles = entry[soft], counts[soft], cycles[soft]
    new_event = np.empty(cycles.size, dtype=bool)
    new_event[:1] = True
    np.not_equal(cycles[1:], cycles[:-1], out=new_event[1:])
    return FlipTable.from_flips(
        np.cumsum(new_event) - 1, entry, counts, flip_bit,
        n_events=int(new_event.sum()),
    )


def _fold_records(columns: dict, damaged: np.ndarray, n_events: int):
    """Fold one partition of ``n_events`` events into a
    :class:`repro.stats.CampaignAccumulator`, grouped by
    :func:`_group_records`; its integer tallies partition the whole
    campaign's."""
    from repro.stats import CampaignAccumulator

    accumulator = CampaignAccumulator()
    accumulator.add_raw(n_events=n_events,
                        n_records=int(columns["entry_index"].size))
    accumulator.update_from_flip_table(_group_records(columns, damaged))
    return accumulator


def _evaluate_streaming(
    geometry: HBM2Geometry,
    parameters: EventParameters,
    job: _RangeJob,
    damaged: np.ndarray | None = None,
    descriptor: SliceDescriptor | None = None,
):
    """Top-level (picklable) evaluation-sweep worker for the pool.

    Synthesizes its range (fused), drops records on globally damaged
    entries, folds the survivors into a :class:`repro.stats
    .CampaignAccumulator` and returns the O(kilobytes) state — per-event
    columns never leave the worker.  The damaged set arrives either
    inline (serial / small campaigns) or as an arena ``descriptor``
    broadcast once by the host.
    """
    faultpoint("pool.worker.crash", chunk=job.chunks[0].index)
    faultpoint("engine.chunk.hang", chunk=job.chunks[0].index)
    enable_heap_reuse()
    if descriptor is not None:
        damaged = read_attached(descriptor)["damaged"]
    damaged = np.asarray(
        damaged if damaged is not None else (), dtype=np.int64
    )
    tracer = Tracer()
    with tracer.span("chunk", index=job.chunks[0].index,
                     chunks=len(job.chunks)):
        with tracer.span("synthesize"):
            columns = _fused_range_columns(geometry, parameters, job)
            tracer.count(events=job.size,
                         sites=int(columns["entry_index"].size))
        with tracer.span("fold"):
            accumulator = _fold_records(columns, damaged, job.size)
            tracer.count(observed=accumulator.n_observed)
    return accumulator.state(), _worker_records(tracer)


def _run_jobs(
    jobs: list,
    noun: str,
    task,
    *,
    serial_task=None,
    fold=None,
    workers: int | None,
    timeout: float | None,
    tracer: Tracer,
    heartbeat,
    retry: RetryPolicy | None,
    warm_pool,
):
    """Evaluate jobs, fanned out when asked, robust to worker failure.

    Delegates the requeue-once-then-serial robustness to
    :func:`repro.core.pool.run_with_requeue` (shared with the Monte Carlo
    harness); per-chunk seeding makes every path bit-identical.
    ``task(job)`` is the ``(function, *args)`` call a pool worker runs
    and ``serial_task(job)`` (default: the same) the in-process one.  As
    each job completes, on whichever path completed it, ``fold`` (when
    given) consumes its payload, its worker spans merge into ``tracer``
    and ``heartbeat`` advances.
    """
    serial_task = serial_task or task

    def _on_result(job, result) -> None:
        if fold is not None:
            fold(result[0])
        tracer.merge(result[1])
        if heartbeat is not None:
            heartbeat.update(advance=1, events=job.size)

    def _run_serial(job):
        function, *args = serial_task(job)
        return function(*args)

    results, report = run_with_requeue(
        jobs,
        key=lambda job: job.index,
        describe=lambda job: f"{noun[:-1]} {job.index}",
        submit=lambda pool, job: pool.submit(*task(job)),
        run_serial=_run_serial,
        workers=workers,
        timeout=timeout,
        executor_factory=(
            warm_pool.executor_factory if warm_pool is not None
            else (lambda: ProcessPoolExecutor(
                max_workers=workers, initializer=pool_worker_init))
        ),
        noun=noun,
        logger=_LOGGER,
        on_result=_on_result,
        retry=retry,
    )
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


def _run_scout(
    geometry: HBM2Geometry,
    parameters: EventParameters,
    jobs: list[_RangeJob],
    pool: dict,
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

    def _fold(payload) -> None:
        occupancy.fold(payload[0], payload[1])
        payload[0] = payload[1] = None  # results keep O(1) shells

    _, report = _run_jobs(
        jobs, "scout ranges",
        lambda job: (_scout_job, geometry, parameters, job),
        fold=_fold, **pool,
    )
    return occupancy.damaged(), report


def _run_streaming(
    geometry: HBM2Geometry,
    parameters: EventParameters,
    jobs: list[_RangeJob],
    damaged: np.ndarray,
    pool: dict,
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
    workers = pool["workers"]

    def _task(job: _RangeJob):
        if descriptor is not None:
            return (_evaluate_streaming, geometry, parameters, job, None,
                    descriptor)
        return _evaluate_streaming, geometry, parameters, job, damaged

    try:
        # only when _run_jobs will engage a pool
        if workers is not None and workers > 1 and len(jobs) > 1 \
                and damaged.size:
            try:
                arena = ShmArena(align(damaged.nbytes))
            except OSError as exc:
                _LOGGER.warning(
                    "shared-memory arena unavailable (%s); "
                    "broadcasting damaged entries inline", exc,
                )
            else:
                if arena.reclaimed:
                    pool["tracer"].count(
                        shm_reclaimed=len(arena.reclaimed))
                # capacity is exact, so this never falls back to inline
                descriptor = write_columns(
                    arena.name, 0, arena.nbytes, {"damaged": damaged})
        return _run_jobs(
            jobs, "streaming ranges", _task,
            serial_task=lambda job: (_evaluate_streaming, geometry,
                                     parameters, job, damaged),
            **pool,
        )
    finally:
        if arena is not None:
            arena.close()


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


def _finalize_reference(records: list[MismatchRecord], n_events: int):
    """The scalar oracle's statistics over the reference engine's records.

    Returns ``(accumulator, events, stats)``; the accumulator is folded
    from the same scalar-derived events, so reference results carry one
    like every other result.
    """
    from repro.beam.postprocess import (
        derive_table1,
        filter_intermittent,
        group_events,
        breadth_class_fractions,
        bits_per_word_histogram,
        byte_alignment_stats,
        mbme_breadth_histogram,
    )
    from repro.stats import CampaignAccumulator

    events = group_events(filter_intermittent(records).soft_records)
    accumulator = CampaignAccumulator()
    accumulator.add_raw(n_events=n_events, n_records=len(records))
    accumulator.update_from_events(events)
    if not events:
        return accumulator, events, _EMPTY_STATS
    stats = (
        breadth_class_fractions(events),
        mbme_breadth_histogram(events),
        byte_alignment_stats(events),
        bits_per_word_histogram(events, byte_aligned=True),
        bits_per_word_histogram(events, byte_aligned=False),
        derive_table1(events),
    )
    return accumulator, events, stats


def run_statistics_campaign(
    n_events: int,
    *,
    seed: int = 2021,
    geometry: HBM2Geometry | None = None,
    parameters: EventParameters | None = None,
    pattern: str | DataPattern = "an-encoded",
    engine: str = "shm",
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
    and any ``workers`` setting.

    The run reports through ``tracer`` (a fresh one when omitted): a
    ``campaign`` span wrapping per-job worker spans (and a
    ``postprocess`` span on ``reference``); the finished records land
    in :attr:`StatisticsResult.trace`.  ``heartbeat``, when given,
    advances once per completed job (a fused chunk range on ``shm``, a
    chunk on ``reference``) in each sweep.

    ``engine="shm"`` evaluates chunks in fused ranges (``range_chunks``
    per job, auto-sized by default) and — with ``warm_pool`` set to a
    :class:`repro.core.pool.WarmPool` — reuses worker processes across
    campaigns in the same invocation (on ``reference`` too).  It runs
    two sweeps: a *scout* pass replays only the entry-placement streams
    and answers the global intermittent filter with an occupancy index
    bounded by the device, then the evaluation sweep folds each job's
    records worker-side into a :class:`repro.stats.CampaignAccumulator`,
    the source of every statistic.  Host memory stays flat in the event
    count, and the result keeps no
    :attr:`StatisticsResult.observed_events`.

    ``engine="reference"`` materializes every scalar event and derives
    the statistics with the scalar helpers; its accumulator is folded
    from the same events.  The accumulator's tallies are integers and
    its floats are computed once, canonically, so both engines are
    float-identical.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"engine must be one of {', '.join(ENGINES)} (got {engine!r})")
    if n_events < 0:
        raise ValueError("n_events must be non-negative")
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
    if engine == "shm":
        jobs = _range_jobs(jobs, workers, range_chunks)
    sweeps = 2 if engine == "shm" else 1
    if heartbeat is not None and heartbeat.total is None:
        heartbeat.total = sweeps * len(jobs)
        if getattr(heartbeat, "total_events", None) is None:
            heartbeat.total_events = sweeps * n_events

    pool = dict(workers=workers, timeout=chunk_timeout, tracer=tracer,
                heartbeat=heartbeat, retry=retry, warm_pool=warm_pool)
    observed = None
    with tracer.span("campaign", engine=engine):
        tracer.count(events=n_events, chunks=n_chunks)
        if engine == "reference":
            results, report = _run_jobs(
                jobs, "chunks",
                lambda job: (_evaluate_chunk, geometry, parameters,
                             pattern_name, job),
                **pool,
            )
            with tracer.span("postprocess"):
                records = [
                    record for index in sorted(results)
                    for record in results[index][0]
                ]
                accumulator, observed, stats_tuple = _finalize_reference(
                    records, n_events)
                tracer.count(records=accumulator.n_records,
                             observed=accumulator.n_observed)
            pool_counters = report.counters()
        else:
            from repro.stats import STATS_KEYS

            damaged, scout_report = _run_scout(
                geometry, parameters, jobs, pool)
            results, report = _run_streaming(
                geometry, parameters, jobs, damaged, pool)
            accumulator = _merge_streaming_states(results)
            tracer.count(records=accumulator.n_records,
                         observed=accumulator.n_observed,
                         damaged_entries=int(damaged.size))
            pool_counters = scout_report.counters()
            for key, value in report.counters().items():
                pool_counters[key] = pool_counters.get(key, 0) + value
            stats_tuple = (
                tuple(accumulator.finalize()[key] for key in STATS_KEYS)
                if accumulator.n_observed else _EMPTY_STATS
            )
    if heartbeat is not None:
        heartbeat.close()

    trace = tracer.records[trace_base:]
    (class_fractions, mbme_histogram, byte_alignment, bits_aligned,
     bits_non_aligned, table1) = stats_tuple
    return StatisticsResult(
        engine=engine,
        n_events=n_events,
        n_records=accumulator.n_records,
        n_observed=accumulator.n_observed,
        class_fractions=class_fractions,
        mbme_histogram=mbme_histogram,
        byte_alignment=byte_alignment,
        bits_per_word_aligned=bits_aligned,
        bits_per_word_non_aligned=bits_non_aligned,
        table1=table1,
        stage_seconds=stage_totals(trace, _STAGES[engine]),
        trace=trace,
        pool_counters=pool_counters,
        accumulator=accumulator,
        _observed=observed,
    )
