"""Monte Carlo / exhaustive resilience evaluation (Table 2 and Figure 8).

For each ECC organization and each Table-1 error pattern, this harness
injects error patterns over the all-zero codeword (all evaluated codes are
linear, so outcomes depend only on the error pattern), decodes them in
vectorized batches, and labels each event:

* **DCE** — correct data delivered (including opportunistic corrections and
  errors confined to check bits);
* **DUE** — the decoder raised a detected-uncorrectable error; and
* **SDC** — wrong data delivered silently, either because the error aliased
  a codeword or because the decoder *miscorrected*.

Bit/pin/byte/2-bit patterns are evaluated exhaustively; 3-bit patterns are
exhaustive on request (``exhaustive_triples=True``) and otherwise sampled;
beat/entry patterns are always sampled.  Each estimate carries a 99%
Wilson-style confidence half-width so EXPERIMENTS.md can report precision,
mirroring the paper's ±0.0003%/±0.00003% statements.

Error batches travel bit-packed (uint64 words) end-to-end, so schemes with a
packed syndrome-LUT fast path never touch unpacked bits.  Each Table-2
pattern is seeded independently from ``np.random.SeedSequence(seed).spawn``,
so every execution order gives the same cells.  ``workers`` is a thread
count: a sweep of two or more cells with at least one chunk of rows
between them runs on a :class:`~concurrent.futures.ThreadPoolExecutor`
in this process (numpy releases the GIL in the gathers, XORs and RNG
fills a cell is made of), one thread per available core when
``workers`` is unset and at most ``workers`` otherwise, never more
threads than cells.  ``workers=1``, smaller sweeps, and any sweep while
a fault plan is active run serially, in job order.

Every scheme sees the same stream for a pattern, so a sweep draws each
sampled pattern's batch once and every scheme's cell decodes that one
read-only array (:func:`_shared_batch`).  Each batch, and each cached
enumeration, travels with its :func:`~repro.gf.gf2.byte_index` (its
nonzero bytes), built once and passed to every scheme's decode, whose
syndromes XOR only those bytes' table rows.  Whatever the path, results
are delivered in job order on the calling thread, which records each
fresh cell in ``cache`` as it completes, and the threads are joined
before the sweep returns.  A cell that raises is retried once
in-process and then propagates (the pure-serial tier of
:func:`repro.core.pool.run_with_requeue`).  Passing ``cache=`` (a
:class:`repro.runs.CellCache` or anything with the same
``lookup``/``record`` shape) short-circuits already-computed cells through
the persistent run store and records fresh ones for the next invocation.
``tracer=`` (a :class:`repro.obs.Tracer`) records one ``cell`` span per
freshly computed cell — cell-side, merged into the parent trace as
results arrive.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from repro.core.pool import RetryPolicy, run_with_requeue
from repro.core.layout import ENTRY_BYTES
from repro.core.scheme import ECCScheme
from repro.faults import active_plan, faultpoint
from repro.errormodel.patterns import (
    TABLE1_PROBABILITIES,
    ErrorPattern,
)
from repro.errormodel.sampling import (
    enumerate_bit_errors_packed,
    enumerate_byte_errors_packed,
    enumerate_double_bit_errors_packed,
    enumerate_pin_errors_packed,
    iter_triple_bit_errors_packed,
    sample_beat_errors_packed,
    sample_entry_errors_packed,
    sample_triple_bit_errors_packed,
)
from repro.gf.gf2 import byte_index

__all__ = [
    "PatternOutcome",
    "SchemeOutcome",
    "evaluate_pattern",
    "evaluate_scheme",
    "weighted_outcomes",
    "sdc_risk_table",
]

_LOGGER = logging.getLogger(__name__)

_Z99 = 2.576  # two-sided 99% normal quantile

_DEFAULT_SAMPLES = 200_000
_CHUNK = 65_536

#: per sampled pattern, ``(key, batch, index)`` of the last batch this
#: process drew for a sweep; see :func:`_shared_batch`
_BATCHES: dict[ErrorPattern, tuple[tuple, np.ndarray, np.ndarray]] = {}

#: the packed (cached, read-only) enumeration of each exhaustive pattern
_ENUMERATIONS = {
    ErrorPattern.BIT: enumerate_bit_errors_packed,
    ErrorPattern.PIN: enumerate_pin_errors_packed,
    ErrorPattern.BYTE: enumerate_byte_errors_packed,
    ErrorPattern.DOUBLE_BIT: enumerate_double_bit_errors_packed,
}


@cache
def _enumeration(pattern: ErrorPattern) -> tuple[np.ndarray, np.ndarray]:
    """An exhaustive pattern's enumeration and its byte index, both
    read-only and built once per process."""
    words = _ENUMERATIONS[pattern]()
    return words, byte_index(words, ENTRY_BYTES)


@dataclass(frozen=True)
class PatternOutcome:
    """DCE/DUE/SDC fractions for one (scheme, pattern) cell of Table 2."""

    pattern: ErrorPattern
    events: int
    dce: float
    due: float
    sdc: float
    exhaustive: bool
    #: wall-clock seconds spent generating + decoding this cell (not part of
    #: the value — excluded from equality so timed runs still compare equal)
    elapsed_s: float = field(default=0.0, compare=False)

    @property
    def sdc_confidence_99(self) -> float:
        """99% half-width of the SDC estimate (0 for exhaustive cells)."""
        if self.exhaustive or self.events == 0:
            return 0.0
        variance = max(self.sdc * (1.0 - self.sdc), 1.0 / self.events)
        return _Z99 * float(np.sqrt(variance / self.events))

    @property
    def events_per_second(self) -> float:
        """Injection throughput of this cell (0 when not timed)."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.events / self.elapsed_s

    def cell(self) -> str:
        """Table-2 style cell: "C" always corrected, "D" always detected,
        "C/D" when events split between the two without any SDC, otherwise
        the SDC percentage."""
        if self.sdc == 0.0:
            if self.due == 0.0:
                return "C"
            if self.dce == 0.0:
                return "D"
            return "C/D"
        return f"{self.sdc:.4%}"


@dataclass(frozen=True)
class SchemeOutcome:
    """Figure-8 style Table-1-weighted outcome probabilities."""

    scheme: str
    label: str
    correct: float
    detect: float
    sdc: float
    per_pattern: dict[ErrorPattern, PatternOutcome]

    def uncorrectable(self) -> float:
        """DUE probability — the quantity behind the paper's '7.87× fewer
        uncorrectable errors' claim."""
        return self.detect


def _decode_chunked(scheme: ECCScheme, words: np.ndarray,
                    chunk: int = _CHUNK, *,
                    index: np.ndarray | None = None) -> tuple[int, int, int]:
    """(dce, due, sdc) counts over a packed error batch, decoded chunk-wise
    through :meth:`ECCScheme.decode_batch_packed` with each chunk's
    columns of the batch's byte ``index``, if given."""
    dce = due = sdc = 0
    for start in range(0, words.shape[0], chunk):
        part = words[start : start + chunk]
        columns = None if index is None else index[:, start : start + chunk]
        outcome = scheme.decode_batch_packed(part, index=columns)
        due_part = int(outcome.due.sum())
        sdc_part = int(outcome.sdc().sum())
        due += due_part
        sdc += sdc_part
        dce += part.shape[0] - due_part - sdc_part
    return dce, due, sdc


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be at least 1 (got {samples})")


def _draw(pattern: ErrorPattern, samples: int,
          rng: np.random.Generator) -> np.ndarray:
    """A fresh packed batch of one sampled pattern.

    The samplers are looked up as module attributes at call time, so a
    wrapper installed on this module sees every draw.
    """
    if pattern is ErrorPattern.TRIPLE_BIT:
        return sample_triple_bit_errors_packed(samples, rng)
    if pattern is ErrorPattern.BEAT:
        return sample_beat_errors_packed(samples, rng)
    return sample_entry_errors_packed(samples, rng)


def _shared_batch(pattern: ErrorPattern, samples: int,
                  seed_seq: np.random.SeedSequence
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The read-only packed batch ``seed_seq`` draws for ``pattern``, and
    its byte index.

    The process keeps the last batch per sampled pattern, so every
    scheme's cell in a sweep decodes one draw.  The key is everything the
    stream depends on, so a batch is only ever reused for its own seed;
    two separate sweeps racing in threads may evict each other's batch
    and draw it again (a threaded sweep draws its batches before its
    cells start).  Reading and replacing one dict slot, which holds the
    batch with its index, is atomic, so no lock is needed.
    """
    key = (pattern, samples, seed_seq.entropy, seed_seq.spawn_key,
           seed_seq.pool_size)
    held = _BATCHES.get(pattern)
    if held is None or held[0] != key:
        batch = _draw(pattern, samples, np.random.default_rng(seed_seq))
        batch.flags.writeable = False
        held = _BATCHES[pattern] = (key, batch, byte_index(batch, ENTRY_BYTES))
    return held[1:]


def evaluate_pattern(
    scheme: ECCScheme,
    pattern: ErrorPattern,
    *,
    samples: int = _DEFAULT_SAMPLES,
    rng: np.random.Generator | None = None,
    exhaustive_triples: bool = False,
    seed_seq: np.random.SeedSequence | None = None,
) -> PatternOutcome:
    """Evaluate one Table-2 cell (timed; see ``PatternOutcome.elapsed_s``).

    A sampled pattern draws from ``rng``; given ``seed_seq`` instead (a
    sweep's child seed for the pattern) it decodes the process's shared
    batch for that seed, and ``elapsed_s`` counts the draw only in the
    cell that made it.
    """
    _check_samples(samples)
    started = time.perf_counter()

    exhaustive = True
    if pattern in _ENUMERATIONS:
        words, index = _enumeration(pattern)
        dce, due, sdc = _decode_chunked(scheme, words, index=index)
    elif pattern is ErrorPattern.TRIPLE_BIT and exhaustive_triples:
        dce = due = sdc = 0
        for block in iter_triple_bit_errors_packed():
            block_dce, block_due, block_sdc = _decode_chunked(scheme, block)
            dce += block_dce
            due += block_due
            sdc += block_sdc
    elif pattern in (ErrorPattern.TRIPLE_BIT, ErrorPattern.BEAT,
                     ErrorPattern.ENTRY):
        exhaustive = False
        if seed_seq is not None:
            errors, index = _shared_batch(pattern, samples, seed_seq)
        else:
            errors = _draw(pattern, samples,
                           rng if rng is not None
                           else np.random.default_rng(1234))
            index = None
        dce, due, sdc = _decode_chunked(scheme, errors, index=index)
    else:
        raise ValueError(f"unknown pattern {pattern}")

    events = dce + due + sdc
    return PatternOutcome(
        pattern=pattern,
        events=events,
        dce=dce / events,
        due=due / events,
        sdc=sdc / events,
        exhaustive=exhaustive,
        elapsed_s=time.perf_counter() - started,
    )


def _evaluate_cell(job: _CellJob, with_trace: bool = False
                   ) -> PatternOutcome | tuple[PatternOutcome, list]:
    """One (scheme, pattern) cell with its own seed, on whichever thread
    runs it.

    With ``with_trace`` the cell runs under its own tracer and the result
    travels as ``(outcome, span_records)`` so the calling thread can merge
    the cell's ``cell`` span into its trace.
    """
    faultpoint("pool.worker.crash", pattern=job.pattern.name)
    faultpoint("montecarlo.cell.hang", pattern=job.pattern.name)
    evaluate = partial(
        evaluate_pattern, job.scheme, job.pattern, samples=job.samples,
        exhaustive_triples=job.exhaustive_triples, seed_seq=job.seed_seq,
    )
    if not with_trace:
        return evaluate()
    from repro.obs import Tracer

    tracer = Tracer()
    with tracer.span("cell", scheme=job.scheme.name, pattern=job.pattern.name):
        outcome = evaluate()
        tracer.count(events=outcome.events)
    return outcome, tracer.records


def _cell_seeds(seed: int) -> list[np.random.SeedSequence]:
    """One independent child seed per Table-2 pattern.

    The spawn is a pure function of ``seed``, so any execution order — serial
    or on threads — evaluates every cell with the same stream.
    """
    return np.random.SeedSequence(seed).spawn(len(ErrorPattern))


class _CellJob(NamedTuple):
    """One (scheme, pattern) cell awaiting evaluation."""

    key: tuple[str, ErrorPattern]
    scheme: ECCScheme
    pattern: ErrorPattern
    samples: int
    seed_seq: np.random.SeedSequence
    exhaustive_triples: bool

    @property
    def sampled(self) -> bool:
        """True when the cell decodes its pattern's shared batch."""
        if self.pattern is ErrorPattern.TRIPLE_BIT:
            return not self.exhaustive_triples
        return self.pattern not in _ENUMERATIONS

    @property
    def rows(self) -> int:
        """Error patterns the cell decodes (the exhaustive 3-bit space,
        millions of rows, counts as one chunk)."""
        if self.sampled:
            return self.samples
        if self.pattern is ErrorPattern.TRIPLE_BIT:
            return _CHUNK
        return _enumeration(self.pattern)[0].shape[0]


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _cell_threads(jobs: list[_CellJob], workers: int | None) -> int:
    """Threads to run ``jobs`` on in this process, or 0 to run them serially.

    One per available core when ``workers`` is unset, else at most
    ``workers``, and never more than there are cells.  Only a sweep worth
    it fans out: two or more cells with at least one chunk of rows
    between them, so a served sweep whose exhaustive cells are cached
    stays serial.  While a fault plan is active the sweep stays serial
    too, since ``p=``/``after=``/``times=`` decisions follow the order of
    hits.
    """
    if workers == 1 or len(jobs) < 2 or active_plan() is not None:
        return 0
    if sum(job.rows for job in jobs) < _CHUNK:
        return 0
    return min(_cores() if workers is None else workers, len(jobs))


def _start_threads(pool, jobs: list[_CellJob], run_cell):
    """Submit every job to ``pool`` and return the runner that collects
    one job's result.

    Exhaustive cells start first; meanwhile this thread draws each
    sampled pattern's shared batch once, in pattern order, so no cell
    draws.  A job's first run returns its future's result (raising what
    the cell raised); a retry runs the cell on the calling thread.
    """
    futures = {job.key: pool.submit(run_cell, job)
               for job in jobs if not job.sampled}
    sampled = [job for job in jobs if job.sampled]
    for job in sampled:
        _shared_batch(job.pattern, job.samples, job.seed_seq)
    futures.update((job.key, pool.submit(run_cell, job)) for job in sampled)

    def collect(job: _CellJob):
        future = futures.pop(job.key, None)
        return run_cell(job) if future is None else future.result()

    return collect


def _run_cells(
    jobs: list[_CellJob],
    on_cell,
    workers: int | None,
    tracer=None,
    heartbeat=None,
    retry: RetryPolicy | None = None,
) -> None:
    """Evaluate cells, on threads when the sweep is worth it.

    A large enough sweep runs on :func:`_cell_threads` threads in this
    process; otherwise the cells run serially in job order.  Either way
    results arrive in job order on the calling thread, and a cell that
    raises is retried once in-process and then propagates (the pure-serial
    tier of :func:`repro.core.pool.run_with_requeue`).  Per-cell seeding
    makes the outcome identical on every path.  ``on_cell(job, outcome)``
    receives each cell on the calling thread as it completes.  When
    ``tracer`` is given, each cell carries its ``cell`` span back with the
    outcome and the spans merge into the parent trace as results arrive;
    ``heartbeat`` (a :class:`repro.obs.Heartbeat`) is advanced one cell at
    a time.
    """
    with_trace = tracer is not None
    if heartbeat is not None and heartbeat.total is None:
        heartbeat.total = len(jobs)

    def _on_result(job: _CellJob, result) -> None:
        outcome = result[0] if with_trace else result
        if with_trace:
            tracer.merge(result[1], worker=f"pid:{os.getpid()}")
        on_cell(job, outcome)
        if heartbeat is not None:
            heartbeat.update(advance=1, events=outcome.events)

    def _run_cell(job: _CellJob):
        return _evaluate_cell(job, with_trace)

    threads = _cell_threads(jobs, workers)
    pool = None
    if threads:
        # imported here: commands that never fan cells out (a beam
        # campaign) need not load the thread executor
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(threads, thread_name_prefix="repro-cell")
    try:
        run_with_requeue(
            jobs,
            key=lambda job: job.key,
            describe=lambda job: f"cell {job.key[0]}/{job.pattern.name}",
            run_serial=(_run_cell if pool is None
                        else _start_threads(pool, jobs, _run_cell)),
            noun="cells",
            logger=_LOGGER,
            on_result=_on_result,
            retry=retry,
        )
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def _collect_cells(
    schemes: list[ECCScheme],
    *,
    samples: int,
    seed: int,
    exhaustive_triples: bool,
    workers: int | None,
    cache,
    tracer=None,
    heartbeat=None,
    retry: RetryPolicy | None = None,
) -> dict[str, dict[ErrorPattern, PatternOutcome]]:
    """Shared cache-aware engine behind Table 2 and per-scheme evaluation.

    Every scheme's cell of a sampled pattern decodes one shared batch
    (:func:`_shared_batch`); the batches are freed when the sweep
    returns.  Each fresh cell is recorded in ``cache`` as
    it completes, in job order, so a sweep cut short keeps what it
    finished.
    """
    _check_samples(samples)
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1 (got {workers})")
    cells = list(zip(ErrorPattern, _cell_seeds(seed)))
    table: dict[str, dict[ErrorPattern, PatternOutcome]] = {
        scheme.name: {} for scheme in schemes
    }
    jobs: list[_CellJob] = []
    for scheme in schemes:
        for pattern, child in cells:
            hit = None
            if cache is not None:
                hit = cache.lookup(scheme.name, pattern, samples, seed,
                                   exhaustive_triples, scheme.cache_token())
            if hit is not None:
                table[scheme.name][pattern] = hit
            else:
                jobs.append(_CellJob(
                    key=(scheme.name, pattern),
                    scheme=scheme,
                    pattern=pattern,
                    samples=samples,
                    seed_seq=child,
                    exhaustive_triples=exhaustive_triples,
                ))

    def _record(job: _CellJob, outcome: PatternOutcome) -> None:
        table[job.key[0]][job.pattern] = outcome
        if cache is not None:
            cache.record(job.key[0], job.pattern, samples, seed,
                         exhaustive_triples, outcome,
                         job.scheme.cache_token())

    try:
        _run_cells(jobs, _record, workers, tracer, heartbeat, retry)
    finally:
        _BATCHES.clear()
    if heartbeat is not None:
        heartbeat.close()
    if tracer is not None:
        tracer.count(cells_computed=len(jobs),
                     cells_cached=len(schemes) * len(cells) - len(jobs))
    return {
        scheme.name: {
            pattern: table[scheme.name][pattern] for pattern in ErrorPattern
        }
        for scheme in schemes
    }


def evaluate_scheme(
    scheme: ECCScheme,
    *,
    samples: int = _DEFAULT_SAMPLES,
    seed: int = 1234,
    exhaustive_triples: bool = False,
    workers: int | None = None,
    cache=None,
    tracer=None,
    heartbeat=None,
    retry: RetryPolicy | None = None,
) -> dict[ErrorPattern, PatternOutcome]:
    """All seven Table-2 cells for one scheme.

    An unset ``workers`` runs a large enough sweep on one thread per
    core, ``workers=N`` on at most N threads and ``workers=1`` serially;
    per-cell seeding makes the result bit-identical on every path.
    ``cache`` (e.g. :class:`repro.runs.CellCache`) reloads previously
    computed cells from the persistent run store and records fresh ones;
    ``tracer`` (a :class:`repro.obs.Tracer`) collects per-cell spans.
    """
    return _collect_cells(
        [scheme], samples=samples, seed=seed,
        exhaustive_triples=exhaustive_triples, workers=workers,
        cache=cache, tracer=tracer, heartbeat=heartbeat, retry=retry,
    )[scheme.name]


def weighted_outcomes(
    scheme: ECCScheme,
    *,
    probabilities: dict[ErrorPattern, float] | None = None,
    samples: int = _DEFAULT_SAMPLES,
    seed: int = 1234,
    per_pattern: dict[ErrorPattern, PatternOutcome] | None = None,
) -> SchemeOutcome:
    """Figure 8: outcome probabilities weighted by Table 1.

    Pass ``per_pattern`` to reuse a previous :func:`evaluate_scheme` run.
    """
    probabilities = probabilities or TABLE1_PROBABILITIES
    per_pattern = per_pattern or evaluate_scheme(scheme, samples=samples, seed=seed)
    correct = sum(
        probabilities[pattern] * outcome.dce
        for pattern, outcome in per_pattern.items()
    )
    detect = sum(
        probabilities[pattern] * outcome.due
        for pattern, outcome in per_pattern.items()
    )
    sdc = sum(
        probabilities[pattern] * outcome.sdc
        for pattern, outcome in per_pattern.items()
    )
    return SchemeOutcome(
        scheme=scheme.name,
        label=scheme.label,
        correct=correct,
        detect=detect,
        sdc=sdc,
        per_pattern=per_pattern,
    )


def sdc_risk_table(
    schemes: list[ECCScheme],
    *,
    samples: int = _DEFAULT_SAMPLES,
    seed: int = 1234,
    exhaustive_triples: bool = False,
    workers: int | None = None,
    cache=None,
    tracer=None,
    heartbeat=None,
    retry: RetryPolicy | None = None,
) -> dict[str, dict[ErrorPattern, PatternOutcome]]:
    """Table 2: per-pattern outcomes for a list of schemes.

    Every (scheme, pattern) cell is one job: on one thread per core when
    ``workers`` is unset, on at most N threads with ``workers=N``, and
    serial with ``workers=1``.  Seeds are spawned per pattern exactly as
    in :func:`evaluate_scheme`, so the table is bit-identical whatever
    ``workers`` is.
    ``cache`` short-circuits cells already in the persistent run store, so
    an interrupted sweep re-invoked with the same parameters recomputes
    only its unfinished cells.
    """
    return _collect_cells(
        schemes, samples=samples, seed=seed,
        exhaustive_triples=exhaustive_triples, workers=workers,
        cache=cache, tracer=tracer, heartbeat=heartbeat, retry=retry,
    )
