"""Post-processing of beam-campaign logs (Sections 4 and 5).

This is the analysis half of the methodology — the code a real campaign
would run over its mismatch logs:

1. **Intermittent-error filtering.**  Displacement-damaged cells produce
   isolated single-bit errors that *recur across write cycles* (a soft
   error is cleared by the next write; a weak cell leaks again).  Any entry
   with errors in two or more distinct write cycles is classified as
   damaged and every record it produced is excluded.  The paper notes the
   filter is safe because weak cells are so sparse (roughly a thousand in
   32GB) that overlap with a broad soft error is vanishingly unlikely.
2. **Event grouping.**  Mean-time-to-event is seconds while a read pass
   takes milliseconds, so all first-observations sharing one (run, write
   cycle, read pass) belong to one SEU.
3. **Statistics.**  Breadth/severity classes (Figure 4a), MBME breadth
   histogram (Figure 4b), byte-alignment and words-per-entry (Figure 4c),
   bits-per-word severity (Figure 5), and the Table-1 pattern probabilities
   via :func:`repro.errormodel.classify.classify_error`.

Observed flips are data-bit offsets (0-255); for Table-1 classification
they are mapped onto transmitted coordinates using the non-interleaved
layout (data bit ``d`` rides pin ``d % 64`` in beat ``d // 64``).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from repro.beam.events import BITS_PER_WORD, WORDS_PER_ENTRY, EventClass
from repro.beam.fliptable import FlipTable
from repro.beam.microbenchmark import MismatchRecord
from repro.core.layout import ENTRY_BITS, NUM_PINS
from repro.errormodel.classify import PATTERN_ORDER, classify_error
from repro.errormodel.patterns import ErrorPattern
from repro.stats.accumulators import TooFewEventsError
from repro.stats.table1 import table1_weights

__all__ = [
    "FilterResult",
    "filter_intermittent",
    "ObservedEvent",
    "group_events",
    "breadth_class_fractions",
    "mbme_breadth_histogram",
    "byte_alignment_stats",
    "bits_per_word_histogram",
    "derive_table1",
    "events_from_truth_table",
    "observed_class_codes",
    "table1_site_codes",
]


# --------------------------------------------------------------------------
# 1. Intermittent-error filtering
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterResult:
    """Soft-error records, intermittent records, and damaged entry set."""

    soft_records: list[MismatchRecord]
    intermittent_records: list[MismatchRecord]
    damaged_entries: frozenset[int]


def filter_intermittent(records: list[MismatchRecord],
                        min_cycles: int = 2) -> FilterResult:
    """Split records into soft errors and displacement-damage artifacts.

    An entry observed erroneous in ``min_cycles`` or more distinct write
    cycles (across all runs and patterns) is damaged; all its records are
    intermittent.
    """
    cycles_seen: dict[int, set[tuple[int, int]]] = defaultdict(set)
    for record in records:
        cycles_seen[record.entry_index].add((record.run, record.write_cycle))
    damaged = frozenset(
        entry for entry, cycles in cycles_seen.items() if len(cycles) >= min_cycles
    )
    soft = [r for r in records if r.entry_index not in damaged]
    intermittent = [r for r in records if r.entry_index in damaged]
    return FilterResult(soft, intermittent, damaged)


# --------------------------------------------------------------------------
# 2. Event grouping
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservedEvent:
    """One reconstructed SEU: per-entry data-bit flip positions."""

    run: int
    write_cycle: int
    read_pass: int
    flips: dict[int, tuple[int, ...]]

    @property
    def breadth(self) -> int:
        return len(self.flips)

    @property
    def total_bits(self) -> int:
        return sum(len(positions) for positions in self.flips.values())

    def event_class(self) -> EventClass:
        """Figure 4a breadth/severity class."""
        multi_entry = self.breadth > 1
        multi_bit = any(len(positions) > 1 for positions in self.flips.values())
        if multi_bit:
            return EventClass.MBME if multi_entry else EventClass.MBSE
        return EventClass.SBME if multi_entry else EventClass.SBSE

    # -- severity helpers ---------------------------------------------------
    def words_of(self, positions: tuple[int, ...]) -> dict[int, list[int]]:
        """Group one entry's flips by 64b word (word -> within-word bits)."""
        grouped: dict[int, list[int]] = defaultdict(list)
        for position in positions:
            grouped[position // BITS_PER_WORD].append(position % BITS_PER_WORD)
        return dict(grouped)

    def is_byte_aligned(self) -> bool:
        """True when every affected word's flips share one aligned byte."""
        for positions in self.flips.values():
            for bits in self.words_of(positions).values():
                if len({bit // 8 for bit in bits}) != 1:
                    return False
        return True


def group_events(soft_records: list[MismatchRecord]) -> list[ObservedEvent]:
    """Reconstruct SEU events from filtered mismatch records.

    Soft errors persist until the next write, so the same corruption is
    re-observed on every later read pass of its write cycle; only the
    *first* observation of each (entry, cycle) carries timing information,
    and first-observations sharing a read pass form one event.
    """
    first_seen: dict[tuple[int, int, int], MismatchRecord] = {}
    for record in sorted(soft_records, key=lambda r: r.time_s):
        key = (record.run, record.write_cycle, record.entry_index)
        if key not in first_seen:
            first_seen[key] = record

    grouped: dict[tuple[int, int, int], dict[int, tuple[int, ...]]] = defaultdict(dict)
    for record in first_seen.values():
        event_key = (record.run, record.write_cycle, record.read_pass)
        grouped[event_key][record.entry_index] = record.bit_positions

    return [
        ObservedEvent(run=run, write_cycle=cycle, read_pass=read_pass, flips=flips)
        for (run, cycle, read_pass), flips in sorted(grouped.items())
    ]


# --------------------------------------------------------------------------
# 3. Statistics — Figures 4 and 5, Table 1
# --------------------------------------------------------------------------

def events_from_truth(true_events) -> list[ObservedEvent]:
    """Convert ground-truth :class:`~repro.beam.events.SoftErrorEvent`
    objects into :class:`ObservedEvent` records.

    For statistics-scale runs (thousands of events for Figure 4/5 and
    Table 1) driving the full device/microbenchmark loop adds nothing but
    time; the conversion lets the analysis functions below run directly on
    generator output.  The full observation path (device, scanning,
    intermittent filtering, event grouping) is exercised by smaller
    campaigns in the test-suite.
    """
    observed = []
    for index, event in enumerate(true_events):
        observed.append(
            ObservedEvent(
                run=0,
                write_cycle=0,
                read_pass=index,
                flips={
                    entry: tuple(int(b) for b in positions)
                    for entry, positions in event.flips.items()
                },
            )
        )
    return observed


def breadth_class_fractions(events: list[ObservedEvent]) -> dict[EventClass, float]:
    """Figure 4a: the SBSE/SBME/MBSE/MBME mixture."""
    if not events:
        raise TooFewEventsError("no events to classify")
    counts = Counter(event.event_class() for event in events)
    return {klass: counts.get(klass, 0) / len(events) for klass in EventClass}


def mbme_breadth_histogram(events: list[ObservedEvent]) -> dict[str, int]:
    """Figure 4b: MBME breadth in exponentially-sized bins."""
    histogram: dict[str, int] = {}
    edges = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]
    labels = [f"{low}-{high - 1}" for low, high in zip(edges[:-1], edges[1:])]
    counts = [0] * len(labels)
    for event in events:
        if event.event_class() is not EventClass.MBME:
            continue
        for index, (low, high) in enumerate(zip(edges[:-1], edges[1:])):
            if low <= event.breadth < high:
                counts[index] += 1
                break
    for label, count in zip(labels, counts):
        histogram[label] = count
    return histogram


def byte_alignment_stats(events: list[ObservedEvent]) -> dict[str, float]:
    """Figure 4c: byte-aligned fraction and words-affected-per-entry."""
    multi_bit = [
        event
        for event in events
        if event.event_class() in (EventClass.MBSE, EventClass.MBME)
    ]
    if not multi_bit:
        raise TooFewEventsError("no multi-bit events observed")
    aligned = [event for event in multi_bit if event.is_byte_aligned()]

    def words_histogram(subset: list[ObservedEvent]) -> dict[int, float]:
        counts: Counter[int] = Counter()
        total = 0
        for event in subset:
            for positions in event.flips.values():
                counts[len(event.words_of(positions))] += 1
                total += 1
        return {
            words: counts.get(words, 0) / total
            for words in range(1, WORDS_PER_ENTRY + 1)
        }

    non_aligned = [event for event in multi_bit if not event.is_byte_aligned()]
    stats: dict[str, float] = {
        "byte_aligned_fraction": len(aligned) / len(multi_bit),
    }
    if aligned:
        for words, fraction in words_histogram(aligned).items():
            stats[f"aligned_words_{words}"] = fraction
    if non_aligned:
        for words, fraction in words_histogram(non_aligned).items():
            stats[f"non_aligned_words_{words}"] = fraction
    return stats


def bits_per_word_histogram(events: list[ObservedEvent], *,
                            byte_aligned: bool) -> dict[int, float]:
    """Figure 5: bits flipped per erroneous 64b word, multi-bit events only."""
    counts: Counter[int] = Counter()
    total = 0
    for event in events:
        if event.event_class() not in (EventClass.MBSE, EventClass.MBME):
            continue
        if event.is_byte_aligned() != byte_aligned:
            continue
        for positions in event.flips.values():
            for bits in event.words_of(positions).values():
                counts[len(bits)] += 1
                total += 1
    if total == 0:
        return {}
    return {severity: count / total for severity, count in sorted(counts.items())}


def _data_flips_to_entry_error(positions: tuple[int, ...]) -> np.ndarray:
    """Map data-bit offsets (0-255) to a 288-bit transmitted error vector
    using the non-interleaved layout: data bit d -> beat d//64, pin d%64."""
    error = np.zeros(ENTRY_BITS, dtype=np.uint8)
    for position in positions:
        beat, pin = divmod(position, BITS_PER_WORD)
        error[beat * NUM_PINS + pin] = 1
    return error


def derive_table1(events: list[ObservedEvent]) -> dict[ErrorPattern, float]:
    """Table 1: per-event pattern probabilities.

    Figure 8 weights outcomes "given a random single event", so each event
    contributes total weight 1; a broad event whose entries show a mix of
    per-entry patterns spreads its weight across them.  (Weighting per
    *entry* instead would let a single thousand-entry MBME event dominate
    the distribution.)

    The float weights are computed by the canonical tally → weight helper
    of :mod:`repro.stats.table1`: this loop only counts sites by
    ``(pattern, breadth)`` — integers, order-independent — so the scalar
    oracle and the accumulator are bit-identical for any event ordering
    or range split.
    """
    if not events:
        raise TooFewEventsError("no events to classify")
    code_of = {pattern: code for code, pattern in enumerate(PATTERN_ORDER)}
    tally: Counter = Counter()
    for event in events:
        for positions in event.flips.values():
            pattern = classify_error(_data_flips_to_entry_error(positions))
            tally[(code_of[pattern], event.breadth)] += 1
    return table1_weights(tally)


# --------------------------------------------------------------------------
# 4. Columnar kernels — what the streaming accumulator folds with
# --------------------------------------------------------------------------
#
# :class:`repro.stats.CampaignAccumulator` is the one vectorized definition
# of every statistic above; these kernels give it per-event classes,
# per-site word segments and alignment, and per-site Table-1 pattern codes
# over a :class:`~repro.beam.fliptable.FlipTable`.  The scalar functions
# above remain the oracle the equivalence suite checks it against.

def events_from_truth_table(truth: FlipTable) -> FlipTable:
    """Columnar :func:`events_from_truth`: relabel a ground-truth table
    with the observed-event columns (run 0, cycle 0, pass = index)."""
    n = truth.n_events
    return FlipTable(
        n_events=n,
        site_event=truth.site_event,
        site_entry=truth.site_entry,
        site_flip_start=truth.site_flip_start,
        flip_bit=truth.flip_bit,
        event_columns={
            "run": np.zeros(n, dtype=np.int64),
            "write_cycle": np.zeros(n, dtype=np.int64),
            "read_pass": np.arange(n, dtype=np.int64),
        },
    )


def observed_class_codes(table: FlipTable) -> np.ndarray:
    """Structural Figure 4a class of each event, as indices into
    ``list(EventClass)`` (SBSE 0, SBME 1, MBSE 2, MBME 3)."""
    return _table_cached(table, "class_codes", _observed_class_codes_uncached)


def _observed_class_codes_uncached(table: FlipTable) -> np.ndarray:
    multi_entry = table.breadths() > 1
    site_multibit = table.flips_per_site() > 1
    multibit_sites = np.bincount(
        table.site_event[site_multibit], minlength=table.n_events
    )
    return 2 * (multibit_sites > 0).astype(np.int64) \
        + multi_entry.astype(np.int64)


def _table_cached(table: FlipTable, key: str, compute):
    """Memoize a derived product on the (build-once) table instance; the
    Figure 4/5 statistics all start from the same segment decomposition."""
    cache = getattr(table, "_derived_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(table, "_derived_cache", cache)
    if key not in cache:
        cache[key] = compute(table)
    return cache[key]


def _flip_site_ids(table: FlipTable) -> np.ndarray:
    """:meth:`FlipTable.site_of_flip` in the narrowest safe integer
    width, cached — the segment and Table-1 passes share one (F,)-sized
    gather instead of re-materializing an int64 copy each."""
    return _table_cached(table, "flip_site_ids", _flip_site_ids_uncached)


def _flip_site_ids_uncached(table: FlipTable) -> np.ndarray:
    dtype = np.int64 if table.n_sites > np.iinfo(np.int32).max else np.int32
    return np.repeat(
        np.arange(table.n_sites, dtype=dtype), table.flips_per_site()
    )


def _flip_bits16(table: FlipTable) -> np.ndarray:
    """``flip_bit`` as int16 (values < ENTRY_BITS always fit), cached.
    A no-op view for shm-built tables, a one-time narrowing copy for the
    int64 scalar-built ones — all the kernels below run on it so the
    big per-flip temporaries shrink 4x."""
    return _table_cached(
        table, "flip_bits16",
        lambda t: t.flip_bit.astype(np.int16, copy=False),
    )


def _word_segments(table: FlipTable
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-(site, word) flip segments: ``(seg_site, seg_len, seg_aligned)``.

    Flip bits are sorted within each site, so a site's words form
    contiguous runs and a segment is byte-aligned exactly when its first
    and last flips land in the same aligned byte.
    """
    return _table_cached(table, "segments", _word_segments_uncached)


def _word_segments_uncached(table: FlipTable
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_flips = table.n_flips
    if not n_flips:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=bool)
    bits = _flip_bits16(table)
    word = bits >> 6
    new_segment = np.empty(n_flips, dtype=bool)
    new_segment[0] = True
    np.not_equal(word[1:], word[:-1], out=new_segment[1:])
    del word
    # Site boundaries open segments too.  The CSR offsets name them
    # directly — no (F,)-sized site-diff needed; an empty site collapses
    # onto its successor's first flip, which is a boundary anyway, and
    # trailing empty sites (offset == n_flips) are masked off.
    inner = table.site_flip_start[1:-1]
    new_segment[inner[inner < n_flips]] = True
    seg_start = np.flatnonzero(new_segment)
    seg_end = np.r_[seg_start[1:], n_flips]
    seg_site = _flip_site_ids(table)[seg_start]
    return seg_site, seg_end - seg_start, \
        ((bits[seg_start] >> 3) & 7) == ((bits[seg_end - 1] >> 3) & 7)


def _site_alignment(table: FlipTable
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-site (words affected, byte-aligned) plus per-event alignment."""
    return _table_cached(table, "alignment", _site_alignment_uncached)


def _site_alignment_uncached(table: FlipTable
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    seg_site, _, seg_aligned = _word_segments(table)
    words_per_site = np.bincount(seg_site, minlength=table.n_sites)
    misaligned_segments = np.bincount(
        seg_site[~seg_aligned], minlength=table.n_sites
    )
    site_aligned = misaligned_segments == 0
    misaligned_sites = np.bincount(
        table.site_event[~site_aligned], minlength=table.n_events
    )
    return words_per_site, site_aligned, misaligned_sites == 0


_MBME_EDGES = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)


def table1_site_codes(table: FlipTable) -> np.ndarray:
    """Table-1 pattern code of each site's transmitted error vector.

    Classifies straight off the per-site flip lists: "all flips share one
    pin/byte/beat" is a per-segment check on the group ids, so no dense
    ``(sites, 288)`` error matrices are materialized.  Codes are identical
    to pushing each site's dense vector through
    :func:`repro.errormodel.classify.classify_error_codes_batch` — the
    priority chain below is that function's, applied to the same
    predicates — which the equivalence tests pin against the scalar
    :func:`repro.errormodel.classify.classify_error`.
    """
    n_sites = table.n_sites
    if not n_sites:
        return np.empty(0, dtype=np.int64)
    counts = np.diff(table.site_flip_start)
    if np.any(counts == 0):
        raise ValueError("cannot classify all-zero errors")
    site = _flip_site_ids(table)
    bits = _flip_bits16(table)
    # weights count *distinct* bits, like the dense vector's popcount
    # (flips are sorted within a site, so duplicates are adjacent); an
    # adjacent equal pair can only straddle sites at a site's first flip,
    # so clearing the CSR starts replaces the (F,)-sized site compare
    duplicate = np.zeros(site.size, dtype=bool)
    np.equal(bits[1:], bits[:-1], out=duplicate[1:])
    duplicate[table.site_flip_start[1:-1]] = False
    weights = counts - np.bincount(site[duplicate], minlength=n_sites)
    del duplicate

    first = table.site_flip_start[:-1]
    last = table.site_flip_start[1:] - 1

    # Data bit ``d`` is transmitted as ``beat_of = d >> 6`` on pin
    # ``pin_of = d & 63`` (< NUM_PINS), so the layout group ids reduce to
    # shifts — same ids ``pin_of``/``byte_of``/``beat_of`` return for
    # ``transmitted = (d >> 6) * NUM_PINS + (d & 63)``.  The beat and byte
    # ids are non-decreasing in ``d`` and flips are sorted within a site,
    # so "all in one group" is just first == last per segment; pin ids are
    # not monotone, so that one compares every flip to its segment's first.
    pins = bits & (BITS_PER_WORD - 1)
    bit_first, bit_last = bits[first], bits[last]
    off_pin = pins != np.repeat(pins[first], counts)
    one_pin = np.bincount(site[off_pin], minlength=n_sites) == 0
    del off_pin, pins
    one_byte = (
        (bit_first >> 6) * (NUM_PINS // 8) + ((bit_first & 63) >> 3)
        == (bit_last >> 6) * (NUM_PINS // 8) + ((bit_last & 63) >> 3)
    )
    one_beat = (bit_first >> 6) == (bit_last >> 6)

    order = {pattern: code for code, pattern in enumerate(PATTERN_ORDER)}
    codes = np.full(n_sites, order[ErrorPattern.ENTRY], dtype=np.int64)
    codes[one_beat] = order[ErrorPattern.BEAT]
    codes[(weights == 3) & ~one_pin & ~one_byte] = \
        order[ErrorPattern.TRIPLE_BIT]
    codes[(weights == 2) & ~one_pin & ~one_byte] = \
        order[ErrorPattern.DOUBLE_BIT]
    codes[one_byte & (weights >= 2)] = order[ErrorPattern.BYTE]
    codes[one_pin & (weights >= 2)] = order[ErrorPattern.PIN]
    codes[weights == 1] = order[ErrorPattern.BIT]
    return codes
