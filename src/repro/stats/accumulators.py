"""Fixed-size, mergeable accumulators: the campaign statistics' definition.

Every statistic the campaign engine reports — the Figure 4a class
mixture, the Figure 4b MBME breadth histogram, the Figure 4c alignment
and words-per-entry numbers, the Figure 5 bits-per-word severities and
the Table 1 pattern probabilities — is a ratio of **integer tallies**
over the observed events.  A :class:`CampaignAccumulator` keeps exactly
those tallies, in O(1) space (a few hundred counters), so a worker can
fold an arbitrary slice of the campaign into one and ship back kilobytes
instead of per-event columns.  It is the one vectorized definition of
those statistics: the shm engine derives them from it in both
statistics modes, and the report's Table 1 folds into one too.

The contract, asserted by the property suite and the engine equivalence
tests:

* ``merge`` is associative and commutative with :meth:`empty` as
  identity — integer addition, nothing else;
* folding any partition of one event stream and merging in any order
  yields tallies equal to one fold of the whole stream;
* :meth:`finalize` computes every float exactly once, from the tallies,
  in one canonical order — **float-identical** to the scalar oracles in
  :mod:`repro.beam.postprocess` (Table 1 shares their tally → float
  helper in :mod:`repro.stats.table1`), and failing where they fail,
  with :class:`TooFewEventsError`.

The per-site pattern codes, word segments and alignment predicates are
the columnar kernels of :mod:`repro.beam.postprocess`; this module owns
the aggregation.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from repro.stats.table1 import table1_tally, table1_weights

__all__ = ["CampaignAccumulator", "STATS_KEYS", "TooFewEventsError"]

#: the statistics dictionaries :meth:`CampaignAccumulator.finalize`
#: produces, in :class:`repro.beam.engine.StatisticsResult` field order
STATS_KEYS = (
    "class_fractions",
    "mbme_histogram",
    "byte_alignment",
    "bits_per_word_aligned",
    "bits_per_word_non_aligned",
    "table1",
)

_STATE_VERSION = 1


class TooFewEventsError(ValueError):
    """Too few observed events to derive a statistic: none at all, or no
    multi-bit events for the Figure 4c alignment numbers."""


#: a flipped site never exceeds the entry's data bits, so one word's
#: segment length is bounded far below this — sized generously so a
#: malformed input fails loudly in bincount, not by silent truncation
_MAX_SEG_BITS = 256


class CampaignAccumulator:
    """Streaming statistics state for one (slice of a) campaign."""

    def __init__(self) -> None:
        from repro.beam.events import WORDS_PER_ENTRY
        from repro.beam.postprocess import _MBME_EDGES

        self.n_events = 0  #: synthesized events folded (pre-observation)
        self.n_records = 0  #: mismatch records folded (pre-filter)
        self.n_observed = 0  #: observed (grouped, post-filter) events
        self.class_counts = np.zeros(4, dtype=np.int64)  #: Figure 4a
        self.aligned_multibit = 0  #: byte-aligned events among multi-bit
        self.mbme_bins = np.zeros(len(_MBME_EDGES) - 1, dtype=np.int64)
        #: per-site words-affected histogram, rows = (aligned, non-aligned)
        self.words_hist = np.zeros((2, WORDS_PER_ENTRY + 1), dtype=np.int64)
        #: per-segment bits-per-word histogram, rows = (aligned, non-aligned)
        self.bits_hist = np.zeros((2, _MAX_SEG_BITS + 1), dtype=np.int64)
        self.table1_tally: Counter = Counter()  #: (code, breadth) -> sites
        self.fold_ns = 0  #: integer fold wall-clock, exactly mergeable

    # -- folding -----------------------------------------------------------
    def add_raw(self, *, n_events: int = 0, n_records: int = 0) -> None:
        """Count synthesized events / raw records that fed this slice."""
        self.n_events += int(n_events)
        self.n_records += int(n_records)

    def update_from_flip_table(self, grouped) -> None:
        """Fold one grouped (filtered) event table — the worker hot path.

        ``grouped`` is a :class:`repro.beam.fliptable.FlipTable` of
        observed events, as the campaign engine's grouping builds it.
        """
        from repro.beam.postprocess import (
            _MBME_EDGES,
            _site_alignment,
            _word_segments,
            observed_class_codes,
            table1_site_codes,
        )

        started = time.monotonic_ns()
        if grouped.n_events:
            codes = observed_class_codes(grouped)
            self.class_counts += np.bincount(codes, minlength=4)
            self.n_observed += int(grouped.n_events)

            breadths = grouped.breadths()
            edges = np.asarray(_MBME_EDGES)
            mbme = breadths[codes == 3]
            mbme = mbme[(mbme >= edges[0]) & (mbme < edges[-1])]
            self.mbme_bins += np.bincount(
                np.searchsorted(edges, mbme, side="right") - 1,
                minlength=edges.size - 1,
            )

            words_per_site, _, event_aligned = _site_alignment(grouped)
            multibit = codes >= 2
            self.aligned_multibit += int((multibit & event_aligned).sum())
            seg_site, seg_len, _ = _word_segments(grouped)
            for row, aligned in ((0, True), (1, False)):
                event_mask = multibit & (event_aligned == aligned)
                site_mask = event_mask[grouped.site_event]
                self.words_hist[row] += np.bincount(
                    words_per_site[site_mask],
                    minlength=self.words_hist.shape[1],
                )[:self.words_hist.shape[1]]
                lengths = seg_len[site_mask[seg_site]]
                self.bits_hist[row] += np.bincount(
                    lengths, minlength=self.bits_hist.shape[1],
                )
            self.table1_tally.update(table1_tally(
                table1_site_codes(grouped),
                breadths[grouped.site_event],
            ))
        self.fold_ns += time.monotonic_ns() - started

    def update_from_events(self, events) -> None:
        """Fold scalar :class:`~repro.beam.postprocess.ObservedEvent`
        objects (the beam run's recovered events, the reference engine's,
        or test streams) — identical tallies to folding their table."""
        from repro.beam.fliptable import FlipTable

        if events:
            self.update_from_flip_table(
                FlipTable.from_observed_events(events)
            )

    # -- merging -----------------------------------------------------------
    @classmethod
    def empty(cls) -> CampaignAccumulator:
        """The merge identity."""
        return cls()

    def merge(self, other: CampaignAccumulator) -> CampaignAccumulator:
        """Exact element-wise sum; associative and commutative."""
        merged = CampaignAccumulator()
        merged.n_events = self.n_events + other.n_events
        merged.n_records = self.n_records + other.n_records
        merged.n_observed = self.n_observed + other.n_observed
        merged.class_counts = self.class_counts + other.class_counts
        merged.aligned_multibit = self.aligned_multibit \
            + other.aligned_multibit
        merged.mbme_bins = self.mbme_bins + other.mbme_bins
        merged.words_hist = self.words_hist + other.words_hist
        merged.bits_hist = self.bits_hist + other.bits_hist
        merged.table1_tally = self.table1_tally + other.table1_tally
        merged.fold_ns = self.fold_ns + other.fold_ns
        return merged

    # -- transport ---------------------------------------------------------
    def state(self) -> dict:
        """Plain-type snapshot — what a streaming worker ships back."""
        return {
            "version": _STATE_VERSION,
            "n_events": int(self.n_events),
            "n_records": int(self.n_records),
            "n_observed": int(self.n_observed),
            "class_counts": self.class_counts.tolist(),
            "aligned_multibit": int(self.aligned_multibit),
            "mbme_bins": self.mbme_bins.tolist(),
            "words_hist": self.words_hist.tolist(),
            "bits_hist": self.bits_hist.tolist(),
            "table1": sorted(
                (int(code), int(breadth), int(count))
                for (code, breadth), count in self.table1_tally.items()
                if count
            ),
            "fold_ns": int(self.fold_ns),
        }

    @classmethod
    def from_state(cls, state: dict) -> CampaignAccumulator:
        if state.get("version") != _STATE_VERSION:
            raise ValueError(
                f"unsupported accumulator state version "
                f"{state.get('version')!r}")
        acc = cls()
        acc.n_events = int(state["n_events"])
        acc.n_records = int(state["n_records"])
        acc.n_observed = int(state["n_observed"])
        acc.class_counts = np.asarray(state["class_counts"], dtype=np.int64)
        acc.aligned_multibit = int(state["aligned_multibit"])
        acc.mbme_bins = np.asarray(state["mbme_bins"], dtype=np.int64)
        acc.words_hist = np.asarray(state["words_hist"], dtype=np.int64)
        acc.bits_hist = np.asarray(state["bits_hist"], dtype=np.int64)
        acc.table1_tally = Counter({
            (int(code), int(breadth)): int(count)
            for code, breadth, count in state["table1"]
        })
        acc.fold_ns = int(state["fold_ns"])
        return acc

    # -- finalization ------------------------------------------------------
    @property
    def events_per_second(self) -> float:
        """Fold throughput over the summed worker fold time."""
        if self.fold_ns <= 0:
            return 0.0
        return self.n_events / (self.fold_ns / 1e9)

    def finalize(self) -> dict:
        """The statistics dictionaries, floats computed canonically.

        Raises :class:`TooFewEventsError` exactly where the scalar
        oracles raise (no observed events / no multi-bit events), so the
        paths stay interchangeable failure-for-failure.
        """
        from repro.beam.events import EventClass
        from repro.beam.postprocess import _MBME_EDGES

        if not self.n_observed:
            raise TooFewEventsError("no events to classify")
        class_fractions = {
            klass: int(count) / self.n_observed
            for klass, count in zip(EventClass, self.class_counts)
        }
        mbme_histogram = {
            f"{low}-{high - 1}": int(count)
            for low, high, count in zip(
                _MBME_EDGES[:-1], _MBME_EDGES[1:], self.mbme_bins,
            )
        }
        byte_alignment = self._byte_alignment()
        return {
            "class_fractions": class_fractions,
            "mbme_histogram": mbme_histogram,
            "byte_alignment": byte_alignment,
            "bits_per_word_aligned": self._bits_per_word(0),
            "bits_per_word_non_aligned": self._bits_per_word(1),
            "table1": table1_weights(self.table1_tally),
        }

    def _byte_alignment(self) -> dict:
        n_multibit = int(self.class_counts[2] + self.class_counts[3])
        if not n_multibit:
            raise TooFewEventsError("no multi-bit events observed")
        stats: dict[str, float] = {
            "byte_aligned_fraction": self.aligned_multibit / n_multibit,
        }
        for row, label in ((0, "aligned"), (1, "non_aligned")):
            counts = self.words_hist[row]
            total = int(counts.sum())
            if not total:
                continue
            for words in range(1, self.words_hist.shape[1]):
                stats[f"{label}_words_{words}"] = int(counts[words]) / total
        return stats

    def _bits_per_word(self, row: int) -> dict:
        counts = self.bits_hist[row]
        total = int(counts.sum())
        if not total:
            return {}
        return {
            int(severity): int(count) / total
            for severity, count in enumerate(counts.tolist()) if count
        }
