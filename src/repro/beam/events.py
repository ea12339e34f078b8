"""Soft-error (SEU) event generator for the simulated beam campaign.

The generative model encodes the paper's Section-5 findings; the analysis
pipeline (:mod:`repro.beam.postprocess`) then *re-derives* the published
statistics from the simulated mismatch logs, exercising the same
classification code a real campaign would:

* events arrive as a Poisson process (mean-time-to-event is seconds in the
  beam while a read/write loop takes milliseconds, so events land in
  distinct loop iterations);
* event breadth/severity classes follow Figure 4a — SBSE 65%, MBME 28%,
  with the small remainder split between SBME and MBSE;
* MBME breadth is a long-tailed (truncated power-law) distribution reaching
  thousands of 32B entries (Figure 4b), with affected entries contiguous in
  one subarray — the locality attributed to DRAM logic faults;
* multi-bit errors are byte-aligned with probability 74.6% (Figure 4c): the
  same aligned byte of every affected 64b word, the footprint of a
  mat-local fault, usually touching one word per entry; non-byte-aligned
  errors usually corrupt all four words of an entry;
* bits-per-word severity is binomial ("random corruption"), except for an
  ~15% tendency to invert *every* bit of the affected byte/word
  (Figure 5's anomaly).

Flips are expressed over the 256 data bits of each entry (the
ECC-disabled microbenchmark can only observe data), using the *logical*
layout: word ``w`` occupies bits ``64w..64w+63``, byte ``b`` of a word its
bits ``8b..8b+7``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.dram.geometry import HBM2Geometry

__all__ = [
    "EventClass",
    "EventParameters",
    "SoftErrorEvent",
    "SoftErrorEventGenerator",
    "BatchEventSynthesis",
    "interval_class_mixture",
    "WORDS_PER_ENTRY",
    "BITS_PER_WORD",
]

WORDS_PER_ENTRY = 4
BITS_PER_WORD = 64


class EventClass(Enum):
    """Figure 4a's breadth/severity classes."""

    SBSE = "single-bit, single-entry"
    SBME = "single-bit, multiple-entry"
    MBSE = "multiple-bit, single-entry"
    MBME = "multiple-bit, multiple-entry"


@dataclass(frozen=True)
class EventParameters:
    """Tunable knobs of the generative model, defaulted to the paper."""

    #: mean time between SEU events with the GPU in the beam, seconds
    mean_time_to_event_s: float = 20.0
    #: Figure 4a class mixture (SBSE/SBME/MBSE/MBME)
    class_probabilities: tuple[float, float, float, float] = (0.65, 0.02, 0.05, 0.28)
    #: fraction of multi-bit errors confined to one aligned byte per word
    byte_aligned_fraction: float = 0.746
    #: fraction of affected bytes/words that invert entirely (Figure 5)
    inversion_fraction: float = 0.15
    #: words corrupted per entry for byte-aligned multi-bit errors
    byte_aligned_words_dist: tuple[float, float, float, float] = (0.88, 0.10, 0.015, 0.005)
    #: words corrupted per entry for non-byte-aligned multi-bit errors
    non_aligned_words_dist: tuple[float, float, float, float] = (0.25, 0.03, 0.02, 0.70)
    #: fraction of non-byte-aligned words with only 2-4 scattered flips
    #: (the source of Table 1's rare "2 Bits"/"3 Bits" patterns)
    sparse_severity_fraction: float = 0.10
    #: fraction of multi-bit single-entry faults hitting one interface pin
    #: (the same within-word bit across several beats; Table 1's "1 Pin")
    pin_fault_fraction: float = 0.04
    #: power-law exponent and cap of the MBME breadth distribution
    mbme_breadth_alpha: float = 1.05
    mbme_breadth_max: int = 6000
    #: breadth distribution of the rarer SBME events
    sbme_breadth_alpha: float = 1.6
    sbme_breadth_max: int = 64

    def __post_init__(self) -> None:
        if abs(sum(self.class_probabilities) - 1.0) > 1e-9:
            raise ValueError("class probabilities must sum to 1")
        for dist in (self.byte_aligned_words_dist, self.non_aligned_words_dist):
            if abs(sum(dist) - 1.0) > 1e-9:
                raise ValueError("words-per-entry distributions must sum to 1")


@dataclass(frozen=True)
class SoftErrorEvent:
    """One SEU: a set of per-entry data-bit flip positions."""

    time_s: float
    event_class: EventClass
    flips: dict[int, np.ndarray]  #: entry index -> sorted bit positions (0-255)

    @property
    def breadth(self) -> int:
        """Number of 32B entries affected."""
        return len(self.flips)

    @property
    def total_bits(self) -> int:
        return sum(positions.size for positions in self.flips.values())


# ---------------------------------------------------------------------------
# Event synthesis
# ---------------------------------------------------------------------------
#
# The model has one draw plan, built so that a whole interval's events come
# from a few sized numpy draws:
#
# * nine independent child streams (one ``SeedSequence`` spawn per draw
#   phase) so variable consumption in one phase cannot desynchronise the
#   others;
# * every data-dependent draw is phrased as a fixed number of uniforms —
#   ``floor(u * n)`` for bounded integers, argsort-of-uniforms for sampling
#   without replacement, an inverse-CDF lookup for the truncated binomial —
#   so one sized call per phase replays the exact per-value stream.
#
# The scalar :meth:`BatchEventSynthesis.events_at` path consumes the same
# streams one event at a time and is kept as the bit-exact oracle (and the
# benchmark's reference engine).

#: spawn order of the per-phase child streams
_PHASES = ("arrival", "klass", "breadth", "place", "mode",
           "words", "pick", "sev", "off")

_DATA_BITS = WORDS_PER_ENTRY * BITS_PER_WORD  # 256


@lru_cache(maxsize=None)
def _truncated_binomial_cdf(width: int) -> np.ndarray:
    """CDF of Binomial(width, 1/2) conditioned on >= 2, support 2..width.

    ``2 + searchsorted(cdf, u, side="right")`` inverts it, so a severity
    of at least two bits costs one uniform and no rejection loop.
    """
    weights = np.array(
        [math.comb(width, k) for k in range(2, width + 1)], dtype=np.float64
    )
    return np.cumsum(weights / weights.sum())


def _power_law_breadths(u: np.ndarray, alpha: float, cap: int) -> np.ndarray:
    """Truncated discrete power law starting at 2 entries (Figure 4b's
    long tail), by inverse CDF: one uniform per breadth."""
    raw = 2.0 * np.power(1.0 - u, -1.0 / alpha)
    clipped = np.minimum(raw, float(cap))
    return np.clip(np.floor(clipped), 2, cap).astype(np.int64)


def _floor_scaled(u: np.ndarray, n: int) -> np.ndarray:
    """``floor(u * n)`` — a rejection-free Uniform{0..n-1} from u in [0,1)."""
    return np.floor(u * n).astype(np.int64)


def _inverse_permutations(uniforms: np.ndarray) -> np.ndarray:
    """Per-row inverse argsort ranks of ``(rows, k)`` uniforms.

    Row element ``w`` has rank ``< m`` exactly when ``w`` is among the
    first ``m`` picks of a without-replacement draw, so ``rank < m`` masks
    the chosen items in ascending order.  Stable kind pins the (measure
    zero) tie behaviour so scalar and vectorized paths always agree.
    """
    perm = np.argsort(uniforms, axis=-1, kind="stable")
    # Inverting a permutation needs a scatter, not a second sort.
    ranks = np.empty_like(perm)
    np.put_along_axis(
        ranks, perm,
        np.broadcast_to(np.arange(perm.shape[-1]), perm.shape),
        axis=-1,
    )
    return ranks


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


def _breadth_tails(params: EventParameters) -> dict[int, tuple[float, int]]:
    """Power-law ``(alpha, cap)`` per multi-entry class code."""
    return {1: (params.sbme_breadth_alpha, params.sbme_breadth_max),
            3: (params.mbme_breadth_alpha, params.mbme_breadth_max)}


def _site_layout(
    geometry: HBM2Geometry,
    params: EventParameters,
    class_cdf: np.ndarray,
    rngs: dict,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class codes, per-site event index and entry of ``n`` events.

    The head of the vectorized synthesis: everything decided by the
    ``klass``/``breadth``/``place`` phase streams, before any mode or
    severity draw touches the other streams.  The shm engine's scout
    sweep replays exactly this — entry placement depends on nothing
    downstream — so its entry multiset matches the synthesized flips
    site-for-site.
    """
    per_bank = geometry.entries_per_bank
    codes = np.minimum(
        np.searchsorted(class_cdf, rngs["klass"].random(n), side="right"),
        3,
    ).astype(np.int64)

    # breadth: one uniform per event (unused for single-entry classes)
    u_breadth = rngs["breadth"].random(n)
    breadth = np.ones(n, dtype=np.int64)
    for code, (alpha, cap) in _breadth_tails(params).items():
        tail = codes == code
        breadth[tail] = _power_law_breadths(u_breadth[tail], alpha, cap)
    breadth = np.minimum(breadth, per_bank)

    # place: (u_site, u_off) per event; a multi-entry run stays in the
    # bank of its random start (Section 5's logic faults are bank-local)
    u_place = rngs["place"].random(2 * n).reshape(n, 2)
    first_entry = _floor_scaled(u_place[:, 0], geometry.total_entries)
    bank_start = (first_entry // per_bank) * per_bank
    offset = np.floor(
        u_place[:, 1] * (per_bank - breadth + 1)
    ).astype(np.int64)
    base_entry = np.where(breadth > 1, bank_start + offset, first_entry)

    # sites: one row per (event, entry)
    site_event = np.repeat(np.arange(n, dtype=np.int64), breadth)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(breadth, out=starts[1:])
    within = np.arange(site_event.size, dtype=np.int64) - np.repeat(
        starts[:-1], breadth
    )
    site_entry = base_entry[site_event] + within
    return codes, site_event, site_entry


#: plain multi-bit words per slice of the offset pick: bounds its
#: ``(rows, width)`` gather, sort and mask (and the slice's ``off`` draw)
#: to a few MiB however broad an event is
_SLICE_ROWS = 8192


def _flip_parts(
    params: EventParameters,
    rngs: dict,
    codes: np.ndarray,
    site_event: np.ndarray,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """The flips of laid-out sites: ``(site, bit)`` parts, flips per site.

    The tail of the vectorized synthesis: the ``mode``/``words``/``pick``/
    ``sev``/``off`` draws and the picks they make.  Each part ascends by
    ``(site, bit)`` — ``nonzero`` is row-major and word and offset bases
    ascend — and the parts cover disjoint site sets: a site is single-bit
    xor pin xor plain multi-bit, and the plain words are cut into slices
    between sites, never inside one, then split by their event's width.
    :func:`_merge_flips` relies on exactly this.
    """
    n = codes.size
    is_mbse = codes == 2
    is_mb = is_mbse | (codes == 3)

    # mode: (u_bit, u_pin, u_align, u_col) per event
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

    # words: one uniform per multi-bit site (pin events have one site)
    site_is_mb = is_mb[site_event]
    mb_sites = np.nonzero(site_is_mb)[0]
    mb_event = site_event[mb_sites]
    u_words = rngs["words"].random(mb_sites.size)
    cum_ba = np.cumsum(np.asarray(params.byte_aligned_words_dist))
    cum_na = np.cumsum(np.asarray(params.non_aligned_words_dist))
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

    # pick: four uniforms per multi-bit site select its affected words
    u_pick = rngs["pick"].random(4 * mb_sites.size).reshape(-1, 4)
    word_sel = _smallest_mask(u_pick, nw)
    pin_site = is_pin[mb_event]

    # single-bit sites: one flip each (SBME repeats the cell column)
    sb_sites = np.nonzero(~site_is_mb)[0]
    parts = [(sb_sites, sb_bit[site_event[sb_sites]])]

    # pin sites: the same within-word bit across the selected words
    p_site, p_word = np.nonzero(word_sel & pin_site[:, None])
    parts.append((mb_sites[p_site],
                  p_word * BITS_PER_WORD + pin_bit[mb_event[p_site]]))

    # plain words, (event, site, word) ascending
    w_row, w_word = np.nonzero(word_sel & ~pin_site[:, None])
    w_site = mb_sites[w_row]
    w_event = mb_event[w_row]
    w_aligned = aligned[w_event]
    w_width = np.where(w_aligned, 8, BITS_PER_WORD)
    w_base = w_word * BITS_PER_WORD + np.where(
        w_aligned, byte_col[w_event] * 8, 0
    )

    # sev: (u_inv, u_sparse, u_count) per plain multi-bit word
    u_sev = rngs["sev"].random(3 * w_site.size).reshape(-1, 3)
    sparse = ~w_aligned & (u_sev[:, 1] < params.sparse_severity_fraction)
    binom = np.minimum(
        2 + np.where(
            w_aligned,
            np.searchsorted(_truncated_binomial_cdf(8), u_sev[:, 2],
                            side="right"),
            np.searchsorted(_truncated_binomial_cdf(BITS_PER_WORD),
                            u_sev[:, 2], side="right"),
        ),
        w_width,
    )
    count = np.where(
        u_sev[:, 0] < params.inversion_fraction,
        w_width,
        np.where(sparse, 2 + _floor_scaled(u_sev[:, 2], 3), binom),
    ).astype(np.int64)

    # off: ``width`` uniforms per plain word pick its flipped offsets.
    # Slices start at the first word of a site, so each holds at most
    # _SLICE_ROWS words; the draws are consecutive, so drawing per slice
    # replays the one sized draw.
    step = _SLICE_ROWS - (WORDS_PER_ENTRY - 1)
    cuts = np.r_[np.searchsorted(w_site, w_site[::step]), w_site.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        off_starts = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(w_width[lo:hi], out=off_starts[1:])
        u_off = rngs["off"].random(int(off_starts[-1]))
        for width, cond in ((8, w_aligned), (BITS_PER_WORD, ~w_aligned)):
            group = np.nonzero(cond[lo:hi])[0]
            if not group.size:
                continue
            # a word's uniforms are one window of the slice's draw
            block = sliding_window_view(u_off, width)[off_starts[group]]
            sel = _smallest_mask(block, count[lo + group])
            # one flat nonzero is cheaper than the 2-D (row, col) form
            g_row, g_off = np.divmod(np.flatnonzero(sel), width)
            rows = lo + group
            parts.append((w_site[rows][g_row], w_base[rows][g_row] + g_off))

    # a plain word flips exactly ``count`` offsets, a pin site one bit in
    # each of its ``nw`` words
    flips_per_site = np.bincount(
        w_site, weights=count, minlength=site_event.size
    ).astype(np.int64)
    flips_per_site[sb_sites] = 1
    flips_per_site[mb_sites[pin_site]] = nw[pin_site]
    return parts, flips_per_site


def _merge_flips(parts, flips_per_site: np.ndarray, dtype) -> np.ndarray:
    """The bits of :func:`_flip_parts`-shaped parts in ``(site, bit)`` order.

    Each part ascends by ``(site, bit)`` and the parts cover disjoint site
    sets, so a counting scatter places every site's run at its offset:
    no sort, and nothing held beyond the parts and the output.
    """
    flip_offset = np.zeros(flips_per_site.size + 1, dtype=np.int64)
    np.cumsum(flips_per_site, dtype=np.int64, out=flip_offset[1:])
    flip_bit = np.empty(int(flip_offset[-1]), dtype=dtype)
    for sites, bits in parts:
        run_first = np.flatnonzero(np.r_[True, sites[1:] != sites[:-1]])
        within = np.arange(sites.size, dtype=np.int64) - np.repeat(
            run_first, np.diff(np.r_[run_first, sites.size])
        )
        flip_bit[flip_offset[sites] + within] = bits
    return flip_bit


def interval_class_mixture(
    parameters: EventParameters, utilization: float
) -> tuple[float, tuple[float, float, float, float]]:
    """Total arrival rate and class mixture at a DRAM utilization.

    ``utilization`` models the Section-5 DRAM-utilization sweep: narrow
    array errors (SBSE/SBME — direct bitcell strikes) accrue with exposure
    *time*, while broad-and-severe logic errors (MBSE/MBME — strikes in the
    access path) only manifest on memory *accesses*, so their rate scales
    with the benchmark's utilization.  The default class mixture
    corresponds to full utilization.
    """
    if not 0.0 <= utilization <= 1.0:
        raise ValueError("utilization must be in [0, 1]")
    base = parameters.class_probabilities
    array_rate = (base[0] + base[1]) / parameters.mean_time_to_event_s
    logic_rate = (
        (base[2] + base[3]) * utilization / parameters.mean_time_to_event_s
    )
    total_rate = array_rate + logic_rate
    if total_rate <= 0.0:
        return 0.0, (0.0, 0.0, 0.0, 0.0)
    probabilities = (
        base[0] / (base[0] + base[1]) * array_rate / total_rate,
        base[1] / (base[0] + base[1]) * array_rate / total_rate,
        (base[2] / (base[2] + base[3]) * logic_rate / total_rate
         if logic_rate else 0.0),
        (base[3] / (base[2] + base[3]) * logic_rate / total_rate
         if logic_rate else 0.0),
    )
    return total_rate, probabilities


class BatchEventSynthesis:
    """Columnar SEU synthesis over the phase-streamed draw plan.

    Construct two instances with the same seed and make the same calls in
    the same order, and :meth:`table_at` (vectorized) and :meth:`events_at`
    (scalar oracle) consume identical random streams and produce identical
    events — the equivalence the batch-synthesis tests assert.
    """

    def __init__(
        self,
        geometry: HBM2Geometry | None = None,
        parameters: EventParameters | None = None,
        *,
        seed: int | np.random.SeedSequence = 7,
    ) -> None:
        self.geometry = geometry or HBM2Geometry.for_gpu(32)
        self.parameters = parameters or EventParameters()
        self._seq = (
            seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )

    # -- stream plumbing ---------------------------------------------------
    def _phase_rngs(self) -> dict[str, np.random.Generator]:
        children = self._seq.spawn(len(_PHASES))
        return {
            name: np.random.default_rng(child)
            for name, child in zip(_PHASES, children)
        }

    def _class_cdf(self, probabilities) -> np.ndarray:
        return np.cumsum(np.asarray(
            probabilities or self.parameters.class_probabilities,
            dtype=np.float64,
        ))

    # -- arrivals ----------------------------------------------------------
    def _arrival_times(
        self,
        rng: np.random.Generator,
        duration_s: float,
        start_time_s: float,
        total_rate: float,
        *,
        batch: bool,
    ) -> np.ndarray:
        """Poisson arrival instants in ``[start, start + duration)``.

        Both paths accept ``start + cumsum(exponentials) < start + duration``;
        the batch path re-cumsums the concatenated draws from zero each
        extension so its partial sums associate exactly like the scalar
        path's running ``acc += e``.
        """
        if total_rate <= 0.0 or duration_s <= 0.0:
            return np.empty(0, dtype=np.float64)
        end = start_time_s + duration_s
        scale = 1.0 / total_rate
        if batch:
            expected = duration_s * total_rate
            block = max(16, int(expected * 1.5) + 8)
            draws: list[np.ndarray] = []
            while True:
                draws.append(rng.exponential(scale, size=block))
                cum = np.cumsum(np.concatenate(draws))
                if cum[-1] >= duration_s:
                    times = start_time_s + cum
                    return times[times < end]
        times_list: list[float] = []
        acc = 0.0
        while True:
            acc += float(rng.exponential(scale))
            clock = start_time_s + acc
            if clock >= end:
                return np.array(times_list, dtype=np.float64)
            times_list.append(clock)

    # -- public API --------------------------------------------------------
    def interval_table(self, duration_s: float, start_time_s: float = 0.0,
                       utilization: float = 1.0):
        """Poisson arrivals over an in-beam interval, as a ``FlipTable``
        (class mixture and rate from :func:`interval_class_mixture`)."""
        return self._interval(duration_s, start_time_s, utilization,
                              batch=True)

    def interval_events(self, duration_s: float, start_time_s: float = 0.0,
                        utilization: float = 1.0) -> list[SoftErrorEvent]:
        """Scalar oracle for :meth:`interval_table` (same streams)."""
        return self._interval(duration_s, start_time_s, utilization,
                              batch=False)

    def _interval(self, duration_s, start_time_s, utilization, *, batch):
        rngs = self._phase_rngs()
        rate, probabilities = interval_class_mixture(
            self.parameters, utilization
        )
        times = self._arrival_times(
            rngs["arrival"], duration_s, start_time_s, rate, batch=batch
        )
        synthesize = self._table if batch else self._events
        return synthesize(rngs, times, probabilities)

    def table_at(self, times, class_probabilities=None):
        """Synthesize one event per entry of ``times``, vectorized."""
        rngs = self._phase_rngs()
        return self._table(
            rngs, np.asarray(times, dtype=np.float64), class_probabilities
        )

    def events_at(self, times, class_probabilities=None
                  ) -> list[SoftErrorEvent]:
        """Scalar oracle for :meth:`table_at` (same streams)."""
        rngs = self._phase_rngs()
        return self._events(
            rngs, np.asarray(times, dtype=np.float64), class_probabilities
        )

    # -- vectorized core ---------------------------------------------------
    def _table(self, rngs, times: np.ndarray, class_probabilities):
        from repro.beam.fliptable import FlipTable

        codes, site_event, site_entry = _site_layout(
            self.geometry, self.parameters,
            self._class_cdf(class_probabilities), rngs, times.size,
        )
        parts, flips_per_site = _flip_parts(
            self.parameters, rngs, codes, site_event
        )
        return FlipTable.from_flips(
            site_event, site_entry, flips_per_site,
            _merge_flips(parts, flips_per_site, np.int64),
            n_events=times.size,
            event_columns={"time_s": times.copy(), "class_code": codes},
        )

    # -- scalar oracle core ------------------------------------------------
    def _events(self, rngs, times: np.ndarray, class_probabilities
                ) -> list[SoftErrorEvent]:
        params = self.parameters
        geometry = self.geometry
        per_bank = geometry.entries_per_bank
        class_cdf = self._class_cdf(class_probabilities)
        classes = list(EventClass)
        tails = _breadth_tails(params)
        cum_ba = np.cumsum(np.asarray(params.byte_aligned_words_dist))
        cum_na = np.cumsum(np.asarray(params.non_aligned_words_dist))
        cdf_by_width = {
            8: _truncated_binomial_cdf(8),
            BITS_PER_WORD: _truncated_binomial_cdf(BITS_PER_WORD),
        }

        events: list[SoftErrorEvent] = []
        for time_s in times:
            code = min(int(np.searchsorted(
                class_cdf, rngs["klass"].random(), side="right"
            )), 3)
            u_breadth = rngs["breadth"].random()
            breadth = 1
            if code in tails:
                breadth = int(_power_law_breadths(
                    np.array([u_breadth]), *tails[code]
                )[0])
            breadth = min(breadth, per_bank)

            u_site, u_off = rngs["place"].random(2)
            first_entry = int(np.floor(u_site * geometry.total_entries))
            if breadth > 1:
                bank_start = (first_entry // per_bank) * per_bank
                base_entry = bank_start + int(
                    np.floor(u_off * (per_bank - breadth + 1))
                )
            else:
                base_entry = first_entry

            u_bit, u_pin, u_align, u_col = rngs["mode"].random(4)
            is_mb = code in (2, 3)
            is_pin = code == 2 and u_pin < params.pin_fault_fraction
            aligned = (
                is_mb and not is_pin and u_align < params.byte_aligned_fraction
            )
            byte_col = int(np.floor(u_col * (BITS_PER_WORD // 8))) \
                if aligned else -1

            flips: dict[int, np.ndarray] = {}
            for index in range(breadth):
                entry = base_entry + index
                if not is_mb:
                    bit = int(np.floor(u_bit * _DATA_BITS))
                    flips[entry] = np.array([bit], dtype=np.int64)
                    continue
                u_words = rngs["words"].random()
                if is_pin:
                    nw = 2 + int(np.floor(u_words * (WORDS_PER_ENTRY - 1)))
                else:
                    nw = 1 + min(int(np.searchsorted(
                        cum_ba if aligned else cum_na, u_words, side="right"
                    )), WORDS_PER_ENTRY - 1)
                rank = _inverse_permutations(rngs["pick"].random(4))
                words = np.nonzero(rank < nw)[0]
                if is_pin:
                    bit = int(np.floor(u_bit * BITS_PER_WORD))
                    flips[entry] = np.array(
                        [int(word) * BITS_PER_WORD + bit for word in words],
                        dtype=np.int64,
                    )
                    continue
                width = 8 if aligned else BITS_PER_WORD
                positions: list[int] = []
                for word in words:
                    u_inv, u_sparse, u_count = rngs["sev"].random(3)
                    if u_inv < params.inversion_fraction:
                        count = width
                    elif (
                        not aligned
                        and u_sparse < params.sparse_severity_fraction
                    ):
                        count = 2 + int(np.floor(u_count * 3))
                    else:
                        count = min(2 + int(np.searchsorted(
                            cdf_by_width[width], u_count, side="right"
                        )), width)
                    off_rank = _inverse_permutations(
                        rngs["off"].random(width)
                    )
                    offsets = np.nonzero(off_rank < count)[0]
                    base = int(word) * BITS_PER_WORD + (
                        byte_col * 8 if aligned else 0
                    )
                    positions.extend(base + int(o) for o in offsets)
                flips[entry] = np.array(sorted(positions), dtype=np.int64)
            events.append(SoftErrorEvent(
                time_s=float(time_s),
                event_class=classes[code],
                flips=flips,
            ))
        return events


class SoftErrorEventGenerator(BatchEventSynthesis):
    """Scalar front over :class:`BatchEventSynthesis`, kept for the public
    API: every call draws from the synthesizer's next seed spawn."""

    def generate_event(self, time_s: float, class_probabilities=None
                       ) -> SoftErrorEvent:
        """One event at ``time_s``; an explicit class mixture overrides the
        default."""
        return self.events_at([time_s], class_probabilities)[0]

    #: Poisson arrivals over an in-beam interval (see ``interval_events``)
    events_in = BatchEventSynthesis.interval_events
