"""Canonical Table-1 weight computation from integer pattern tallies.

Table 1 weights each *event* equally: an event of breadth ``b`` gives
every one of its ``b`` per-entry patterns a ``1/b`` share.  Accumulating
those float shares in site order would make the result depend on event
ordering — harmless within one pass, but fatal for an engine that folds
arbitrary range splits and must stay float-identical to the scalar
oracle.

The canonical form factors the float work out of the accumulation
entirely: both definitions first count **integers** — how many sites of
pattern code ``c`` belong to events of breadth ``b`` — and only then
convert the tally to float weights here, with one fixed summation order
(ascending breadth within each pattern, patterns in ``PATTERN_ORDER``).
Integer tallies merge exactly (addition is associative), so
:class:`repro.stats.CampaignAccumulator` — the definition, streamed or
merged in any order — and the scalar oracle
:func:`repro.beam.postprocess.derive_table1` produce bit-identical
Table-1 probabilities by construction.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.errormodel.classify import PATTERN_ORDER
from repro.errormodel.patterns import ErrorPattern

__all__ = ["table1_tally", "table1_weights"]


def table1_tally(codes: np.ndarray, breadths: np.ndarray) -> Counter:
    """Integer site tally keyed by ``(pattern_code, event_breadth)``.

    ``codes`` is one pattern code per site (an index into
    ``PATTERN_ORDER``) and ``breadths`` the owning event's breadth per
    site, aligned element-wise.
    """
    codes = np.asarray(codes)
    breadths = np.asarray(breadths)
    if codes.size != breadths.size:
        raise ValueError("codes and breadths must align per site")
    tally: Counter = Counter()
    if not codes.size:
        return tally
    # one pass over the distinct (code, breadth) pairs, not the sites
    span = int(breadths.max()) + 1
    keys, counts = np.unique(
        codes.astype(np.int64) * span + breadths.astype(np.int64),
        return_counts=True,
    )
    for key, count in zip(keys.tolist(), counts.tolist()):
        tally[(key // span, key % span)] = count
    return tally


def table1_weights(tally) -> dict[ErrorPattern, float]:
    """Normalized Table-1 probabilities from an integer tally.

    The float accumulation order is fixed — per pattern, ascending
    breadth; the normalizing total in ``PATTERN_ORDER`` — so any two
    tallies with equal counts yield bit-identical probabilities.
    """
    per_code: dict[int, list[tuple[int, int]]] = {}
    for (code, breadth), count in tally.items():
        if count:
            per_code.setdefault(int(code), []).append(
                (int(breadth), int(count))
            )
    weights = []
    for code in range(len(PATTERN_ORDER)):
        acc = 0.0
        for breadth, count in sorted(per_code.get(code, ())):
            acc += count * (1.0 / breadth)
        weights.append(acc)
    total = 0.0
    for weight in weights:
        total += weight
    if total <= 0.0:
        raise ValueError("no events to classify")
    return {
        pattern: weight / total
        for pattern, weight in zip(PATTERN_ORDER, weights)
    }
