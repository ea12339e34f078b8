"""Small shared numpy-array helpers.

The engines accumulate per-chunk output blocks in Python lists and stitch
them together at a merge point; every one of those merge points needs the
same two-line dance (``np.concatenate`` unless the list is empty, in which
case a *typed* empty array — ``np.concatenate([])`` raises).  This module
is the one home for that dance so the engine, transport and table code
stop growing private ``_cat`` clones.  It also holds ``sorted_unique``,
which the device scan and the dedupe index use in place of ``np.unique``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["concat_or_empty", "sorted_unique"]


def concat_or_empty(parts: list, dtype, *, consume: bool = False) -> np.ndarray:
    """``np.concatenate(parts)``, or an empty ``dtype`` array for no parts.

    With ``consume=True`` the input list is cleared after stacking, so the
    per-part blocks become garbage immediately — the memory-footprint
    contract the fused range pass relies on when it folds chunk outputs.
    """
    if not parts:
        return np.empty(0, dtype=dtype)
    stacked = np.concatenate(parts)
    if consume:
        parts.clear()
    return stacked


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` for int64 by sort and run-start mask (numpy's own
    imports ``numpy.ma`` on first use, a cost a short CLI run notices)."""
    values = np.sort(values)
    if values.size > 1:
        values = values[np.r_[True, values[1:] != values[:-1]]]
    return values
