"""Streaming mergeable statistics (`repro.stats`).

Bounded-memory campaign analytics: :class:`CampaignAccumulator` holds
every Figure 4/5 and Table 1 statistic as fixed-size integer tallies with
an exact (associative, commutative) ``merge``; :class:`EntryOccupancy`
answers the global intermittent-filter question in a sorted entry set,
or one bit per device entry once that is smaller; :mod:`repro.stats.table1` is the canonical tally → float helper
shared with the materialized oracles in :mod:`repro.beam.postprocess`.
"""

from repro.stats.accumulators import STATS_KEYS, CampaignAccumulator
from repro.stats.dedupe import EntryOccupancy
from repro.stats.table1 import merge_tallies, table1_tally, table1_weights

__all__ = [
    "CampaignAccumulator",
    "EntryOccupancy",
    "STATS_KEYS",
    "merge_tallies",
    "table1_tally",
    "table1_weights",
]
