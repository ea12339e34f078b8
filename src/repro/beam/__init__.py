"""Neutron-beam testing substrate: flux, damage, events, microbenchmark."""

from repro.beam.ancode import AN_CONSTANT, an_check, an_decode, an_encode
from repro.beam.campaign import BeamCampaign, CampaignConfig, CampaignResult, refresh_sweep
from repro.beam.displacement import DamageParameters, DisplacementDamageModel
from repro.beam.engine import (
    ENGINES,
    StatisticsResult,
    resolve_stats_mode,
    run_statistics_campaign,
)
from repro.beam.events import (
    BatchEventSynthesis,
    EventClass,
    EventParameters,
    SoftErrorEvent,
    SoftErrorEventGenerator,
    interval_class_mixture,
)
from repro.beam.fliptable import FlipTable, RecordTable
from repro.beam.flux import CHIPIR_FLUX, TERRESTRIAL_FLUX, FluenceClock, acceleration_factor
from repro.beam.microbenchmark import (
    ANPattern,
    CheckerboardPattern,
    DataPattern,
    Microbenchmark,
    MismatchRecord,
    STANDARD_PATTERNS,
    UniformPattern,
)
from repro.beam.postprocess import (
    FilterResult,
    FilterTableResult,
    ObservedEvent,
    breadth_class_fractions,
    breadth_class_fractions_table,
    bits_per_word_histogram,
    bits_per_word_histogram_table,
    byte_alignment_stats,
    byte_alignment_stats_table,
    derive_table1,
    derive_table1_table,
    filter_intermittent,
    filter_intermittent_table,
    group_events,
    group_events_table,
    mbme_breadth_histogram,
    mbme_breadth_histogram_table,
)

__all__ = [
    "AN_CONSTANT", "an_check", "an_decode", "an_encode",
    "BeamCampaign", "CampaignConfig", "CampaignResult", "refresh_sweep",
    "DamageParameters", "DisplacementDamageModel",
    "ENGINES", "StatisticsResult", "resolve_stats_mode",
    "run_statistics_campaign",
    "BatchEventSynthesis", "interval_class_mixture",
    "EventClass", "EventParameters", "SoftErrorEvent", "SoftErrorEventGenerator",
    "FlipTable", "RecordTable",
    "CHIPIR_FLUX", "TERRESTRIAL_FLUX", "FluenceClock", "acceleration_factor",
    "ANPattern", "CheckerboardPattern", "DataPattern", "Microbenchmark",
    "MismatchRecord", "STANDARD_PATTERNS", "UniformPattern",
    "FilterResult", "FilterTableResult", "ObservedEvent",
    "breadth_class_fractions", "breadth_class_fractions_table",
    "bits_per_word_histogram", "bits_per_word_histogram_table",
    "byte_alignment_stats", "byte_alignment_stats_table",
    "derive_table1", "derive_table1_table",
    "filter_intermittent", "filter_intermittent_table",
    "group_events", "group_events_table",
    "mbme_breadth_histogram", "mbme_breadth_histogram_table",
]
