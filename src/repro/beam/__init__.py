"""Neutron-beam testing substrate: flux, damage, events, microbenchmark."""

from repro.beam.ancode import AN_CONSTANT, an_check, an_decode, an_encode
from repro.beam.campaign import BeamCampaign, CampaignConfig, CampaignResult, refresh_sweep
from repro.beam.displacement import DamageParameters, DisplacementDamageModel
from repro.beam.engine import (
    ENGINES,
    StatisticsResult,
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
from repro.beam.fliptable import FlipTable
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
    ObservedEvent,
    breadth_class_fractions,
    bits_per_word_histogram,
    byte_alignment_stats,
    derive_table1,
    filter_intermittent,
    group_events,
    mbme_breadth_histogram,
)

__all__ = [
    "AN_CONSTANT", "an_check", "an_decode", "an_encode",
    "BeamCampaign", "CampaignConfig", "CampaignResult", "refresh_sweep",
    "DamageParameters", "DisplacementDamageModel",
    "ENGINES", "StatisticsResult", "run_statistics_campaign",
    "BatchEventSynthesis", "interval_class_mixture",
    "EventClass", "EventParameters", "SoftErrorEvent", "SoftErrorEventGenerator",
    "FlipTable",
    "CHIPIR_FLUX", "TERRESTRIAL_FLUX", "FluenceClock", "acceleration_factor",
    "ANPattern", "CheckerboardPattern", "DataPattern", "Microbenchmark",
    "MismatchRecord", "STANDARD_PATTERNS", "UniformPattern",
    "FilterResult", "ObservedEvent",
    "breadth_class_fractions", "bits_per_word_histogram",
    "byte_alignment_stats", "derive_table1",
    "filter_intermittent", "group_events", "mbme_breadth_histogram",
]
