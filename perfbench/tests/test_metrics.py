"""Percentile rule, unit labels and failure accounting."""

import json
from pathlib import Path

import pytest

from metrics import (
    END_TO_END,
    MIN_BEYOND,
    PER_LAYER,
    UNITS,
    Tally,
    TooFewSamples,
    metric,
    percentile,
    result_line,
    rss_mib_from_kib,
    samples_beyond,
)

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class TestPercentileRule:
    def test_median_needs_twenty_samples(self):
        assert samples_beyond(20, 0.5) == MIN_BEYOND
        assert percentile(range(20), 0.5) == 9
        with pytest.raises(TooFewSamples):
            percentile(range(19), 0.5)

    def test_p90_needs_a_hundred_samples(self):
        assert percentile(range(100), 0.9) == 89
        with pytest.raises(TooFewSamples):
            percentile(range(99), 0.9)

    def test_order_of_input_is_irrelevant(self):
        values = list(range(200))
        assert percentile(reversed(values), 0.9) == percentile(values, 0.9)

    def test_rejects_degenerate_quantiles(self):
        with pytest.raises(ValueError):
            samples_beyond(100, 1.0)


class TestUnits:
    def test_every_metric_carries_its_fixed_unit(self):
        assert metric("peak_rss_mib", 123.0) == {"value": 123.0,
                                                 "unit": "MiB"}
        assert metric("work_per_s", 2.5)["unit"] == "1/s"
        assert metric("runs.store.save.calls", 3)["unit"] == "count"

    def test_unknown_names_and_non_finite_values_are_refused(self):
        with pytest.raises(KeyError):
            metric("peak_rss_mb", 1.0)
        with pytest.raises(ValueError):
            metric("wall_s", float("nan"))

    def test_rss_is_converted_from_kib(self):
        assert rss_mib_from_kib(2048) == 2.0

    def test_benchmark_json_declares_exactly_the_emitted_metrics(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        assert declared == {name: UNITS[name] for name in END_TO_END}
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        assert declared == {name: UNITS[name] for name in PER_LAYER}


class TestTally:
    def test_wrong_output_counts_as_failed(self):
        tally = Tally()
        tally.record(True)
        tally.record(False, "SDC 9.0% where the reference has none")
        tally.record(True)
        tally.record(True)
        assert (tally.attempted, tally.failed) == (4, 1)
        assert tally.failed_frac == 0.25
        assert not tally.correct
        line = result_line(tally, {})
        assert (line["attempted"], line["failed"], line["correct"]) == \
            (4, 1, False)

    def test_run_level_failure_fails_every_operation(self):
        tally = Tally()
        for _ in range(5):
            tally.record(True)
        tally.fail_all("store hits/misses 7/0, a cold store gives 0/7")
        assert tally.failed_frac == 1.0
        assert not tally.correct

    def test_clean_run(self):
        tally = Tally()
        tally.record(True)
        assert tally.correct and tally.failed_frac == 0.0
        assert set(result_line(tally, {})) == {"correct", "attempted",
                                               "failed", "metrics"}

    def test_nothing_attempted_is_not_correct(self):
        line = result_line(Tally(), {})
        assert line["attempted"] == 1 and line["failed"] == 1
        assert not line["correct"]
