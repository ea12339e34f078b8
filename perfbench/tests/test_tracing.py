"""Span recording, and complete removal of the wrappers afterwards."""

import types

import pytest

from tracing import (
    MARK,
    Patches,
    SpanLog,
    install_repro_layers,
    layer_metrics,
    leftover_wrappers,
    union_seconds,
)


class Thing:
    def method(self, n):
        return n + 1

    @property
    def value(self):
        return 42


def test_union_merges_overlaps_and_clips():
    assert union_seconds([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_seconds([(0, 10)], lo=2, hi=5) == 3
    assert union_seconds([]) == 0


def test_nested_calls_of_one_layer_are_recorded_once():
    log = SpanLog()

    def inner():
        return 1

    wrapped_inner = log.wrap("layer", inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    assert log.wrap("layer", outer)() == 2
    assert log.calls["layer"] == 1
    assert len(log.spans) == 1


def test_span_is_recorded_when_the_call_raises():
    log = SpanLog()

    def boom():
        raise RuntimeError

    with pytest.raises(RuntimeError):
        log.wrap("layer", boom)()
    assert log.calls["layer"] == 1
    assert not log._active()["layer"]


def test_patches_restore_modules_classes_instances_and_properties():
    module = types.ModuleType("fake")
    module.function = lambda: "original"
    original_function = module.function
    original_method = Thing.__dict__["method"]
    original_property = Thing.__dict__["value"]
    thing = Thing()
    log, patches = SpanLog(), Patches()
    patches.replace(module, "function", log.wrap("a", module.function))
    patches.replace(Thing, "method", log.wrap("b", Thing.method))
    patches.replace(thing, "method", log.wrap("c", thing.method))
    patches.replace(Thing, "value", property(log.wrap("d", Thing.value.fget)))
    assert module.function() == "original" and thing.method(1) == 2
    assert Thing().value == 42
    assert len(leftover_wrappers(patches.targets)) == 4

    targets = patches.targets
    patches.restore()
    assert leftover_wrappers(targets) == []
    assert module.function is original_function
    assert Thing.__dict__["method"] is original_method
    assert Thing.__dict__["value"] is original_property
    assert "method" not in vars(thing)


def test_repro_layers_are_fully_removed():
    """After the traced leg, the untraced code paths are the originals."""
    import repro.beam
    import repro.errormodel.montecarlo as montecarlo
    from repro.beam.engine import StatisticsResult
    from repro.core.registry import SCHEME_NAMES, get_scheme
    from repro.runs.store import RunStore

    def snapshot():
        return {
            "evaluate_pattern": montecarlo.evaluate_pattern,
            "engine": repro.beam.run_statistics_campaign,
            "derive_table1": repro.beam.derive_table1,
            "observed": vars(StatisticsResult)["observed_events"],
            "save_cell": vars(RunStore)["save_cell"],
            "instances": {name: "decode_batch_packed" in
                          vars(get_scheme(name)) for name in SCHEME_NAMES},
        }

    before = snapshot()
    log, patches = SpanLog(), Patches()
    install_repro_layers(log, patches)
    assert hasattr(montecarlo.evaluate_pattern, MARK)
    assert all(
        hasattr(get_scheme(name).decode_batch_packed, MARK)
        for name in SCHEME_NAMES)
    targets = patches.targets
    assert len(leftover_wrappers(targets)) == len(targets)
    patches.restore()
    assert leftover_wrappers(targets) == []
    after = snapshot()
    assert after["instances"] == before["instances"]
    for key in ("evaluate_pattern", "engine", "derive_table1", "observed",
                "save_cell"):
        assert after[key] is before[key], key


def test_layer_metrics_are_per_unit():
    log = SpanLog()
    log.spans = [("core.decode", 1, 0.0, 2.0), ("core.decode", 1, 3.0, 4.0)]
    log.counts["core.decode.rows"] = 300
    values = layer_metrics(log, units=3)
    assert values["core.decode.busy_s"] == 1.0
    assert values["core.decode.rows_per_s"] == 100.0
    assert values["beam.engine.busy_s"] == 0.0
