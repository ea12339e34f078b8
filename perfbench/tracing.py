"""Spans around calls into the program's public functions.

The traced run wraps a fixed list of functions in each layer of
``repro`` (see :func:`install_repro_layers`), records one span per
top-level call in memory, and puts every original back afterwards.
Nothing under ``src/`` changes: the wrappers live here and are installed
by attribute replacement on the modules, classes and registry instances
the command bodies look their callees up on.

A call into a layer that is already active on the same thread (a layer
function calling another function of the same layer) is not recorded
again, so a layer's busy time never counts one interval twice.  Spans of
different layers may nest; :func:`union_seconds` measures how much wall
time any layer covered.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import Counter, defaultdict

#: attribute set on every wrapper, so a leftover one can be recognised
MARK = "__perfbench_layer__"


class SpanLog:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self) -> None:
        #: (layer, thread id, start, end) in ``time.perf_counter`` seconds
        self.spans: list[tuple[str, int, float, float]] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.sums: defaultdict = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _active(self) -> Counter:
        active = getattr(self._local, "active", None)
        if active is None:
            active = self._local.active = Counter()
        return active

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def add_seconds(self, name: str, seconds: float) -> None:
        with self._lock:
            self.sums[name] += seconds

    def wrap(self, layer: str, fn, on_result=None):
        """``fn`` recording a ``layer`` span per top-level call.

        ``on_result(log, args, kwargs, result)`` runs after a successful
        top-level call, outside the span, to count rows or read timings
        the program already reports.
        """
        log = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active = log._active()
            if active[layer]:
                return fn(*args, **kwargs)
            active[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                active[layer] -= 1
                with log._lock:
                    log.spans.append(
                        (layer, threading.get_ident(), start, end))
                    log.calls[layer] += 1
            if on_result is not None:
                on_result(log, args, kwargs, result)
            return result

        setattr(wrapper, MARK, layer)
        return wrapper

    def counter(self, name: str, fn, rows):
        """``fn`` adding ``rows(args, result)`` to count ``name``; no span."""
        log = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            log.add(name, rows(args, result))
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def busy(self, layer: str) -> float:
        return sum(end - start for name, _, start, end in self.spans
                   if name == layer)

    def merge(self, other: SpanLog) -> None:
        """Fold another log (one forked unit's) into this one."""
        self.spans.extend(other.spans)
        self.calls.update(other.calls)
        self.counts.update(other.counts)
        for name, seconds in other.sums.items():
            self.sums[name] += seconds

    def to_json(self) -> dict:
        return {
            "spans": [list(span) for span in self.spans],
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "sums": dict(self.sums),
        }

    @classmethod
    def from_json(cls, data: dict) -> SpanLog:
        log = cls()
        log.spans = [tuple(span) for span in data["spans"]]
        log.calls.update(data["calls"])
        log.counts.update(data["counts"])
        log.sums.update(data["sums"])
        return log


def union_seconds(intervals, lo: float | None = None,
                  hi: float | None = None) -> float:
    """Length of the union of ``(start, end)`` intervals, clipped to
    ``[lo, hi]`` when given."""
    clipped = []
    for start, end in intervals:
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, bool, object]] = []

    def replace(self, owner, name: str, new) -> None:
        own = vars(owner)
        had_own = name in own
        self._saved.append((owner, name, had_own, own.get(name)))
        setattr(owner, name, new)

    @property
    def targets(self) -> list[tuple[object, str]]:
        return [(owner, name) for owner, name, _, _ in self._saved]

    def restore(self) -> None:
        while self._saved:
            owner, name, had_own, original = self._saved.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def leftover_wrappers(targets) -> list[str]:
    """Names among ``targets`` that still resolve to a benchmark wrapper."""
    left = []
    for owner, name in targets:
        value = vars(owner).get(name, getattr(owner, name, None))
        if isinstance(value, property):
            value = value.fget
        if hasattr(value, MARK):
            left.append(f"{getattr(owner, '__name__', type(owner).__name__)}"
                        f".{name}")
    return left


# ---------------------------------------------------------------------------
# The program's layers
# ---------------------------------------------------------------------------

#: engine stages read back from ``StatisticsResult.trace``
ENGINE_STAGES = ("synthesize", "scan", "postprocess", "scout", "fold")
#: the functions the campaign command body post-processes events with
POSTPROCESS_FUNCTIONS = ("filter_intermittent", "group_events",
                         "breadth_class_fractions", "derive_table1")


def _rows(args, result) -> int:
    return int(result.shape[0])


def install_repro_layers(log: SpanLog, patches: Patches) -> None:
    """Wrap each layer's public entry points named in the README."""
    import repro.beam
    import repro.beam.engine
    import repro.beam.postprocess
    import repro.errormodel.montecarlo as montecarlo
    import repro.errormodel.sampling as sampling
    import repro.hardware.synth as synth
    from repro.beam.engine import StatisticsResult
    from repro.beam.events import SoftErrorEventGenerator
    from repro.core.registry import SCHEME_NAMES, get_scheme
    from repro.obs import stage_totals
    from repro.runs.store import RunStore
    from repro.stats import CampaignAccumulator

    # errormodel: the packed samplers the Monte Carlo cell calls, the
    # rejection classifier as bound inside the sampling module, and the
    # cell itself (its own elapsed_s counter is read back)
    def sampled(rejection: bool):
        def on_result(log, args, kwargs, result):
            log.add("errormodel.sample.rows", result.shape[0])
            if rejection:
                log.add("errormodel.sample.kept", result.shape[0])
        return on_result

    for name, rejection in (("sample_triple_bit_errors_packed", False),
                            ("sample_beat_errors_packed", True),
                            ("sample_entry_errors_packed", True)):
        patches.replace(montecarlo, name, log.wrap(
            "errormodel.sample", getattr(montecarlo, name),
            sampled(rejection)))
    patches.replace(sampling, "classify_errors_batch", log.counter(
        "errormodel.sample.classified", sampling.classify_errors_batch,
        _rows))

    def cell_elapsed(log, args, kwargs, outcome):
        kind = "exhaustive" if outcome.exhaustive else "sampled"
        log.add_seconds(f"errormodel.cell.{kind}_s", outcome.elapsed_s)

    patches.replace(montecarlo, "evaluate_pattern", log.wrap(
        "errormodel.cell", montecarlo.evaluate_pattern, cell_elapsed))

    # core: packed decode on the registry's cached scheme instances
    def decoded(log, args, kwargs, result):
        log.add("core.decode.rows", args[0].shape[0])

    for name in SCHEME_NAMES:
        scheme = get_scheme(name)
        patches.replace(scheme, "decode_batch_packed", log.wrap(
            "core.decode", scheme.decode_batch_packed, decoded))

    # beam
    patches.replace(SoftErrorEventGenerator, "generate_event", log.wrap(
        "beam.events", SoftErrorEventGenerator.generate_event))

    def engine_stages(log, args, kwargs, result):
        for stage, seconds in stage_totals(result.trace,
                                           ENGINE_STAGES).items():
            log.add_seconds(f"beam.engine.{stage}_s", seconds)

    engine_wrapper = log.wrap("beam.engine",
                              repro.beam.engine.run_statistics_campaign,
                              engine_stages)
    for module in (repro.beam, repro.beam.engine):
        patches.replace(module, "run_statistics_campaign", engine_wrapper)

    observed = vars(StatisticsResult)["observed_events"]
    patches.replace(StatisticsResult, "observed_events", property(
        log.wrap("beam.observed", observed.fget), doc=observed.__doc__))

    for name in POSTPROCESS_FUNCTIONS:
        wrapper = log.wrap("beam.postprocess",
                           getattr(repro.beam.postprocess, name))
        for module in (repro.beam, repro.beam.postprocess):
            patches.replace(module, name, wrapper)

    # stats
    for name in ("update_from_events", "update_from_flip_table", "merge",
                 "finalize"):
        patches.replace(CampaignAccumulator, name, log.wrap(
            "stats.accumulator", getattr(CampaignAccumulator, name)))

    # hardware
    patches.replace(synth, "table3_rows",
                    log.wrap("hardware.synth", synth.table3_rows))

    # runs: artifact and manifest reads/writes of the store
    for name, attribute in sorted(vars(RunStore).items()):
        if not inspect.isfunction(attribute):
            continue  # a static or class method would be re-bound wrongly
        if name.startswith("save_"):
            layer = "runs.store.save"
        elif name.startswith(("load_", "list_")):
            layer = "runs.store.load"
        else:
            continue
        patches.replace(RunStore, name, log.wrap(layer, attribute))


#: layers whose busy seconds are reported per unit of work
BUSY_LAYERS = ("errormodel.sample", "core.decode", "beam.events",
               "beam.engine", "beam.observed", "beam.postprocess",
               "stats.accumulator", "hardware.synth")


def layer_metrics(log: SpanLog, units: int) -> dict:
    """Per-layer values from one traced leg, per unit of work."""
    units = max(units, 1)
    values = {f"{layer}.busy_s": log.busy(layer) / units
              for layer in BUSY_LAYERS}
    sample_busy = log.busy("errormodel.sample")
    values["errormodel.sample.rows_per_s"] = (
        log.counts["errormodel.sample.rows"] / sample_busy
        if sample_busy else 0.0)
    classified = log.counts["errormodel.sample.classified"]
    values["errormodel.sample.accept_ratio"] = (
        log.counts["errormodel.sample.kept"] / classified
        if classified else 0.0)
    for kind in ("exhaustive", "sampled"):
        values[f"errormodel.cell.{kind}_s"] = \
            log.sums[f"errormodel.cell.{kind}_s"] / units
    decode_busy = log.busy("core.decode")
    values["core.decode.rows_per_s"] = (
        log.counts["core.decode.rows"] / decode_busy if decode_busy else 0.0)
    for stage in ENGINE_STAGES:
        values[f"beam.engine.{stage}_s"] = \
            log.sums[f"beam.engine.{stage}_s"] / units
    for kind in ("save", "load"):
        layer = f"runs.store.{kind}"
        values[f"{layer}.calls"] = log.calls[layer] / units
        values[f"{layer}.busy_s"] = log.busy(layer) / units
    return values


def covered_seconds(log: SpanLog, windows) -> float:
    """Seconds of the ``(start, end)`` windows covered by any span."""
    spans = [(start, end) for _, _, start, end in log.spans]
    return sum(union_seconds(spans, lo, hi) for lo, hi in windows)
