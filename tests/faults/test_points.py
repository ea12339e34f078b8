"""faultpoint() behavior: actions, gating, host suppression, counters."""

import os

import pytest

from repro import faults
from repro.faults import (
    FaultPlan,
    Incident,
    InjectedFault,
    faultpoint,
    unit_draw,
)


def _install(spec, **kwargs):
    return faults.install(FaultPlan.parse(spec, **kwargs), export_env=False)


class TestInactive:
    def test_noop_without_a_plan(self):
        faultpoint("store.save_cell.pre_rename")  # must not raise
        assert faults.incidents() == []
        assert faults.counters() == {}

    def test_noop_for_an_unregistered_point(self):
        _install("some.other.point")
        faultpoint("store.save_cell.pre_rename")
        assert faults.incidents() == []


class TestActions:
    def test_raise_mode_raises_injected_fault(self):
        _install("p.q:mode=raise")
        with pytest.raises(InjectedFault) as excinfo:
            faultpoint("p.q")
        assert excinfo.value.point == "p.q"
        assert faults.incidents() == [Incident("p.q", "raise", "injected")]

    def test_hang_mode_sleeps_then_continues(self, monkeypatch):
        naps = []
        monkeypatch.setattr(faults.points.time, "sleep", naps.append)
        _install("p.q:mode=hang,s=0.25")
        faultpoint("p.q")
        assert naps == [0.25]

    def test_corrupt_mode_flips_exactly_one_byte(self, tmp_path):
        target = tmp_path / "artifact.jsonl"
        original = b'{"k": 1}\n{"k": 2}\n'
        target.write_bytes(original)
        _install("p.q:mode=corrupt")
        faultpoint("p.q", path=target)
        mutated = target.read_bytes()
        assert mutated != original
        assert len(mutated) == len(original)
        assert sum(a != b for a, b in zip(mutated, original)) == 1

    def test_torn_then_raise_writes_a_strict_prefix(self, tmp_path):
        target = tmp_path / "out.jsonl"
        data = "x" * 100 + "\n"
        _install("p.q:mode=torn,then=raise")
        with pytest.raises(InjectedFault):
            faultpoint("p.q", path=target, data=data)
        written = target.read_bytes()
        assert 0 < len(written) < len(data)
        assert data.encode().startswith(written)

    def test_torn_prefix_length_is_deterministic(self, tmp_path):
        data = "y" * 256
        cuts = []
        for name in ("a", "b"):
            target = tmp_path / f"{name}.bin"
            faults.reset()
            _install("p.q:mode=torn,then=none", seed=11)
            faultpoint("p.q", path=target, data=data)
            cuts.append(len(target.read_bytes()))
        assert cuts[0] == cuts[1]  # same seed, same hit index -> same cut

    def test_torn_append_mode_preserves_existing_content(self, tmp_path):
        target = tmp_path / "checkpoint.jsonl"
        target.write_text('{"run": 0}\n')
        _install("p.q:mode=torn,then=none")
        faultpoint("p.q", path=target, data='{"run": 1}\n', append=True)
        text = target.read_text()
        assert text.startswith('{"run": 0}\n')
        assert len(text) > len('{"run": 0}\n')
        assert len(text) < len('{"run": 0}\n{"run": 1}\n')


class TestGating:
    def test_after_skips_early_hits(self):
        _install("p.q:after=2,times=inf")
        faultpoint("p.q")
        faultpoint("p.q")
        with pytest.raises(InjectedFault):
            faultpoint("p.q")

    def test_times_budget_caps_activations(self):
        _install("p.q:times=2")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                faultpoint("p.q")
        faultpoint("p.q")  # budget exhausted -> silent
        assert len(faults.incidents()) == 2

    def test_times_budget_spans_processes_via_the_ledger(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        _install("p.q:times=1", ledger=ledger)
        with pytest.raises(InjectedFault):
            faultpoint("p.q")
        # A "restarted" process: fresh plan, same ledger -> budget spent.
        faults.reset()
        _install("p.q:times=1", ledger=ledger)
        faultpoint("p.q")
        assert faults.incidents() == []

    def test_probability_draw_is_deterministic(self):
        plan = _install("p.q:p=0.5,times=inf")
        fired = 0
        for _ in range(50):
            try:
                faultpoint("p.q")
            except InjectedFault:
                fired += 1
        expected = sum(
            unit_draw(plan.seed, "p.q", hit) < 0.5 for hit in range(1, 51))
        assert fired == expected
        assert 0 < fired < 50


class TestThreads:
    @pytest.mark.parametrize("with_ledger", [False, True])
    def test_times_budget_holds_across_threads(self, tmp_path, with_ledger):
        import sys
        import threading

        # switch threads as often as the interpreter allows (and, with a
        # ledger, read the budget from a file), so hits interleave inside
        # the bookkeeping unless it is one atomic step
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        _install("p.q:mode=raise,times=1",
                 ledger=tmp_path / "ledger.jsonl" if with_ledger else None)
        raised = []
        barrier = threading.Barrier(8)

        def hit():
            barrier.wait()
            for _ in range(50):
                try:
                    faultpoint("p.q")
                except InjectedFault:
                    raised.append(True)

        threads = [threading.Thread(target=hit) for _ in range(8)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(previous)
        assert raised == [True]
        assert faults.incidents() == [Incident("p.q", "raise", "injected")]


class TestHostGate:
    def test_destructive_fault_suppressed_in_the_host(self):
        # host_pid defaults to os.getpid(): we ARE the host.
        _install("p.q:mode=exit,times=1")
        faultpoint("p.q")  # would have os._exit'ed a worker
        assert faults.incidents() == [Incident("p.q", "exit", "suppressed")]
        assert faults.counters() == {"fault.suppressed.p.q": 1}

    def test_suppression_does_not_consume_the_budget(self):
        plan = _install("p.q:mode=exit,times=1")
        faultpoint("p.q")
        faultpoint("p.q")
        assert plan.rule_for("p.q").fired == 0
        assert len(faults.incidents()) == 2

    def test_worker_pid_is_not_gated(self, tmp_path):
        # Claim the host is some other pid; then mode=exit would fire.
        # Use then-gated torn (non-destructive variants aren't gated at
        # all), so assert via a raise-mode stand-in: host gating only
        # applies to destructive modes in the first place.
        _install("p.q:mode=raise", host_pid=os.getpid() + 1)
        with pytest.raises(InjectedFault):
            faultpoint("p.q")

    def test_host_flag_opts_into_destruction(self, monkeypatch):
        died = []
        monkeypatch.setattr(faults.points, "_die", lambda: died.append(True))
        _install("p.q:mode=exit,host=1")
        faultpoint("p.q")
        assert died == [True]
        assert faults.incidents() == [Incident("p.q", "exit", "injected")]

    def test_exit_fires_outside_the_host(self, monkeypatch):
        died = []
        monkeypatch.setattr(faults.points, "_die", lambda: died.append(True))
        _install("p.q:mode=exit", host_pid=os.getpid() + 1)
        faultpoint("p.q")
        assert died == [True]


class TestCounters:
    def test_injected_counters_are_flat_and_sorted(self):
        _install("a.x:times=2;b.y:times=1")
        for point in ("a.x", "a.x", "b.y"):
            with pytest.raises(InjectedFault):
                faultpoint(point)
        assert faults.counters() == {"fault.a.x": 2, "fault.b.y": 1}

    def test_ledger_counts_survive_a_restart(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        _install("a.x:times=2", ledger=ledger)
        with pytest.raises(InjectedFault):
            faultpoint("a.x")
        # Restarted process: no local incidents, but the ledger remembers.
        faults.reset()
        _install("a.x:times=2", ledger=ledger)
        assert faults.counters() == {"fault.a.x": 1}
