"""Crash-safety of the run store under injected faults, and quarantine."""

import json

import pytest

from repro import faults
from repro.errormodel.montecarlo import PatternOutcome
from repro.errormodel.patterns import ErrorPattern
from repro.faults import FaultPlan, InjectedFault
from repro.runs import RunSession, RunStore
from repro.runs.durable import durable_append_line, durable_write_text

OUTCOME = PatternOutcome(ErrorPattern.BEAT, 500, 0.8, 0.15, 0.05, False, 0.2)
KEY = "ab" * 32


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "store")


def _install(spec, **kwargs):
    return faults.install(FaultPlan.parse(spec, **kwargs), export_env=False)


class TestAtomicSaves:
    def test_crash_before_rename_leaves_no_artifact(self, store):
        _install("store.save_cell.pre_rename:mode=raise")
        with pytest.raises(InjectedFault):
            store.save_cell(KEY, OUTCOME)
        assert not store.cell_path(KEY).exists()
        assert store.load_cell(KEY) is None  # a clean miss, not corruption

    def test_crash_before_rename_keeps_the_old_artifact(self, store):
        store.save_cell(KEY, OUTCOME)
        newer = PatternOutcome(ErrorPattern.BEAT, 900, 0.5, 0.3, 0.2,
                               False, 0.4)
        _install("store.save_cell.pre_rename:mode=raise")
        with pytest.raises(InjectedFault):
            store.save_cell(KEY, newer)
        loaded = store.load_cell(KEY)
        assert loaded is not None and loaded.events == 500  # old survives

    def test_torn_write_is_quarantined_on_load(self, store):
        # then=raise (not exit) so the test process survives the fault.
        _install("store.save_cell.pre_rename:mode=torn,then=raise")
        with pytest.raises(InjectedFault):
            store.save_cell(KEY, OUTCOME)
        faults.uninstall(scrub_env=False)
        # The torn prefix landed on the final path -> detected + moved.
        assert store.cell_path(KEY).exists()
        assert store.load_cell(KEY) is None
        assert store.quarantined == 1
        assert not store.cell_path(KEY).exists()
        assert list(store.quarantine_dir().iterdir())
        # The slot is reusable: a clean recompute round-trips.
        store.save_cell(KEY, OUTCOME)
        assert store.load_cell(KEY) == OUTCOME

    def test_campaign_save_honors_its_fault_point(self, store):
        _install("store.save_campaign.pre_rename:mode=raise")
        with pytest.raises(InjectedFault):
            store.save_campaign(KEY, {"meta": 1}, [{"r": 0}])
        assert not store.campaign_path(KEY).exists()


class TestQuarantine:
    def test_collision_suffixes_keep_every_corpse(self, store):
        for _ in range(3):
            path = store.cell_path(KEY)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("not an artifact\n")
            assert store.load_cell(KEY) is None
        names = sorted(p.name for p in store.quarantine_dir().iterdir())
        assert names == [f"{KEY}.jsonl", f"{KEY}.jsonl.1", f"{KEY}.jsonl.2"]
        assert store.quarantined == 3

    def test_gc_collects_the_quarantine_bucket(self, store):
        path = store.cell_path(KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("garbage\n")
        store.load_cell(KEY)
        stats = store.gc(days=0)
        assert stats.artifacts == 1
        assert not list(store.quarantine_dir().iterdir())

    def test_session_finish_reports_quarantine_and_fault_counters(
            self, tmp_path):
        session = RunSession.begin("fig8", {}, root=tmp_path / "store")
        corrupt = session.store.cell_path(KEY)
        corrupt.parent.mkdir(parents=True, exist_ok=True)
        corrupt.write_text("garbage\n")
        _install("p.q:mode=raise")
        with pytest.raises(InjectedFault):
            faults.faultpoint("p.q")
        session.store.load_cell(KEY)
        session.finish()
        manifest = RunStore(tmp_path / "store").load_manifest(session.run_id)
        assert manifest.counters["artifacts_quarantined"] == 1
        assert manifest.counters["fault.p.q"] == 1


class TestDurablePrimitives:
    def test_write_text_round_trip(self, tmp_path):
        target = tmp_path / "nested" / "out.json"
        target.parent.mkdir()
        durable_write_text(target, '{"ok": true}\n')
        assert json.loads(target.read_text()) == {"ok": True}
        assert not list(target.parent.glob("*.tmp*"))  # temp cleaned up

    def test_append_line_adds_exactly_one_line(self, tmp_path):
        target = tmp_path / "log.jsonl"
        durable_append_line(target, '{"n": 1}')
        durable_append_line(target, '{"n": 2}\n')  # newline optional
        assert target.read_text() == '{"n": 1}\n{"n": 2}\n'

    def test_append_fault_point_fires_before_the_write(self, tmp_path):
        target = tmp_path / "log.jsonl"
        _install("checkpoint.torn_write:mode=raise")
        with pytest.raises(InjectedFault):
            durable_append_line(target, '{"n": 1}',
                                fault_point="checkpoint.torn_write")
        assert not target.exists()  # fault fired before any bytes landed


class TestResumableIndexFaults:
    def test_crash_before_the_index_update_leaves_a_pruned_marker(
            self, tmp_path):
        from repro.serve.runner import find_resumable

        config = {"scheme": "duet", "samples": 200}
        session = RunSession.begin("evaluate", config, root=tmp_path)
        marker = session.store.resumable_marker("evaluate", config,
                                                session.run_id)
        _install("runs.index.update:mode=raise")
        with pytest.raises(InjectedFault):
            session.finish("completed")
        faults.uninstall(scrub_env=False)
        store = RunStore(tmp_path)
        assert store.load_manifest(session.run_id).status == "completed"
        assert marker.exists()  # the stale hint survived the crash
        assert find_resumable(store, "evaluate", config) is None
        assert not marker.exists()  # ... and the lookup pruned it
