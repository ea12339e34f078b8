"""The serve runner: content keys, resume discovery, CLI-identical reports."""

import asyncio
import contextlib
import io
import json
import os
import time

import pytest

from repro.runs.manifest import RunManifest
from repro.runs.session import RunSession
from repro.runs.store import RunStore
from repro.serve.jobs import JobError, normalize_params
from repro.serve.runner import (
    JobCancelled,
    build_namespace,
    execute_job,
    find_resumable,
    job_keys,
)
from repro.serve.server import ServeApp

EVAL = normalize_params("evaluate", {"scheme": "duet", "samples": 200,
                                     "seed": 11})


def report_lines(report):
    """Statistics lines only (run-store chatter carries run ids)."""
    return [line for line in report.splitlines()
            if line.strip() and not line.startswith("[repro")]


class TestNamespace:
    def test_matches_cli_shape(self):
        args = build_namespace("evaluate", EVAL, runs_dir="/tmp/x",
                               progress=lambda line: None,
                               progress_interval_s=2.0)
        assert args.command == "evaluate"
        assert args.cache is True
        assert args.runs_dir == "/tmp/x"
        assert args.heartbeat == 2.0
        assert args.scheme == "duet"
        assert args.inject_faults is None

    def test_no_progress_disables_heartbeat(self):
        args = build_namespace("evaluate", EVAL)
        assert args.heartbeat == 0.0
        assert args.heartbeat_callback is None


class TestJobKeys:
    def test_identity_and_execution_params_split(self, tmp_path):
        keys = job_keys("evaluate", EVAL, runs_dir=tmp_path)
        tuned = dict(EVAL, workers=8)
        assert job_keys("evaluate", tuned, runs_dir=tmp_path)["key"] \
            == keys["key"]
        reseeded = dict(EVAL, seed=12)
        assert job_keys("evaluate", reseeded, runs_dir=tmp_path)["key"] \
            != keys["key"]

    def test_artifact_counts(self, tmp_path):
        assert job_keys("evaluate", EVAL,
                        runs_dir=tmp_path)["artifacts"] == 7
        fig8 = normalize_params("fig8", {"samples": 100})
        assert job_keys("fig8", fig8, runs_dir=tmp_path)["artifacts"] > 7
        campaign = normalize_params("campaign", {})
        assert job_keys("campaign", campaign,
                        runs_dir=tmp_path)["artifacts"] == 1

    def test_unknown_scheme_rejected(self, tmp_path):
        params = normalize_params("evaluate", {"scheme": "duet"})
        params["scheme"] = "nonsense"
        with pytest.raises(JobError, match="unknown scheme"):
            job_keys("evaluate", params, runs_dir=tmp_path)


class TestExecuteJob:
    def test_report_and_precache_lifecycle(self, tmp_path):
        assert not job_keys("evaluate", EVAL,
                            runs_dir=tmp_path)["precached"]
        result = execute_job("evaluate", EVAL, runs_dir=tmp_path)
        assert "Table-1 weighted" in result["report"]
        assert result["cache_misses"] == 7
        assert result["resumed_from"] is None
        assert job_keys("evaluate", EVAL, runs_dir=tmp_path)["precached"]

    def test_rerun_hits_cache_with_identical_statistics(self, tmp_path):
        first = execute_job("evaluate", EVAL, runs_dir=tmp_path)
        second = execute_job("evaluate", EVAL, runs_dir=tmp_path)
        assert second["cache_hits"] == 7
        assert second["cache_misses"] == 0
        assert report_lines(first["report"]) \
            == report_lines(second["report"])

    @pytest.mark.parametrize("seed", [3, 11, 2021])
    def test_default_campaign_job_matches_scalar_reference(self, tmp_path,
                                                           seed):
        # a served campaign on the default path (shm engine, streamed
        # statistics) against the CLI's scalar oracle, byte for byte
        from repro.cli import main

        params = normalize_params("campaign", {"runs": 1, "events": 400,
                                               "seed": seed})
        assert (params["engine"], params["stats"]) == ("shm", "streaming")
        served = execute_job("campaign", params, runs_dir=tmp_path / "a")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            assert main(["campaign", "--runs", "1", "--events", "400",
                         "--seed", str(seed), "--engine", "reference",
                         "--stats", "materialize", "--heartbeat", "0",
                         "--runs-dir", str(tmp_path / "b")]) == 0
        assert report_lines(served["report"]) \
            == report_lines(sink.getvalue())
        assert "Derived Table 1" in served["report"]

    def test_reference_engine_job_runs_materialized(self, tmp_path):
        params = normalize_params("campaign", {"runs": 1, "events": 200,
                                               "engine": "reference"})
        result = execute_job("campaign", params, runs_dir=tmp_path)
        assert "Derived Table 1" in result["report"]

    def test_progress_callback_is_threaded_through(self, tmp_path):
        lines = []
        execute_job("evaluate", EVAL, runs_dir=tmp_path,
                    progress=lines.append, progress_interval_s=0.0001)
        assert lines  # heartbeat ticked at least once at this cadence
        assert any("cells" in line for line in lines)

    def test_should_abort_seam_cancels_mid_run(self, tmp_path):
        lines = []
        with pytest.raises(JobCancelled, match="cancel requested"):
            execute_job("evaluate", EVAL, runs_dir=tmp_path,
                        progress=lines.append,
                        progress_interval_s=0.0001,
                        should_abort=lambda: True)
        # the abort check runs *before* the heartbeat line is forwarded
        assert lines == []
        # the abandoned run stays resumable: a clean re-run attaches
        result = execute_job("evaluate", EVAL, runs_dir=tmp_path)
        assert result["resumed_from"] is not None
        assert "Table-1 weighted" in result["report"]


class TestFindResumable:
    def test_no_runs_means_none(self, tmp_path):
        store = RunStore(tmp_path)
        assert find_resumable(store, "evaluate", {"x": 1}) is None

    def test_interrupted_matching_run_found(self, tmp_path):
        config = {"scheme": "duet", "samples": 200, "seed": 11,
                  "workers": None}
        session = RunSession.begin("evaluate", config, root=tmp_path)
        # never finished — the manifest stays "running" (a crash)
        store = RunStore(tmp_path)
        assert find_resumable(store, "evaluate", config) == session.run_id
        # different config or command does not match
        assert find_resumable(store, "evaluate",
                              dict(config, seed=99)) is None
        assert find_resumable(store, "campaign", config) is None

    def test_completed_run_not_resumed(self, tmp_path):
        config = {"scheme": "duet", "samples": 200, "seed": 11,
                  "workers": None}
        session = RunSession.begin("evaluate", config, root=tmp_path)
        session.finish("completed")
        assert find_resumable(RunStore(tmp_path), "evaluate",
                              config) is None

    def test_execute_job_resumes_interrupted_run(self, tmp_path):
        config = {"scheme": "duet", "samples": 200, "seed": 11,
                  "workers": None}
        crashed = RunSession.begin("evaluate", config, root=tmp_path)
        result = execute_job("evaluate", EVAL, runs_dir=tmp_path)
        assert result["resumed_from"] == crashed.run_id


CONFIG = {"scheme": "duet", "samples": 200, "seed": 11, "workers": None}


def fill_completed(root, count):
    """``count`` completed evaluate manifests, written plainly (no fsync)."""
    for i in range(count):
        run_dir = root / "runs" / f"20200101T000000-{i:06x}"
        run_dir.mkdir(parents=True)
        (run_dir / "manifest.json").write_text(json.dumps({
            "run_id": run_dir.name, "command": "evaluate",
            "config": dict(CONFIG, seed=i % 7), "status": "completed",
            "started_at": float(i),
        }))


class TestResumableIndex:
    """find_resumable reads the resumable/ index, not every manifest."""

    def test_lookup_cost_is_flat_in_store_history(self, tmp_path,
                                                  monkeypatch):
        loads = []
        real_load = RunManifest.load.__func__

        def counting_load(cls, path):
            loads.append(path)
            return real_load(cls, path)

        monkeypatch.setattr(RunManifest, "load", classmethod(counting_load))
        counts = {}
        for size in (0, 100, 5000):
            root = tmp_path / f"store-{size}"
            fill_completed(root, size)
            crashed = RunSession.begin("evaluate", CONFIG, root=root)
            loads.clear()
            assert find_resumable(RunStore(root), "evaluate",
                                  CONFIG) == crashed.run_id
            counts[size] = len(loads)
        assert counts[0] == counts[100] == counts[5000] == 1

    def test_a_finished_run_leaves_no_marker(self, tmp_path):
        session = RunSession.begin("evaluate", CONFIG, root=tmp_path)
        store = RunStore(tmp_path)
        assert len(list(store.resumable_dir().iterdir())) == 1
        session.finish("completed")
        assert list(store.resumable_dir().iterdir()) == []

    @pytest.mark.parametrize("cancels", [1, 2])
    def test_a_completed_resume_retires_its_predecessor(self, tmp_path,
                                                        cancels):
        """After ``cancels`` cancelled jobs (the second resumes the
        first), only the next identical job resumes; it retires the
        whole chain."""
        for _ in range(cancels):
            with pytest.raises(JobCancelled):
                execute_job("evaluate", EVAL, runs_dir=tmp_path,
                            progress=lambda line: None,
                            progress_interval_s=0.0001,
                            should_abort=lambda: True)
        store = RunStore(tmp_path)
        newest = max(store.list_runs(), key=lambda m: m.started_at)
        resumed = [execute_job("evaluate", EVAL,
                               runs_dir=tmp_path)["resumed_from"]
                   for _ in range(3)]
        assert resumed == [newest.run_id, None, None]
        assert list(store.resumable_dir().iterdir()) == []
        # a rebuild from the manifests agrees: the failed run is retired
        assert store.reindex_resumable() == (0, 0)
        assert list(store.resumable_dir().iterdir()) == []

    def test_a_rebuild_skips_a_chain_of_resumed_runs(self, tmp_path):
        """A completed run retires every interrupted run it resumed
        through, even when their markers were never dropped."""
        store = RunStore(tmp_path)
        chain = []
        for status in ("failed", "failed", "completed"):
            manifest = RunManifest(
                run_id=f"20200101T00000{len(chain)}-c0ffee",
                command="evaluate", config=dict(CONFIG), status=status,
                started_at=float(len(chain)),
                resumed_from=chain[-1] if chain else None)
            manifest.save(store.manifest_path(manifest.run_id))
            chain.append(manifest.run_id)
        lone = RunManifest(run_id="20200101T000009-0bd000",
                           command="evaluate", config=dict(CONFIG, seed=5),
                           status="failed", started_at=9.0)
        lone.save(store.manifest_path(lone.run_id))
        assert [run_dir.name for run_dir, _ in store._incomplete_runs()] \
            == [lone.run_id]
        store.reindex_resumable()
        assert find_resumable(store, "evaluate", CONFIG) is None
        assert find_resumable(store, "evaluate",
                              dict(CONFIG, seed=5)) == lone.run_id

    def test_newest_of_several_interrupted_runs_wins(self, tmp_path):
        older = RunSession.begin("evaluate", CONFIG, root=tmp_path)
        newer = RunSession.begin("evaluate", CONFIG, root=tmp_path)
        assert newer.manifest.started_at > older.manifest.started_at
        assert find_resumable(RunStore(tmp_path), "evaluate",
                              CONFIG) == newer.run_id

    def test_tuple_config_keys_like_its_json_copy(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.resume_key("fig8", {"schemes": ("a", "b")}) \
            == store.resume_key("fig8", {"schemes": ["a", "b"]})

    def test_marker_without_manifest_is_pruned(self, tmp_path):
        store = RunStore(tmp_path)
        store.mark_resumable("evaluate", CONFIG, "20200101T000000-dead00")
        marker = store.resumable_marker("evaluate", CONFIG,
                                        "20200101T000000-dead00")
        # a fresh orphan may be a session between its marker and its
        # first manifest save: it survives the lookup
        assert find_resumable(store, "evaluate", CONFIG) is None
        assert marker.exists()
        old = time.time() - 3600.0
        os.utime(marker, (old, old))
        assert find_resumable(store, "evaluate", CONFIG) is None
        assert not marker.exists()

    @staticmethod
    def _unindexed_running_run(root):
        """A running manifest as a store from before the index holds it."""
        manifest = RunManifest(run_id="20200101T000000-0bd000",
                               command="evaluate", config=dict(CONFIG),
                               status="running", started_at=1.0)
        manifest.save(RunStore(root).manifest_path(manifest.run_id))
        fill_completed(root, 3)
        return manifest.run_id

    def test_daemon_startup_indexes_an_older_store(self, tmp_path):
        run_id = self._unindexed_running_run(tmp_path)
        store = RunStore(tmp_path)
        assert find_resumable(store, "evaluate", CONFIG) is None

        async def start_and_stop():
            app = ServeApp(runs_dir=tmp_path)
            await app.startup()
            await app.shutdown(grace_s=1)

        asyncio.run(start_and_stop())
        assert find_resumable(store, "evaluate", CONFIG) == run_id

    def test_runs_gc_indexes_an_older_store(self, tmp_path, capsys):
        from repro.cli import main

        run_id = self._unindexed_running_run(tmp_path)
        store = RunStore(tmp_path)
        # an orphan under another config, which no lookup below reads
        other = dict(CONFIG, seed=99)
        store.mark_resumable("evaluate", other, "20200101T000000-f00000")
        stale = store.resumable_marker("evaluate", other,
                                       "20200101T000000-f00000")
        old = time.time() - 3600.0
        os.utime(stale, (old, old))
        assert main(["runs", "--runs-dir", str(tmp_path), "gc",
                     "--dry-run"]) == 0
        assert find_resumable(store, "evaluate", CONFIG) is None
        assert stale.exists()  # a dry run only reports
        assert main(["runs", "--runs-dir", str(tmp_path), "gc"]) == 0
        assert "1 markers added, 1 stale dropped" in capsys.readouterr().out
        assert not stale.exists()
        assert find_resumable(store, "evaluate", CONFIG) == run_id
