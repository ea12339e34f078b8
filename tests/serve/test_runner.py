"""The serve runner: content keys, resume discovery, CLI-identical reports."""

import contextlib
import io

import pytest

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
        tuned = dict(EVAL, workers=8, cell_timeout=5.0)
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
                  "workers": None, "cell_timeout": None}
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
                  "workers": None, "cell_timeout": None}
        session = RunSession.begin("evaluate", config, root=tmp_path)
        session.finish("completed")
        assert find_resumable(RunStore(tmp_path), "evaluate",
                              config) is None

    def test_execute_job_resumes_interrupted_run(self, tmp_path):
        config = {"scheme": "duet", "samples": 200, "seed": 11,
                  "workers": None, "cell_timeout": None}
        crashed = RunSession.begin("evaluate", config, root=tmp_path)
        result = execute_job("evaluate", EVAL, runs_dir=tmp_path)
        assert result["resumed_from"] == crashed.run_id
