"""End-to-end CLI round trips through ``main()``: caching flags, resume,
and the ``repro runs`` maintenance subcommand."""

import pytest

from repro.cli import main
from repro.runs import RunStore


@pytest.fixture
def root(tmp_path):
    return tmp_path / "store"


def _strip_summary(out: str) -> str:
    """Drop the run-id-bearing summary line so outputs can be compared."""
    return "\n".join(
        line for line in out.splitlines()
        if not line.startswith("[repro runs]")
    )


class TestCachedCommands:
    def test_fig8_warm_run_hits_and_matches(self, root, capsys):
        assert main(["fig8", "--samples", "60", "--runs-dir", str(root)]) == 0
        cold = capsys.readouterr().out
        assert "0 cache hits, 63 misses" in cold

        assert main(["fig8", "--samples", "60", "--runs-dir", str(root)]) == 0
        warm = capsys.readouterr().out
        assert "63 cache hits, 0 misses" in warm
        assert _strip_summary(warm) == _strip_summary(cold)

    def test_no_cache_prints_no_summary_and_writes_nothing(self, root, capsys):
        assert main(["evaluate", "trio", "--samples", "40", "--no-cache",
                     "--runs-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "[repro runs]" not in out
        assert not root.exists()

    def test_evaluate_records_manifest(self, root, capsys):
        assert main(["evaluate", "trio", "--samples", "40",
                     "--runs-dir", str(root)]) == 0
        capsys.readouterr()
        (manifest,) = RunStore(root).list_runs()
        assert manifest.command == "evaluate"
        assert manifest.status == "completed"
        assert manifest.config["scheme"] == "trio"
        assert manifest.config["samples"] == 40
        assert (manifest.cache_hits, manifest.cache_misses) == (0, 7)
        assert "evaluate" in manifest.stages

    def test_resume_restores_stored_parameters(self, root, capsys):
        assert main(["evaluate", "trio", "--samples", "40",
                     "--runs-dir", str(root)]) == 0
        first_out = capsys.readouterr().out
        (first,) = RunStore(root).list_runs()

        # Different --samples on the command line: --resume must win, so
        # every cell is already in the store.
        assert main(["evaluate", "trio", "--samples", "9999",
                     "--resume", first.run_id, "--runs-dir", str(root)]) == 0
        second_out = capsys.readouterr().out
        assert "7 cache hits, 0 misses" in second_out
        assert _strip_summary(second_out) == _strip_summary(first_out)

        resumed = RunStore(root).load_manifest(
            [m for m in RunStore(root).list_runs()
             if m.run_id != first.run_id][0].run_id
        )
        assert resumed.resumed_from == first.run_id
        assert resumed.config["samples"] == 40

    def test_resume_unknown_run_exits_2(self, root, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "trio", "--resume", "nope",
                  "--runs-dir", str(root)])
        assert excinfo.value.code == 2
        assert "no run 'nope'" in capsys.readouterr().err


class TestRunsSubcommand:
    def _seed_run(self, root, capsys, samples="40"):
        main(["evaluate", "trio", "--samples", samples,
              "--runs-dir", str(root)])
        capsys.readouterr()
        return RunStore(root).list_runs()[0]

    def test_list(self, root, capsys):
        manifest = self._seed_run(root, capsys)
        assert main(["runs", "--runs-dir", str(root), "list"]) == 0
        out = capsys.readouterr().out
        assert manifest.run_id in out
        assert "evaluate" in out

    def test_list_empty_store(self, root, capsys):
        assert main(["runs", "--runs-dir", str(root), "list"]) == 0
        assert "no runs stored" in capsys.readouterr().out

    def test_show(self, root, capsys):
        manifest = self._seed_run(root, capsys)
        assert main(["runs", "--runs-dir", str(root), "show",
                     manifest.run_id]) == 0
        out = capsys.readouterr().out
        assert manifest.run_id in out
        assert "completed" in out
        assert '"samples": 40' in out
        assert "checkpoint 7 completed cells" in out

    def test_show_unknown_run(self, root, capsys):
        assert main(["runs", "--runs-dir", str(root), "show", "nope"]) == 2
        assert "no run 'nope'" in capsys.readouterr().err

    def test_diff(self, root, capsys):
        a = self._seed_run(root, capsys, samples="40")
        b = self._seed_run(root, capsys, samples="80")
        if b.run_id == a.run_id:  # list_runs()[0] is newest
            pytest.fail("expected two distinct runs")
        assert main(["runs", "--runs-dir", str(root), "diff",
                     a.run_id, b.run_id]) == 0
        out = capsys.readouterr().out
        assert "config.samples" in out
        assert "40" in out and "80" in out

    def test_diff_identical(self, root, capsys):
        a = self._seed_run(root, capsys)
        assert main(["runs", "--runs-dir", str(root), "diff",
                     a.run_id, a.run_id]) == 0
        assert "identical" in capsys.readouterr().out

    def test_gc(self, root, capsys):
        self._seed_run(root, capsys)
        assert main(["runs", "--runs-dir", str(root), "gc", "--all",
                     "--dry-run"]) == 0
        assert "would remove" in capsys.readouterr().out
        assert RunStore(root).list_runs()  # dry run kept everything

        assert main(["runs", "--runs-dir", str(root), "gc", "--all"]) == 0
        assert "removed" in capsys.readouterr().out
        assert RunStore(root).list_runs() == []


class TestTraceSubcommand:
    def _seed_campaign(self, root, capsys, *flags):
        main(["campaign", "--runs", "1", "--events", "1200", "--workers",
              "2", "--runs-dir", str(root), *flags])
        capsys.readouterr()
        return RunStore(root).list_runs()[0]

    def _render_trace(self, root, capsys, stages, *flags):
        manifest = self._seed_campaign(root, capsys, *flags)
        assert main(["runs", "--runs-dir", str(root), "trace",
                     manifest.run_id]) == 0
        out = capsys.readouterr().out
        assert f"trace of run {manifest.run_id}" in out
        for name in ("campaign", "statistics", "chunk", *stages):
            assert name in out
        return out

    def test_trace_renders_the_stage_tree_with_worker_spans(self, root,
                                                            capsys):
        # the default streamed path: scout sweep, then synthesize + fold
        out = self._render_trace(root, capsys,
                                 ("scout", "synthesize", "fold"))
        assert "[pid:" in out  # worker provenance made it into the render
        assert "slowest" in out

    def test_trace_of_a_materialized_campaign_shows_scan_and_postprocess(
            self, root, capsys):
        out = self._render_trace(root, capsys,
                                 ("synthesize", "scan", "postprocess"),
                                 "--engine", "columnar",
                                 "--stats", "materialize")
        assert "[pid:" in out
        assert "slowest" in out

    def test_show_advertises_the_stored_trace(self, root, capsys):
        manifest = self._seed_campaign(root, capsys)
        assert main(["runs", "--runs-dir", str(root), "show",
                     manifest.run_id]) == 0
        assert f"repro runs trace {manifest.run_id}" \
            in capsys.readouterr().out

    def test_missing_trace_exits_1(self, root, capsys):
        from repro.runs import RunManifest, new_run_id

        store = RunStore(root)
        manifest = RunManifest(run_id=new_run_id(), command="fig8",
                               config={}, status="completed")
        manifest.save(store.manifest_path(manifest.run_id))
        assert main(["runs", "--runs-dir", str(root), "trace",
                     manifest.run_id]) == 1
        assert "no stored trace" in capsys.readouterr().out

    def test_unknown_run_exits_2(self, root, capsys):
        assert main(["runs", "--runs-dir", str(root), "trace", "nope"]) == 2
        assert "no run 'nope'" in capsys.readouterr().err

    def test_corrupt_trace_renders_valid_prefix_with_warning(self, root,
                                                             capsys):
        manifest = self._seed_campaign(root, capsys)
        path = RunStore(root).trace_path(manifest.run_id)
        path.write_text(path.read_text()[:-40])  # torn write
        assert main(["runs", "--runs-dir", str(root), "trace",
                     manifest.run_id]) == 0
        out, err = capsys.readouterr()
        assert "damaged" in err
        # The surviving prefix still renders as a tree.
        assert f"trace of run {manifest.run_id}" in out
        assert "campaign" in out

    def test_wholly_garbage_trace_warns_and_renders_nothing(self, root,
                                                            capsys):
        from repro.runs import RunManifest, new_run_id

        store = RunStore(root)
        manifest = RunManifest(run_id=new_run_id(), command="fig8",
                               config={}, status="completed")
        manifest.save(store.manifest_path(manifest.run_id))
        store.trace_path(manifest.run_id).write_bytes(b"\x00\xff not json")
        assert main(["runs", "--runs-dir", str(root), "trace",
                     manifest.run_id]) == 0
        out, err = capsys.readouterr()
        assert "damaged" in err
        assert "0 spans" in out


class TestManifestTolerance:
    def _write_manifest(self, root, payload):
        import json

        store = RunStore(root)
        path = store.manifest_path(payload["run_id"])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
        return store

    def test_old_schema_manifest_still_lists_and_shows(self, root, capsys):
        # A manifest from before counters/stages/cache accounting existed.
        store = self._write_manifest(root, {
            "schema": 0,
            "run_id": "20200101T000000-aaaaaa",
            "command": "fig8",
            "config": {"samples": 10},
            "status": "completed",
            "started_at": 1577836800.0,
        })
        (listed,) = store.list_runs()
        assert listed.run_id == "20200101T000000-aaaaaa"
        assert listed.counters == {}
        assert main(["runs", "--runs-dir", str(root), "show",
                     listed.run_id]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out
        assert "2020-01-01 00:00:00Z" in out

    def test_manifest_with_unknown_future_fields_loads(self, root):
        store = self._write_manifest(root, {
            "schema": 9,
            "run_id": "20990101T000000-bbbbbb",
            "command": "evaluate",
            "config": {},
            "status": "completed",
            "started_at": 1.0,
            "from_the_future": {"nested": True},
        })
        loaded = store.load_manifest("20990101T000000-bbbbbb")
        assert loaded.command == "evaluate"
        assert not hasattr(loaded, "from_the_future")

    def test_manifest_missing_identity_is_skipped_not_fatal(self, root,
                                                            capsys):
        self._write_manifest(root, {
            "run_id": "20200101T000000-cccccc",
            "command": "fig8",
            "config": {},
            "status": "completed",
            "started_at": 2.0,
        })
        store = self._write_manifest(root, {"run_id": "broken-no-command"})
        assert [m.run_id for m in store.list_runs()] \
            == ["20200101T000000-cccccc"]
        assert main(["runs", "--runs-dir", str(root), "show",
                     "broken-no-command"]) == 2
        assert "no run" in capsys.readouterr().err

    def test_timestamps_render_in_utc_not_local_time(self, root, capsys,
                                                     monkeypatch):
        import time

        monkeypatch.setenv("TZ", "America/Los_Angeles")
        time.tzset()
        try:
            self._write_manifest(root, {
                "run_id": "20240615T120000-dddddd",
                "command": "fig8",
                "config": {},
                "status": "completed",
                "started_at": 1718452800.0,  # 2024-06-15 12:00:00 UTC
            })
            assert main(["runs", "--runs-dir", str(root), "show",
                         "20240615T120000-dddddd"]) == 0
            out = capsys.readouterr().out
            # Must match the UTC stamp in the run id, not local (05:00).
            assert "2024-06-15 12:00:00Z" in out
        finally:
            monkeypatch.delenv("TZ", raising=False)
            time.tzset()
