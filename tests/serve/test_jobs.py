"""Job model: normalization, identity, dedupe registry, SSE channels."""

import pytest

from repro.serve.jobs import (
    COMPLETED,
    FAILED,
    JobError,
    JobRegistry,
    UnknownJobError,
    job_identity,
    new_job_id,
    normalize_params,
)
from repro.serve.sse import BroadcastChannel, encode_sse


class TestNormalization:
    def test_defaults_filled(self):
        params = normalize_params("campaign", {})
        assert params == {"runs": 3, "seed": 2021, "events": 3000,
                          "engine": "shm", "workers": None, "chunk_timeout": None,
                          "fleet_size": None, "fleet_scheme": "trio"}

    def test_unknown_kind(self):
        with pytest.raises(JobError, match="unknown job kind"):
            normalize_params("frobnicate", {})

    def test_unknown_parameter(self):
        with pytest.raises(JobError, match="unknown parameter"):
            normalize_params("fig8", {"smaples": 100})

    def test_required_parameter(self):
        with pytest.raises(JobError, match="required"):
            normalize_params("evaluate", {})

    def test_type_coercion_and_rejection(self):
        params = normalize_params("evaluate",
                                  {"scheme": "duet", "samples": 100.0})
        assert params["samples"] == 100 and isinstance(params["samples"], int)
        with pytest.raises(JobError, match="integer"):
            normalize_params("evaluate", {"scheme": "duet",
                                          "samples": 100.5})
        with pytest.raises(JobError, match="integer"):
            normalize_params("evaluate", {"scheme": "duet",
                                          "samples": True})
        with pytest.raises(JobError, match="string"):
            normalize_params("evaluate", {"scheme": 7})

    @pytest.mark.parametrize("kind,params", [
        ("evaluate", {"scheme": "duet", "samples": 0}),
        ("evaluate", {"scheme": "duet", "samples": -3}),
        ("fig8", {"samples": 0}),
    ])
    def test_non_positive_samples_rejected(self, kind, params):
        with pytest.raises(JobError, match="at least 1"):
            normalize_params(kind, params)

    @pytest.mark.parametrize("name", ["runs", "events"])
    def test_negative_campaign_counts_rejected(self, name):
        with pytest.raises(JobError, match=f"'{name}' must be at least 0"):
            normalize_params("campaign", {name: -1})
        assert normalize_params("campaign", {name: 0})[name] == 0

    @pytest.mark.parametrize("kind,params", [
        ("campaign", {"chunk_timeout": 0}),
        ("campaign", {"chunk_timeout": -1.5}),
        ("evaluate", {"scheme": "duet", "cell_timeout": 0}),
        ("fig8", {"cell_timeout": -1}),
    ])
    def test_non_positive_timeouts_rejected(self, kind, params):
        # Table-2 cells run on threads, which cannot be timed out, so
        # cell_timeout is no parameter at all
        match = ("unknown parameter.*cell_timeout" if "cell_timeout" in params
                 else "must be above 0 seconds")
        with pytest.raises(JobError, match=match):
            normalize_params(kind, params)

    def test_positive_or_unset_timeouts_accepted(self):
        assert normalize_params(
            "campaign", {"chunk_timeout": 0.5})["chunk_timeout"] == 0.5
        assert "cell_timeout" not in normalize_params("fig8", {})
        with pytest.raises(JobError, match="unknown parameter"):
            normalize_params("fig8", {"cell_timeout": 5.0})

    @pytest.mark.parametrize("kind", ["campaign", "evaluate", "fig8"])
    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, kind, workers):
        params = {"scheme": "duet"} if kind == "evaluate" else {}
        with pytest.raises(JobError, match="'workers' must be at least 1"):
            normalize_params(kind, dict(params, workers=workers))
        assert normalize_params(kind, dict(params, workers=1))["workers"] == 1

    def test_choices_enforced(self):
        with pytest.raises(JobError, match="one of"):
            normalize_params("campaign", {"engine": "warp"})

    def test_reference_engine_implies_materialize(self):
        # each engine has one statistics path, so the engine alone
        # picks it: no stats parameter is normalized in
        params = normalize_params("campaign", {"engine": "reference"})
        assert params["engine"] == "reference"
        assert "stats" not in params

    def test_reference_engine_rejects_streaming(self):
        # stats is no parameter at all, whatever the engine or mode
        for engine in ("shm", "reference"):
            for stats in ("materialize", "streaming"):
                with pytest.raises(JobError,
                                   match="unknown parameter.*stats"):
                    normalize_params("campaign", {"engine": engine,
                                                  "stats": stats})


class TestIdentity:
    def test_execution_params_excluded(self):
        base = normalize_params("campaign", {})
        tuned = normalize_params(
            "campaign", {"engine": "reference", "workers": 8,
                         "chunk_timeout": 30.0})
        assert job_identity("campaign", base) \
            == job_identity("campaign", tuned)

    def test_result_bearing_params_included(self):
        base = normalize_params("campaign", {})
        other = normalize_params("campaign", {"seed": 1})
        assert job_identity("campaign", base) \
            != job_identity("campaign", other)

    def test_job_ids_unique(self):
        assert new_job_id() != new_job_id()


class TestRegistry:
    def _create(self, registry, key="k1", **kwargs):
        defaults = dict(tenant="default", priority=0, key=key)
        defaults.update(kwargs)
        return registry.create("fig8", {"samples": 10}, **defaults)

    def test_identical_inflight_submission_attaches(self):
        registry = JobRegistry()
        job, attached = self._create(registry)
        assert not attached
        again, attached = self._create(registry)
        assert attached
        assert again is job
        assert job.attached == 2
        assert registry.deduped == 1

    def test_finished_job_does_not_absorb(self):
        registry = JobRegistry()
        job, _ = self._create(registry)
        job.state = COMPLETED
        registry.finish(job)
        fresh, attached = self._create(registry)
        assert not attached
        assert fresh is not job

    def test_discard_releases_key(self):
        registry = JobRegistry()
        job, _ = self._create(registry)
        registry.discard(job)
        with pytest.raises(UnknownJobError):
            registry.get(job.job_id)
        fresh, attached = self._create(registry)
        assert not attached

    def test_get_unknown_raises(self):
        with pytest.raises(UnknownJobError):
            JobRegistry().get("job-nope")

    def test_filters_and_counts(self):
        registry = JobRegistry()
        a, _ = self._create(registry, key="ka", tenant="alice")
        b, _ = self._create(registry, key="kb", tenant="bob")
        b.state = FAILED
        assert [j.job_id for j in registry.jobs(tenant="alice")] \
            == [a.job_id]
        assert [j.job_id for j in registry.jobs(state=FAILED)] \
            == [b.job_id]
        assert registry.state_counts() == {"queued": 1, "failed": 1}

    def test_history_trims_only_terminal_jobs(self):
        registry = JobRegistry(history=2)
        jobs = [self._create(registry, key=f"k{n}")[0] for n in range(4)]
        # nothing evicted while everything is live
        assert len(registry.jobs()) == 4
        for job in jobs[:3]:
            job.state = COMPLETED
            registry.finish(job)
        survivors = {j.job_id for j in registry.jobs()}
        assert jobs[3].job_id in survivors  # live job never evicted
        assert len(survivors) == 2


class TestBroadcastChannel:
    def test_encode_sse_frame(self):
        frame = encode_sse({"id": 3, "event": "progress",
                            "data": {"line": "x"}})
        assert frame == b'id: 3\nevent: progress\ndata: {"line": "x"}\n\n'

    def test_history_replay_then_live(self):
        channel = BroadcastChannel()
        channel.publish("queued", {})
        queue = channel.subscribe()
        channel.publish("started", {})
        names = [queue.get_nowait()["event"] for _ in range(2)]
        assert names == ["queued", "started"]

    def test_terminal_event_closes_channel(self):
        channel = BroadcastChannel()
        queue = channel.subscribe()
        channel.publish("completed", {})
        assert channel.closed
        assert queue.get_nowait()["event"] == "completed"
        assert queue.get_nowait() is None  # end-of-stream sentinel

    def test_late_subscriber_sees_history_and_sentinel(self):
        channel = BroadcastChannel()
        channel.publish("queued", {})
        channel.publish("failed", {"error": "boom"})
        queue = channel.subscribe()
        assert queue.get_nowait()["event"] == "queued"
        assert queue.get_nowait()["event"] == "failed"
        assert queue.get_nowait() is None

    def test_event_ids_are_sequential(self):
        channel = BroadcastChannel()
        first = channel.publish("queued", {})
        second = channel.publish("progress", {})
        assert (first["id"], second["id"]) == (1, 2)
