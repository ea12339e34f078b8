"""The asyncio HTTP daemon, driven over real sockets with a stub runner.

The stub ``execute`` seam keeps these tests fast and deterministic (no
real campaigns), while everything else — routing, JSON validation,
dedupe, scheduling, SSE streaming, backpressure — is the production
code path end to end: ``ServeClient`` → TCP → ``ServeApp``.
"""

import asyncio
import contextlib
import json
import threading
import time

import pytest

from repro.serve.client import ServeClient, ServeError
from repro.serve.runner import JobCancelled
from repro.serve.server import ServeApp

pytestmark = pytest.mark.usefixtures("_isolated_run_store")


class StubRunner:
    """An ``execute`` stand-in: blockable, failable, call-counting.

    While the gate is held it polls ``should_abort`` the way the real
    runner's heartbeat bridge does, so cooperative cancellation is
    exercised end to end without a real campaign.
    """

    def __init__(self):
        self.calls = []
        self.gate = threading.Event()
        self.gate.set()  # run-to-completion unless a test blocks it

    def __call__(self, kind, params, *, runs_dir=None, progress=None,
                 progress_interval_s=1.0, default_workers=None,
                 should_abort=None):
        self.calls.append((kind, dict(params)))
        if progress is not None:
            progress(f"[{kind}] working")
        deadline = time.monotonic() + 30.0
        while not self.gate.wait(timeout=0.02):
            if should_abort is not None and should_abort():
                raise JobCancelled("cancel requested")
            if time.monotonic() > deadline:  # pragma: no cover
                raise RuntimeError("test gate never released")
        if params.get("seed") == 666:
            raise RuntimeError("injected job failure")
        return {"report": f"{kind} report seed={params.get('seed')}",
                "run_id": "r-test", "resumed_from": None,
                "cache_hits": 1, "cache_misses": 0}


@contextlib.contextmanager
def live_server(started=True, **app_kwargs):
    """A real ServeApp bound to an ephemeral port on a loop thread."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    state = {}

    async def _start():
        app = ServeApp(**app_kwargs)
        if started:
            await app.startup()
        server = await asyncio.start_server(
            app.handle_connection, "127.0.0.1", 0)
        state["app"] = app
        state["server"] = server
        return server.sockets[0].getsockname()[1]

    port = asyncio.run_coroutine_threadsafe(_start(), loop).result(10)
    try:
        yield state["app"], ServeClient(f"http://127.0.0.1:{port}")
    finally:
        async def _stop():
            state["server"].close()
            await state["server"].wait_closed()
            await state["app"].shutdown(grace_s=10)

        asyncio.run_coroutine_threadsafe(_stop(), loop).result(15)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(5)
        loop.close()


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


CAMPAIGN = {"runs": 1, "events": 100}


class TestBasics:
    def test_health_and_stats(self, tmp_path):
        with live_server(runs_dir=tmp_path) as (app, client):
            health = client.health()
            assert health["ok"] is True
            assert health["version"].startswith("repro ")
            stats = client.stats()
            assert stats["slots"] == 1
            assert stats["jobs"] == {}

    def test_unknown_routes_and_jobs_404(self, tmp_path):
        with live_server(runs_dir=tmp_path) as (app, client):
            assert client.request("GET", "/v1/frobnicate")[0] == 404
            with pytest.raises(ServeError, match="404"):
                client.job("job-nope")
            assert client.cancel("job-nope")[0] == 404

    def test_bad_submissions_400(self, tmp_path):
        with live_server(runs_dir=tmp_path) as (app, client):
            status, payload = client.submit("frobnicate", {})
            assert status == 400 and "unknown job kind" in payload["error"]
            status, payload = client.submit(
                "campaign", {"nonsense": 1})
            assert status == 400 and "unknown parameter" in payload["error"]
            for kind, params in (("evaluate", {"scheme": "trio",
                                               "samples": 0}),
                                 ("fig8", {"samples": -3})):
                status, payload = client.submit(kind, params)
                assert status == 400 and "at least 1" in payload["error"]
            for params in ({"runs": -2}, {"events": -1}):
                status, payload = client.submit("campaign", params)
                assert status == 400 and "at least 0" in payload["error"]
            status, payload = client.submit("campaign", {"chunk_timeout": 0})
            assert status == 400
            assert "must be above 0 seconds" in payload["error"]
            status, payload = client.submit(
                "evaluate", {"scheme": "trio", "cell_timeout": -1})
            assert status == 400 and "unknown parameter" in payload["error"]
            for stats in ("materialize", "streaming"):
                status, payload = client.submit("campaign", {"stats": stats})
                assert status == 400
                assert "unknown parameter(s) for 'campaign': stats" \
                    in payload["error"]
            for kind, params in (("evaluate", {"scheme": "trio",
                                               "workers": 0}),
                                 ("campaign", {"workers": -3})):
                status, payload = client.submit(kind, params)
                assert status == 400 and "at least 1" in payload["error"]
            status, payload = client.submit("campaign",
                                            {"engine": "columnar"})
            assert status == 400 and "must be one of" in payload["error"]
            conn = client._connect()
            try:
                conn.request("POST", "/v1/jobs", body="{not json",
                             headers={"Content-Type": "application/json"})
                assert conn.getresponse().status == 400
            finally:
                conn.close()


class TestLifecycle:
    def test_submit_watch_complete_and_replay(self, tmp_path):
        runner = StubRunner()
        with live_server(runs_dir=tmp_path, execute=runner) \
                as (app, client):
            status, payload = client.submit("campaign",
                                            dict(CAMPAIGN, seed=1))
            assert status == 201 and payload["deduped"] is False
            job_id = payload["job"]["job_id"]
            events = list(client.watch(job_id))
            names = [event["event"] for event in events]
            assert names[0] == "queued"
            assert "started" in names
            assert "progress" in names
            assert names[-1] == "completed"
            completed = events[-1]["data"]
            assert completed["run_id"] == "r-test"
            assert completed["cache_hits"] == 1
            job = client.job(job_id)
            assert job["state"] == "completed"
            assert job["result"]["report"] == "campaign report seed=1"
            # a second watch replays the identical closed history
            replay = [e["event"] for e in client.watch(job_id)]
            assert replay == names

    def test_failed_job_reports_error(self, tmp_path):
        runner = StubRunner()
        with live_server(runs_dir=tmp_path, execute=runner) \
                as (app, client):
            _, payload = client.submit("campaign",
                                       dict(CAMPAIGN, seed=666))
            job_id = payload["job"]["job_id"]
            events = list(client.watch(job_id))
            assert events[-1]["event"] == "failed"
            assert "injected job failure" in events[-1]["data"]["error"]
            assert client.job(job_id)["error"].startswith("RuntimeError")

    def test_concurrent_identical_submissions_dedupe(self, tmp_path):
        runner = StubRunner()
        runner.gate.clear()  # hold the first job in its running state
        with live_server(runs_dir=tmp_path, execute=runner) \
                as (app, client):
            first, second, third = (
                client.submit("campaign", dict(CAMPAIGN, seed=2))
                for _ in range(3))
            assert first[0] == 201
            assert second[0] == 200 and second[1]["deduped"] is True
            assert third[0] == 200
            assert second[1]["job"]["job_id"] == first[1]["job"]["job_id"]
            runner.gate.set()
            job_id = first[1]["job"]["job_id"]
            events = list(client.watch(job_id))
            assert events[-1]["event"] == "completed"
            # one computation for three submissions
            assert len(runner.calls) == 1
            assert client.stats()["deduped"] == 2
            # a fresh submission after completion is a new computation
            status, payload = client.submit("campaign",
                                            dict(CAMPAIGN, seed=2))
            assert status == 201
            assert payload["job"]["job_id"] != job_id


class TestSchedulingSurface:
    def test_backpressure_429_and_cancel(self, tmp_path):
        runner = StubRunner()
        runner.gate.clear()
        with live_server(runs_dir=tmp_path, execute=runner,
                         max_queue=1) as (app, client):
            _, running = client.submit("campaign", dict(CAMPAIGN, seed=3))
            running_id = running["job"]["job_id"]
            assert wait_for(lambda: client.job(running_id)["state"]
                            == "running")
            _, queued = client.submit("campaign", dict(CAMPAIGN, seed=4))
            queued_id = queued["job"]["job_id"]
            # the single queue slot is taken: a distinct job bounces
            status, payload = client.submit("campaign",
                                            dict(CAMPAIGN, seed=5))
            assert status == 429
            assert payload["retry_after_s"] > 0
            # ...but attaching to in-flight identity still works at 429
            status, attach = client.submit("campaign",
                                           dict(CAMPAIGN, seed=4))
            assert status == 200
            assert attach["job"]["job_id"] == queued_id
            # cancel the queued job; a terminal job conflicts
            assert client.cancel(queued_id)[0] == 200
            assert client.job(queued_id)["state"] == "cancelled"
            assert client.cancel(queued_id)[0] == 409
            runner.gate.set()
            events = list(client.watch(running_id))
            assert events[-1]["event"] == "completed"
            assert client.cancel(running_id)[0] == 409
            cancelled = list(client.watch(queued_id))
            assert cancelled[-1]["event"] == "cancelled"

    def test_jobs_listing_filters(self, tmp_path):
        runner = StubRunner()
        with live_server(runs_dir=tmp_path, execute=runner) \
                as (app, client):
            _, a = client.submit("campaign", dict(CAMPAIGN, seed=6),
                                 tenant="alice")
            _, b = client.submit("campaign", dict(CAMPAIGN, seed=7),
                                 tenant="bob")
            for payload in (a, b):
                list(client.watch(payload["job"]["job_id"]))
            assert len(client.jobs()) == 2
            alice = client.jobs(tenant="alice")
            assert [j["job_id"] for j in alice] == [a["job"]["job_id"]]
            done = client.jobs(state="completed")
            assert len(done) == 2


class TestCancellation:
    def test_cancel_running_job_unwinds_cooperatively(self, tmp_path):
        runner = StubRunner()
        runner.gate.clear()
        with live_server(runs_dir=tmp_path, execute=runner) \
                as (app, client):
            _, payload = client.submit("campaign", dict(CAMPAIGN, seed=8))
            job_id = payload["job"]["job_id"]
            assert wait_for(lambda: client.job(job_id)["state"]
                            == "running")
            status, body = client.cancel(job_id)
            assert status == 202 and body["cancelling"] is True
            assert body["job"]["cancel_requested"] is True
            events = list(client.watch(job_id))
            assert events[-1]["event"] == "cancelled"
            job = client.job(job_id)
            assert job["state"] == "cancelled"
            assert job["cancel_reason"] == "client cancel"
            # the computation was started exactly once, then aborted
            assert len(runner.calls) == 1
            assert client.cancel(job_id)[0] == 409

    def test_delete_and_post_cancel_are_aliases(self, tmp_path):
        runner = StubRunner()
        runner.gate.clear()
        with live_server(runs_dir=tmp_path, execute=runner,
                         slots=1) as (app, client):
            _, running = client.submit("campaign", dict(CAMPAIGN, seed=9))
            _, queued = client.submit("campaign", dict(CAMPAIGN, seed=10))
            queued_id = queued["job"]["job_id"]
            status, _ = client.request(
                "POST", f"/v1/jobs/{queued_id}/cancel")
            assert status == 200
            runner.gate.set()
            list(client.watch(running["job"]["job_id"]))


class TestDeadlines:
    def test_deadline_cancels_running_job(self, tmp_path):
        runner = StubRunner()
        runner.gate.clear()
        with live_server(runs_dir=tmp_path, execute=runner,
                         reaper_interval_s=0.02) as (app, client):
            _, payload = client.submit(
                "campaign", dict(CAMPAIGN, seed=11), deadline_s=0.2)
            job_id = payload["job"]["job_id"]
            assert payload["job"]["deadline_s"] == 0.2
            events = list(client.watch(job_id))
            assert events[-1]["event"] == "cancelled"
            job = client.job(job_id)
            assert job["cancel_reason"] == "deadline exceeded"

    def test_deadline_cancels_queued_job(self, tmp_path):
        runner = StubRunner()
        runner.gate.clear()
        with live_server(runs_dir=tmp_path, execute=runner,
                         reaper_interval_s=0.02) as (app, client):
            # the single slot is busy; the deadlined job never starts
            client.submit("campaign", dict(CAMPAIGN, seed=12))
            _, payload = client.submit(
                "campaign", dict(CAMPAIGN, seed=13), deadline_s=0.1)
            job_id = payload["job"]["job_id"]
            assert wait_for(lambda: client.job(job_id)["state"]
                            == "cancelled")
            assert client.job(job_id)["cancel_reason"] \
                == "deadline exceeded"
            runner.gate.set()
            # the deadlined job was never handed to the runner
            assert wait_for(lambda: len(runner.calls) == 1)

    def test_bad_deadline_rejected(self, tmp_path):
        with live_server(runs_dir=tmp_path) as (app, client):
            for bad in (0, -1, "soon", True):
                status, payload = client.submit(
                    "campaign", dict(CAMPAIGN, seed=14), deadline_s=bad)
                assert status == 400
                assert "deadline_s" in payload["error"]


class TestReadiness:
    def test_readyz_after_startup(self, tmp_path):
        with live_server(runs_dir=tmp_path) as (app, client):
            status, payload = client.readyz()
            assert status == 200 and payload["ready"] is True
            assert payload["journal"]["records"] == 0  # nothing replayed
            stats = client.stats()
            assert stats["ready"] is True
            assert stats["journal"]["compactions"] == 0

    def test_readyz_503_before_startup(self, tmp_path):
        with live_server(started=False, runs_dir=tmp_path) \
                as (app, client):
            status, payload = client.readyz()
            assert status == 503 and payload["ready"] is False
            # liveness stays green while readiness is not
            assert client.health()["ok"] is True


class TestDurability:
    """Journal-backed restart recovery, driven on the app directly.

    ``ServeApp``'s operations are plain synchronous methods (the daemon
    calls them on its loop thread), so a crash-restart cycle can be
    simulated exactly: populate one app, build a second one over the
    same runs dir, and replay — nothing here touches sockets.
    """

    def _submit(self, app, seed, **extra):
        status, payload = app.submit(
            dict({"kind": "campaign",
                  "params": dict(CAMPAIGN, seed=seed)}, **extra))
        return status, payload

    def test_replay_requeues_and_preserves_dedupe(self, tmp_path):
        app1 = ServeApp(runs_dir=tmp_path, execute=StubRunner())
        status, queued = self._submit(app1, 21, tenant="alice",
                                      deadline_s=120.0)
        assert status == 201
        queued_id = queued["job"]["job_id"]
        # emulate the dispatcher having started a second job, then kill
        status, running = self._submit(app1, 22)
        running_job = app1.registry.get(running["job"]["job_id"])
        running_job.state = "running"
        running_job.started_at = time.time()
        app1.journal.record_running(running_job)

        app2 = ServeApp(runs_dir=tmp_path, execute=StubRunner())
        counters = app2.replay_journal()
        assert counters["requeued"] == 2
        assert counters["recovered_running"] == 1
        assert counters["terminal"] == 0
        restored = app2.registry.get(queued_id)
        assert restored.state == "queued"
        assert restored.tenant == "alice"
        assert restored.deadline_s == 120.0
        assert restored.params == app1.registry.get(queued_id).params
        recovered = app2.registry.get(running_job.job_id)
        assert recovered.state == "queued" and recovered.recovered
        assert app2.scheduler.pending == 2
        # dedupe survives the restart: same identity -> original job id
        status, attach = self._submit(app2, 21, tenant="alice")
        assert status == 200 and attach["deduped"] is True
        assert attach["job"]["job_id"] == queued_id

    def test_replay_restores_terminal_history_and_event_ids(
            self, tmp_path):
        app1 = ServeApp(runs_dir=tmp_path, execute=StubRunner())
        status, payload = self._submit(app1, 23)
        job = app1.registry.get(payload["job"]["job_id"])
        job.state = "running"
        job.started_at = time.time()
        app1.journal.record_running(job)
        job.channel.publish("progress", {"line": "w"})
        job.state = "completed"
        job.finished_at = time.time()
        job.result = {"run_id": "r-hist", "report": "not journaled"}
        app1.registry.finish(job)
        app1.journal.record_terminal(job)
        pre_crash_last_id = job.channel.last_id

        app2 = ServeApp(runs_dir=tmp_path, execute=StubRunner())
        counters = app2.replay_journal()
        assert counters["terminal"] == 1 and counters["requeued"] == 0
        restored = app2.registry.get(job.job_id)
        assert restored.state == "completed"
        assert restored.result == {"run_id": "r-hist"}
        # ids stay monotonic across the restart, and a late watcher
        # still receives the (republished) terminal event
        assert restored.channel.last_id > pre_crash_last_id >= 1
        assert restored.channel.events[-1]["event"] == "completed"
        assert restored.channel.closed
        # a terminal identity does not absorb new submissions
        status, payload = self._submit(app2, 23)
        assert status == 201
        assert payload["job"]["job_id"] != job.job_id

    def test_replayed_columnar_job_fails_and_serving_goes_on(
            self, tmp_path):
        # A journal written while "columnar" was still an engine: the
        # replayed job must fail with a clear message, not crash the
        # daemon, and the daemon must go on running new jobs.
        app1 = ServeApp(runs_dir=tmp_path, execute=StubRunner())
        status, payload = self._submit(app1, 26)
        assert status == 201
        job_id = payload["job"]["job_id"]
        path = app1.journal.path
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        records[0]["params"]["engine"] = "columnar"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

        with live_server(runs_dir=tmp_path) as (app, client):
            events = list(client.watch(job_id))
            assert events[-1]["event"] == "failed"
            assert "engine must be one of shm, reference (got 'columnar')" \
                in events[-1]["data"]["error"]
            status, payload = client.submit(
                "campaign", {"runs": 0, "events": 200, "seed": 3})
            assert status == 201
            events = list(client.watch(payload["job"]["job_id"]))
            assert events[-1]["event"] == "completed"

    @pytest.mark.parametrize("cell_timeout", [None, 5.0])
    def test_replayed_evaluate_job_with_cell_timeout_completes(
            self, tmp_path, cell_timeout):
        # A journal written while evaluate still took cell_timeout: replay
        # does not normalize params again, so the old key reaches the
        # runner, which ignores it; the job completes and serving goes on.
        app1 = ServeApp(runs_dir=tmp_path, execute=StubRunner())
        status, payload = app1.submit({
            "kind": "evaluate",
            "params": {"scheme": "duet", "samples": 200, "seed": 27}})
        assert status == 201
        job_id = payload["job"]["job_id"]
        path = app1.journal.path
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        records[0]["params"]["cell_timeout"] = cell_timeout
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

        with live_server(runs_dir=tmp_path) as (app, client):
            assert app.registry.get(job_id).params["cell_timeout"] \
                == cell_timeout
            events = list(client.watch(job_id))
            assert events[-1]["event"] == "completed"
            status, payload = client.submit(
                "campaign", {"runs": 0, "events": 200, "seed": 3})
            assert status == 201
            events = list(client.watch(payload["job"]["job_id"]))
            assert events[-1]["event"] == "completed"

    @pytest.mark.parametrize("stats", ["materialize", "streaming"])
    def test_replayed_campaign_job_with_stats_completes(self, tmp_path,
                                                        stats):
        # A journal written while campaign still took stats: replay does
        # not normalize params again, so the old key reaches the runner,
        # which ignores it; the job completes and serving goes on.
        app1 = ServeApp(runs_dir=tmp_path, execute=StubRunner())
        status, payload = app1.submit({
            "kind": "campaign",
            "params": {"runs": 0, "events": 200, "seed": 27}})
        assert status == 201
        job_id = payload["job"]["job_id"]
        path = app1.journal.path
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        records[0]["params"]["stats"] = stats
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

        with live_server(runs_dir=tmp_path) as (app, client):
            assert app.registry.get(job_id).params["stats"] == stats
            events = list(client.watch(job_id))
            assert events[-1]["event"] == "completed"
            status, payload = client.submit(
                "campaign", {"runs": 0, "events": 200, "seed": 3})
            assert status == 201
            events = list(client.watch(payload["job"]["job_id"]))
            assert events[-1]["event"] == "completed"

    def test_compaction_then_replay_is_identity(self, tmp_path):
        app1 = ServeApp(runs_dir=tmp_path, execute=StubRunner())
        self._submit(app1, 24)
        status, payload = self._submit(app1, 25)
        failed = app1.registry.get(payload["job"]["job_id"])
        failed.state = "failed"
        failed.error = "RuntimeError: boom"
        failed.finished_at = time.time()
        app1.registry.finish(failed)
        app1.journal.record_terminal(failed)

        before = app1.journal.replay()
        app1.journal.compact(before.jobs)
        after = app1.journal.replay()
        assert [j.to_dict() for j in after.jobs] \
            == [j.to_dict() for j in before.jobs]
        assert after.requeued == before.requeued == 1
        assert after.terminal == before.terminal == 1


class TestClientRetries:
    def test_connection_refused_retries_with_backoff(self):
        sleeps = []
        # a port nothing listens on: every attempt is connection-refused
        client = ServeClient("http://127.0.0.1:9", retries=3,
                             sleep=sleeps.append, draw=lambda: 0.0)
        with pytest.raises(ServeError, match="cannot reach"):
            client.request("GET", "/v1/stats")
        policy = client.retry_policy
        assert sleeps == [policy.backoff_s(1, 0.0),
                          policy.backoff_s(2, 0.0),
                          policy.backoff_s(3, 0.0)]
        assert sleeps == sorted(sleeps)  # exponential, not constant

    def test_429_retried_until_capacity(self, tmp_path):
        runner = StubRunner()
        runner.gate.clear()
        with live_server(runs_dir=tmp_path, execute=runner,
                         max_queue=1) as (app, client):
            _, first = client.submit("campaign", dict(CAMPAIGN, seed=31))
            first_id = first["job"]["job_id"]
            assert wait_for(lambda: client.job(first_id)["state"]
                            == "running")
            _, queued = client.submit("campaign", dict(CAMPAIGN, seed=32))
            queued_id = queued["job"]["job_id"]

            sleeps = []

            def free_slot_then_sleep(_s):
                # first backoff: release the queue slot, as a queued-job
                # cancellation would in production
                sleeps.append(_s)
                client.cancel(queued_id)

            retrying = ServeClient(client.url, retries=3,
                                   sleep=free_slot_then_sleep,
                                   draw=lambda: 0.0)
            status, payload = retrying.submit(
                "campaign", dict(CAMPAIGN, seed=33))
            assert status == 201
            assert len(sleeps) == 1
            runner.gate.set()
            list(client.watch(payload["job"]["job_id"]))

    def test_watch_resumes_from_last_event_id(self, tmp_path):
        runner = StubRunner()
        with live_server(runs_dir=tmp_path, execute=runner) \
                as (app, client):
            _, payload = client.submit("campaign", dict(CAMPAIGN, seed=34))
            job_id = payload["job"]["job_id"]
            events = list(client.watch(job_id))
            assert events[-1]["event"] == "completed"
            # a reconnect with Last-Event-ID replays only the tail
            resume_after = events[1]["id"]
            tail = list(client._watch_once(job_id, resume_after, 10.0))
            assert [e["id"] for e in tail] \
                == [e["id"] for e in events if e["id"] > resume_after]
            # an id beyond the rebuilt history still yields the terminal
            # event (the closed-channel exception), never a hung stream
            beyond = list(client._watch_once(
                job_id, events[-1]["id"] + 50, 10.0))
            assert [e["event"] for e in beyond] == ["completed"]
