"""Serve-mode job lifecycle, chaos determinism, and drain semantics.

Three layers, cheapest first: the :class:`JobQueue` alone, the
controller's per-episode SLO trigger idempotency (the double-breach
regression), then full :class:`ServeSession`/:class:`ServiceDaemon`
integration — including the acceptance scenario (two same-seed chaos
sessions with a worker kill and an SLO breach must produce
bit-identical merged stats) and SIGTERM during a replay.
"""

import asyncio
import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.nic.sharding import JOURNAL_CHECKPOINT_BYTES
from repro.service import (
    JobQueue,
    JobState,
    ServeSession,
    ServiceClient,
    ServiceError,
    SessionConfig,
)
from repro.service.jobs import QueueClosedError


def wait_until(predicate, timeout_s=10.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


# ---------------------------------------------------------------------------
# JobQueue
# ---------------------------------------------------------------------------


class TestJobQueue:
    def test_fifo_execution_and_results(self):
        queue = JobQueue()
        order = []

        def make(tag):
            def fn(job):
                order.append(tag)
                return tag

            return fn

        jobs = [
            queue.submit("noop", {}, make(i)) for i in range(4)
        ]
        for job in jobs:
            assert job.done_event.wait(5.0)
        assert order == [0, 1, 2, 3]
        assert [j.state for j in jobs] == [JobState.DONE] * 4
        assert [j.result for j in jobs] == [0, 1, 2, 3]
        assert queue.drain(timeout_s=5.0)

    def test_cancel_queued_job_never_runs(self):
        queue = JobQueue()
        gate = threading.Event()
        ran = []

        first = queue.submit("slow", {}, lambda job: gate.wait(5.0))
        second = queue.submit(
            "victim", {}, lambda job: ran.append(True)
        )
        assert queue.cancel(second.id) is second
        assert second.state == JobState.CANCELLED
        gate.set()
        assert first.done_event.wait(5.0)
        assert ran == []
        assert queue.drain(timeout_s=5.0)

    def test_cancel_running_is_cooperative(self):
        queue = JobQueue()
        started = threading.Event()

        def fn(job):
            started.set()
            job.cancel_event.wait(5.0)
            return "stopped-early"

        job = queue.submit("loop", {}, fn)
        assert started.wait(5.0)
        queue.cancel(job.id)
        assert job.done_event.wait(5.0)
        # Ran to (early) completion but the cancel request wins the
        # terminal state; the partial result is still kept.
        assert job.state == JobState.CANCELLED
        assert job.result == "stopped-early"
        assert queue.drain(timeout_s=5.0)

    def test_failure_is_captured_not_fatal(self):
        queue = JobQueue()
        bad = queue.submit(
            "boom", {}, lambda job: (_ for _ in ()).throw(ValueError("x"))
        )
        good = queue.submit("ok", {}, lambda job: 7)
        assert bad.done_event.wait(5.0)
        assert good.done_event.wait(5.0)
        assert bad.state == JobState.FAILED
        assert "ValueError" in bad.error
        assert good.state == JobState.DONE
        assert queue.drain(timeout_s=5.0)

    def test_drain_rejects_new_and_cancels_backlog(self):
        queue = JobQueue()
        gate = threading.Event()
        running = queue.submit("slow", {}, lambda job: gate.wait(5.0))
        backlog = queue.submit("later", {}, lambda job: 1)
        # Drain cancels whatever is still queued: wait until the worker
        # thread has actually popped the first job.
        assert wait_until(lambda: queue.running is running)
        drained = []
        t = threading.Thread(
            target=lambda: drained.append(
                queue.drain(cancel_running=False, timeout_s=10.0)
            )
        )
        t.start()
        assert wait_until(lambda: queue.closed)
        assert backlog.done_event.wait(5.0)
        assert backlog.state == JobState.CANCELLED
        with pytest.raises(QueueClosedError):
            queue.submit("nope", {}, lambda job: 2)
        gate.set()
        t.join(10.0)
        assert drained == [True]
        assert running.state == JobState.DONE

    def test_drain_cancel_running_flips_event(self):
        queue = JobQueue()
        started = threading.Event()

        def fn(job):
            started.set()
            job.cancel_event.wait(5.0)
            return "interrupted"

        job = queue.submit("slow", {}, fn)
        assert started.wait(5.0)
        assert queue.drain(cancel_running=True, timeout_s=10.0)
        assert job.state == JobState.CANCELLED


# ---------------------------------------------------------------------------
# SLO trigger idempotency (double-breach regression)
# ---------------------------------------------------------------------------


class TestSloEpisodeIdempotency:
    def make_controller(self):
        from repro.core.controller import (
            ControllerOptions,
            PipeleonController,
        )
        from repro.ir import linear_program
        from repro.ir.tables import MatchType
        from repro.nic.targets import BLUEFIELD2

        return PipeleonController(
            linear_program("p", 4, MatchType.TERNARY),
            BLUEFIELD2,
            options=ControllerOptions(profile_period_s=100.0),
            enabled=False,
        )

    def breach(self, rule="heartbeat_staleness_s", shard=0):
        return {"kind": "slo_breach", "rule": rule, "shard": shard}

    def clear(self, rule="heartbeat_staleness_s", shard=0):
        return {"kind": "slo_clear", "rule": rule, "shard": shard}

    def test_double_breach_consumes_once_per_episode(self):
        controller = self.make_controller()
        controller._on_slo_event(self.breach())
        # Re-latched breach of the same episode before its clear (the
        # kill-injection race): must NOT arm a second replan.
        controller._on_slo_event(self.breach())
        assert controller.slo_breaches_seen == 2
        assert controller.slo_breaches_suppressed == 1
        assert controller.consume_slo_trigger() is True
        assert controller.consume_slo_trigger() is False

    def test_clear_rearms_the_scope(self):
        controller = self.make_controller()
        controller._on_slo_event(self.breach())
        assert controller.consume_slo_trigger() is True
        controller._on_slo_event(self.breach())
        assert controller.consume_slo_trigger() is False
        controller._on_slo_event(self.clear())
        controller._on_slo_event(self.breach())
        assert controller.consume_slo_trigger() is True
        assert controller.slo_breaches_suppressed == 1

    def test_distinct_scopes_are_independent(self):
        controller = self.make_controller()
        controller._on_slo_event(self.breach(shard=0))
        controller._on_slo_event(self.breach(shard=1))
        assert controller.slo_breaches_suppressed == 0
        assert controller.consume_slo_trigger() is True
        controller._on_slo_event(self.breach(rule="p99_latency_ns", shard=None))
        assert controller.slo_breaches_suppressed == 0


# ---------------------------------------------------------------------------
# ServeSession + ServiceDaemon integration
# ---------------------------------------------------------------------------


def chaos_config(tmp_path, metrics=False):
    rules = tmp_path / "slo.json"
    rules.write_text(
        json.dumps([{"metric": "heartbeat_staleness_s", "max": 2.0}])
    )
    return SessionConfig(
        jobs=2,
        recovery="respawn",
        faults=("kill:shard=0,batch=3",),
        fault_seed="11",
        heartbeat_interval_s=0.01,
        live_interval_s=0.03,
        profile_period_s=100.0,
        slo_rules_path=str(rules),
        serve_metrics_port=0 if metrics else None,
    )


REPLAY = dict(
    scenario="flash_crowd",
    seed="7",
    packets_per_tick=150,
    kwargs={"steady_s": 4, "spike_s": 3, "decay_s": 0},
)


def thread_names():
    return sorted(t.name for t in threading.enumerate())


class TestServeSessionChaos:
    def run_chaos_session(self, tmp_path):
        session = ServeSession(chaos_config(tmp_path))
        try:
            result = session.run_replay(dict(REPLAY))
            # The staleness clear lands on the first aggregator sample
            # after the respawned worker heartbeats again — give the
            # episode a moment to close while the fleet is still up.
            watchdog = session.live_plane.watchdog
            wait_until(
                lambda: watchdog.clears >= watchdog.breaches, 10.0
            )
            result["slo_final"] = {
                "breaches": watchdog.breaches,
                "clears": watchdog.clears,
                "active": watchdog.active_breaches,
            }
        finally:
            session.close()
        return result

    def test_same_seed_chaos_runs_are_bit_identical(self, tmp_path):
        """The acceptance check: kill + SLO breach, two same-seed runs.

        The injected worker kill breaches heartbeat staleness exactly
        once (the respawn-counter latch), the breach schedules exactly
        one replan, and the merged RunStats of both runs agree bit for
        bit.
        """
        before = thread_names()
        first = self.run_chaos_session(tmp_path)
        second = self.run_chaos_session(tmp_path)
        assert first["ticks"] == 7
        assert first["cancelled"] is False
        assert sum(first["respawns"]) >= 1  # the kill really fired
        for result in (first, second):
            assert result["slo"]["breaches"] == 1
            assert result["slo_final"]["breaches"] == 1
            assert result["slo_final"]["clears"] == 1
            assert result["slo_final"]["active"] == []
        assert (
            first["stats"]["fingerprint"]
            == second["stats"]["fingerprint"]
        )
        assert first["stats"]["packets"] == 7 * 150
        # No leaked worker helpers or server threads after close.
        assert wait_until(lambda: thread_names() == before), (
            f"leaked threads: {set(thread_names()) - set(before)}"
        )

    def test_session_report_and_status(self, tmp_path):
        session = ServeSession(chaos_config(tmp_path))
        try:
            session.run_replay(dict(REPLAY))
            status = session.status()
            assert status["replays"] == 1
            assert status["slo_breaches"] == 1
            assert sum(status["worker_respawns"]) >= 1
            # The respawn journal is live state: one entry per shard,
            # non-empty after a replay and below one checkpoint.
            journal = status["journal_bytes"]
            assert len(journal) == status["jobs"]
            assert all(
                0 < size < JOURNAL_CHECKPOINT_BYTES for size in journal
            )
            report = session.run_report({})
            assert report["replays"] == 1
            assert report["slo_breaches_seen"] >= 1
        finally:
            session.close()

    def test_replay_shorter_than_live_interval_reports_breach(
        self, tmp_path
    ):
        """``run_replay`` samples the fleet before it reports SLO state.

        With a 5 s aggregator interval the background thread never
        samples inside this ~50 ms replay, so the kill would go
        unreported in the result's ``slo`` block.
        """
        config = dataclasses.replace(
            chaos_config(tmp_path), live_interval_s=5.0
        )
        session = ServeSession(config)
        try:
            result = session.run_replay(dict(REPLAY))
            assert sum(result["respawns"]) >= 1
            assert result["slo"]["breaches"] == 1
            assert session.status()["slo_breaches"] == 1
        finally:
            session.close()



class TestServeSessionOneCore:
    def test_live_totals_stay_monotone_across_a_redeploy(self):
        """At ``jobs=1`` the feed moves to each redeployed emulator:
        the live totals keep counting every replay's packets, and the
        columnar total keeps the replaced emulators' share. The scrape
        endpoint serves the in-process feed as shard 0, with no
        heartbeat age and no ring."""
        session = ServeSession(
            SessionConfig(
                app="dash_routing",
                jobs=1,
                baseline="none",
                profile_period_s=2.0,
                serve_metrics_port=0,
            )
        )
        try:
            total = 0
            for replay in range(2):
                result = session.run_replay(dict(REPLAY, seed=str(replay)))
                assert result["reoptimized_ticks"] >= 1  # it redeployed
                assert result["respawns"] == []
                total += result["stats"]["packets"]
                sample = session.live_plane.aggregator.sample()
                assert sample["packets"] == total
                assert sample["columnar_packets"] + sum(
                    sample["demotions"].values()
                ) == total
            assert session.controller.reoptimizations >= 2
            status = session.status()
            assert status["jobs"] == 1 and status["replays"] == 2
            assert status["worker_respawns"] == []
            assert status["journal_bytes"] == []
            report = session.run_report({})
            assert report["replays"] == 2 and report["flight_rows"] > 0
            url = f"http://127.0.0.1:{session.metrics_port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as response:
                text = response.read().decode("utf-8")
            assert f'pipeleon_live_packets_total{{shard="0"}} {total}' in (
                text.splitlines()
            )
            for family in ("heartbeat_age_s", "ring_occupancy", "ring_stalls"):
                assert f"pipeleon_live_{family}" not in text
        finally:
            session.close()

    def test_fault_plan_is_an_error(self):
        config = SessionConfig(jobs=1, faults=("kill:shard=0,batch=3",))
        with pytest.raises(ValueError, match="fault plan needs jobs > 1"):
            ServeSession(config)


class DaemonHarness:
    """Run a ServiceDaemon's asyncio loop on a worker thread."""

    def __init__(self, tmp_path, config=None):
        from repro.service import ServiceDaemon

        self.socket_path = str(tmp_path / "repro.sock")
        self.session = ServeSession(
            config
            or SessionConfig(jobs=2, profile_period_s=100.0)
        )
        self.daemon = ServiceDaemon(self.session, self.socket_path)
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.daemon.serve()),
            daemon=True,
        )
        self.thread.start()
        # The socket file exists between bind() and listen(); retry
        # until a round-trip actually succeeds.
        def ready():
            try:
                with ServiceClient(self.socket_path, 5.0) as probe:
                    return probe.ping() == {"pong": True}
            except (OSError, ConnectionError):
                return False

        if not wait_until(ready, 15.0):
            raise RuntimeError("daemon never became ready")

    def client(self):
        return ServiceClient(self.socket_path, timeout_s=60.0)

    def join(self, timeout_s=30.0):
        self.thread.join(timeout_s)
        assert not self.thread.is_alive()


class TestServiceDaemon:
    def test_job_lifecycle_submit_wait_cancel_drain(self, tmp_path):
        harness = DaemonHarness(tmp_path)
        try:
            with harness.client() as client:
                assert client.ping() == {"pong": True}
                assert "flash_crowd" in client.scenarios()

                job_id = client.submit("replay", **REPLAY)
                done = client.wait(job_id, timeout_s=120.0)
                assert done["state"] == "done"
                assert done["result"]["ticks"] == 7

                # Cancellation mid-replay: a long scenario, cancelled
                # once running, settles as cancelled with the exact
                # stats of its completed ticks.
                long_id = client.submit(
                    "replay",
                    scenario="diurnal_zipf",
                    seed="1",
                    packets_per_tick=200,
                )
                assert wait_until(
                    lambda: client.job(long_id)["state"]
                    in ("running", "done"),
                    30.0,
                )
                client.cancel(long_id)
                settled = client.wait(long_id, timeout_s=120.0)
                assert settled["state"] == "cancelled"

                status = client.status()
                assert status["replays"] >= 1
                assert status["queue"]["draining"] is False

                bad = client.submit("replay")  # missing scenario name
                failed = client.wait(bad, timeout_s=30.0)
                assert failed["state"] == "failed"
                assert "scenario" in failed["error"]

                with pytest.raises(ServiceError) as excinfo:
                    client.request("submit", {"op": "nonsense"})
                assert excinfo.value.code == "bad_request"

                assert client.drain()["draining"] is True
            harness.join()
            assert harness.daemon.drained_cleanly is True
            assert not os.path.exists(harness.socket_path)
        finally:
            harness.session.close()  # idempotent belt-and-braces

    def test_drain_rejects_submit(self, tmp_path):
        harness = DaemonHarness(tmp_path)
        try:
            with harness.client() as client:
                client.drain()
                with pytest.raises((ServiceError, ConnectionError)):
                    client.submit("report")
            harness.join()
            assert harness.daemon.drained_cleanly is True
        finally:
            harness.session.close()


@pytest.mark.slow
class TestSigtermDuringReplay:
    def test_sigterm_cancels_replay_and_drains_cleanly(self, tmp_path):
        """SIGTERM mid-replay: cancel at a tick boundary, exit 0."""
        socket_path = str(tmp_path / "serve.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--socket",
                socket_path,
                "--jobs",
                "2",
                "--profile-period",
                "100",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            ready = json.loads(proc.stdout.readline())
            assert ready["event"] == "ready"
            assert ready["socket"] == socket_path
            with ServiceClient(socket_path) as client:
                job_id = client.submit(
                    "replay",
                    scenario="diurnal_zipf",
                    seed="3",
                    packets_per_tick=200,
                )
                assert wait_until(
                    lambda: client.job(job_id)["state"] == "running",
                    30.0,
                )
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=120)
            assert proc.returncode == 0, proc.stderr.read()
            assert not os.path.exists(socket_path)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
