"""Fleet mode end to end: fork, shard, proxy, merge, restart, drain.

The fleet under test is always a **subprocess** (via
:func:`repro.service.supervisor.spawn_fleet`) — pytest runs threads,
and forking a fleet from a threaded process would clone held locks
into every worker.  The subprocess publishes a ``--ready-file`` the
tests poll for ports and pids.

Covered here:

* supervisor boots N workers behind one port and reports them on
  ``GET /fleet``;
* heavy requests are answered correctly no matter which worker
  accepts (cross-shard proxying), and the shard counters account for
  every routing decision;
* ``/stats`` is the exact fleet-wide merge (counters sum across
  workers);
* killing a worker mid-traffic causes **zero failed requests** and the
  supervisor restarts the shard within its backoff budget;
* SIGTERM drains the whole fleet to a clean exit;
* the startup-SIGTERM regression: a signal delivered before the
  listener binds exits promptly instead of arming the drain timer
  against a server that never started (driven via the
  ``REPRO_SERVE_TEST_BIND_DELAY`` hook).
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service.client import ServiceClient
from repro.service.control import socket_path
from repro.service.shard import owner_shard, shard_key
from repro.service.supervisor import spawn_fleet

WORKERS = 3
BENCH = "compress"
#: seed_offset base private to this module (cold keys, no cross-test reuse)
SEED_BASE = 60_000


@pytest.fixture(scope="module")
def fleet():
    handle = spawn_fleet(workers=WORKERS, threads=2)
    yield handle
    handle.stop()


@pytest.fixture
def client(fleet):
    with ServiceClient(fleet.host, fleet.port, timeout=60.0) as c:
        yield c


def _merged_counters(client):
    return client.stats().get("counters", {})


def _wait_for(predicate, timeout, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestTopology:
    def test_ready_file_reports_every_worker(self, fleet):
        assert fleet.ready["workers"] == WORKERS
        assert len(fleet.pids) == WORKERS
        assert len(set(fleet.pids)) == WORKERS
        assert fleet.control_dir and os.path.isdir(fleet.control_dir)

    def test_fleet_endpoint_lists_all_workers_alive(self, client):
        doc = client.request("GET", "/fleet")
        assert doc["workers"] == WORKERS
        assert doc["alive"] == WORKERS
        assert doc["unreachable"] == []
        shards = sorted(entry["shard"] for entry in doc["fleet"])
        assert shards == list(range(WORKERS))
        assert all(entry["pid"] for entry in doc["fleet"])

    def test_control_sockets_exist_per_worker(self, fleet):
        for shard in range(WORKERS):
            assert os.path.exists(socket_path(fleet.control_dir, shard))


class TestShardedRequests:
    def test_heavy_requests_succeed_regardless_of_accepting_worker(
        self, client
    ):
        # one cold key per shard — wherever each request lands, the
        # response must be the correct artifact summary
        for offset in range(SEED_BASE, SEED_BASE + 6):
            doc = client.artifacts(BENCH, scale=1, seed_offset=offset)
            assert doc["benchmark"] == BENCH
            assert doc["seed_offset"] == offset
            assert doc["source"] in {"computed", "lru", "coalesced"}

    def test_every_routing_decision_is_accounted(self, client):
        before = _merged_counters(client)
        n = 8
        for offset in range(SEED_BASE + 100, SEED_BASE + 100 + n):
            client.artifacts(BENCH, scale=1, seed_offset=offset)

        def routed():
            after = _merged_counters(client)
            return sum(
                after.get(c, 0) - before.get(c, 0)
                for c in (
                    "service.shard.local",
                    "service.shard.proxied",
                    "service.shard.fallback_local",
                )
            )

        # counters live on whichever worker handled each request; the
        # merged view must account for exactly one decision per request
        assert _wait_for(lambda: routed() >= n, timeout=5.0)
        assert routed() == n

    def test_proxied_response_carries_owner_annotation(self, client):
        # probe until a request is answered by a non-owner (the shared
        # socket spreads accepts, so a handful of keys suffice)
        for offset in range(SEED_BASE + 200, SEED_BASE + 230):
            doc = client.artifacts(BENCH, scale=1, seed_offset=offset)
            shard_info = doc.get("shard")
            if shard_info is not None:
                key = shard_key(BENCH, 1, offset)
                assert shard_info["owner"] == owner_shard(key, WORKERS)
                assert shard_info["proxied_by"] != shard_info["owner"]
                return
        pytest.skip("every probe landed on its owner (possible but rare)")

    def test_stats_are_merged_across_workers(self, client):
        before = _merged_counters(client).get("service.requests", 0)
        n = 10
        for _ in range(n):
            client.healthz()
        # requests spread over all workers; only the fleet-wide merge
        # can see every one of them
        assert _wait_for(
            lambda: _merged_counters(client).get("service.requests", 0)
            - before
            >= n,
            timeout=5.0,
        )


class TestChaosRestart:
    def test_killed_worker_restarts_and_no_request_fails(self, fleet, client):
        victim_shard = 1
        victim_pid = fleet.pids[victim_shard]
        os.kill(victim_pid, signal.SIGKILL)
        # keep firing heavy requests across all shards while the shard
        # is down; proxy-to-dead-owner must fall back locally, never 5xx
        for offset in range(SEED_BASE + 300, SEED_BASE + 312):
            status, doc = client.request_raw(
                "POST",
                "/artifacts",
                {"name": BENCH, "scale": 1, "seed_offset": offset},
            )
            assert status == 200, doc
        # backoff starts at 0.2s; well inside the budget the supervisor
        # must have respawned the shard with a fresh pid
        assert _wait_for(
            lambda: fleet.refresh_ready()["pids"][victim_shard]
            not in (victim_pid, None),
            timeout=10.0,
        ), fleet.ready
        assert fleet.ready["restarts"] >= 1
        # and the new worker answers on the control plane again
        assert _wait_for(
            lambda: client.request("GET", "/fleet")["alive"] == WORKERS,
            timeout=10.0,
        )


class TestFleetShutdown:
    def test_sigterm_drains_the_whole_fleet_cleanly(self):
        handle = spawn_fleet(workers=2, threads=2)
        with ServiceClient(handle.host, handle.port, timeout=30.0) as c:
            c.healthz()
        assert handle.stop(timeout=30.0) == 0
        # every worker is gone, not just the supervisor
        for pid in handle.pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)


    def test_stop_is_prompt_with_a_keepalive_connection_open(self, tmp_path):
        # One connection wakes every worker polling the shared listener;
        # a worker that loses the accept race must not sit in accept()
        # through SIGTERM, or the supervisor waits out the drain budget
        # and SIGKILLs it.  The race is lost in roughly one boot in six
        # on a 2-vCPU VM, so boot several fleets.
        for attempt in range(8):
            log = tmp_path / f"fleet-{attempt}.log"
            handle = spawn_fleet(workers=2, threads=2, log_path=str(log))
            time.sleep(0.5)  # both workers back in poll()
            with ServiceClient(handle.host, handle.port, timeout=30.0) as c:
                c.healthz()
                started = time.monotonic()
                assert handle.stop(timeout=30.0) == 0
                elapsed = time.monotonic() - started
            stderr = log.read_text()
            assert elapsed < 5.0, stderr
            assert stderr.count("repro-service stopped") == 2, stderr
            assert "killed lingering workers" not in stderr

    def test_stop_removes_the_ready_file(self):
        handle = spawn_fleet(workers=2, threads=2)
        assert os.path.exists(handle.ready_file)
        assert handle.stop(timeout=30.0) == 0
        assert not os.path.exists(handle.ready_file)


class TestStartupSigterm:
    def _serve_subprocess(self, extra_env, *args):
        env = dict(os.environ, **extra_env)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            env=env,
            stderr=subprocess.PIPE,
        )

    def test_sigterm_before_bind_exits_promptly(self):
        # the bind-delay hook parks startup for 30s; the signal must cut
        # that short — the old code hung in wait_idle via the drain path
        process = self._serve_subprocess({"REPRO_SERVE_TEST_BIND_DELAY": "30"})
        try:
            time.sleep(2.0)  # interpreter up, handlers installed, pre-bind
            started = time.monotonic()
            process.terminate()
            stderr = process.communicate(timeout=10)[1]
            elapsed = time.monotonic() - started
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode == 0, stderr
        assert elapsed < 5.0, f"took {elapsed:.1f}s to die during startup"
        assert b"stopped before binding" in stderr
