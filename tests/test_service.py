"""Contract tests for the prediction service against a live server.

Every test talks HTTP to a real ``ServiceServer`` bound to an
ephemeral port — the same code path production traffic takes.  A
module-scoped warm server serves the read-mostly contract tests; the
coalescing/overload/drain tests each boot a private server so they can
pin the worker-pool configuration and patch compute latency.
"""

import json
import socket
import threading
import time

import pytest

from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    shutdown_gracefully,
    start_background,
)
from repro.service import handlers as handlers_module
from repro.service.loadgen import parse_mix, percentile, run_load
from repro.statemachines import machine_from_json

BENCH = "compress"


@pytest.fixture(scope="module")
def server():
    server, _ = start_background(ServiceConfig(port=0, threads=2, queue_limit=8))
    yield server
    shutdown_gracefully(server, drain_seconds=5)


@pytest.fixture
def client(server):
    with ServiceClient(port=server.port) as client:
        yield client


@pytest.fixture
def fresh_server(request):
    """A private server with test-chosen config (torn down per test)."""
    servers = []

    def boot(**overrides):
        config = ServiceConfig(port=0, **overrides)
        server, _ = start_background(config)
        servers.append(server)
        return server

    yield boot
    for server in servers:
        try:
            shutdown_gracefully(server, drain_seconds=5)
        except OSError:
            pass


class TestContract:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["service_version"] == 1
        assert payload["uptime_seconds"] >= 0

    def test_benchmarks_lists_the_suite(self, client):
        names = [b["name"] for b in client.benchmarks()["benchmarks"]]
        assert BENCH in names
        assert len(names) == 8

    def test_artifacts_summary_then_lru_hit(self, client):
        first = client.artifacts(BENCH)
        assert first["events"] > 0
        assert first["steps"] > 0
        assert first["sites"] > 0
        assert first["top_sites"]
        assert first["top_sites"][0]["executions"] >= first["top_sites"][-1]["executions"]
        again = client.artifacts(BENCH)
        assert again["source"] == "lru"
        assert {k: v for k, v in again.items() if k != "source"} == {
            k: v for k, v in first.items() if k != "source"
        }

    def test_predict_profile(self, client):
        payload = client.predict(BENCH, "profile")
        assert payload["predictor"] == "profile"
        assert payload["events"] > 0
        assert 0.0 <= payload["misprediction_rate"] <= 1.0
        assert payload["sites"]
        for site in payload["sites"]:
            assert site["executions"] >= site["mispredictions"]
            # profile predictions are per-site constants
            assert isinstance(site["predicted_taken"], bool)

    def test_predict_unknown_predictor_lists_zoo(self, client):
        with pytest.raises(ServiceError) as info:
            client.predict(BENCH, "oracle")
        assert info.value.status == 404
        assert info.value.code == "unknown_predictor"
        assert "profile" in info.value.details["available"]

    def test_machine_document_round_trips(self, client):
        payload = client.machine(BENCH)
        assert payload["n_states"] >= 2
        assert payload["family"] in ("loop", "correlated")
        assert payload["correct"] > payload["profile_correct"] or payload["correct"] > 0
        machine = machine_from_json(json.dumps(payload["machine"]))
        assert payload["machine"]["version"] == payload["machine_format_version"]
        assert machine.n_states == payload["n_states"]

    def test_machine_unknown_site(self, client):
        with pytest.raises(ServiceError) as info:
            client.machine(BENCH, site="main:nonexistent")
        assert info.value.status == 404
        assert info.value.code == "unknown_site"

    def test_plan_curve(self, client):
        payload = client.plan(BENCH, max_size_factor=2.0)
        assert payload["branches"] > 0
        assert payload["curve"]
        assert payload["final"]["misprediction_rate"] <= (
            payload["profile_misprediction_rate"]
        )
        assert payload["curve"][0]["misprediction_rate"] == (
            payload["profile_misprediction_rate"]
        )
        for point in payload["curve"]:
            assert point["size_factor"] <= 2.0 + 1e-9

    def test_stats_exposes_service_counters(self, client):
        client.healthz()
        payload = client.stats()
        assert payload["counters"]["service.requests"] > 0
        assert "service.requests.healthz" in payload["counters"]
        assert payload["service"]["queue_capacity"] == 10
        assert payload["service"]["draining"] is False


class TestErrors:
    def test_unknown_benchmark_404(self, client):
        status, document = client.request_raw(
            "POST", "/artifacts", {"name": "quake"}
        )
        assert status == 404
        assert document["error"]["code"] == "unknown_benchmark"
        assert BENCH in document["error"]["details"]["available"]

    def test_missing_body_400(self, client):
        status, document = client.request_raw("POST", "/artifacts")
        assert status == 400
        assert document["error"]["code"] == "bad_request"

    def test_malformed_json_400(self, client, server):
        connection = client._connect()
        connection.request(
            "POST",
            "/artifacts",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        document = json.loads(response.read())
        assert response.status == 400
        assert "JSON" in document["error"]["message"]

    def test_non_object_body_400(self, client):
        connection = client._connect()
        connection.request("POST", "/artifacts", body=b"[1, 2]")
        response = connection.getresponse()
        document = json.loads(response.read())
        assert response.status == 400
        assert "object" in document["error"]["message"]

    def test_bad_types_400(self, client):
        for body in (
            {"name": BENCH, "scale": "big"},
            {"name": BENCH, "scale": True},
            {"name": BENCH, "scale": 0},
            {"name": 7},
        ):
            status, document = client.request_raw("POST", "/artifacts", body)
            assert status == 400, body
            assert document["error"]["code"] == "bad_request"

    def test_unknown_route_404_lists_endpoints(self, client):
        status, document = client.request_raw("GET", "/bogus")
        assert status == 404
        assert document["error"]["code"] == "unknown_route"
        assert "POST /artifacts" in document["error"]["details"]["available"]

    def test_method_not_allowed_405(self, client):
        status, document = client.request_raw("POST", "/healthz", {"x": 1})
        assert status == 405
        assert document["error"]["code"] == "method_not_allowed"

    def test_oversized_body_413(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(
                b"POST /artifacts HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: 99999999\r\n"
                b"\r\n"
            )
            response = sock.recv(65536)
        assert b"413" in response.split(b"\r\n", 1)[0]

    def test_internal_errors_return_structured_500(self, fresh_server, monkeypatch):
        server = fresh_server(threads=2, queue_limit=4)

        def explode(name, scale, seed_offset):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(handlers_module, "_artifact_summary", explode)
        with ServiceClient(port=server.port) as client:
            status, document = client.request_raw(
                "POST", "/artifacts", {"name": BENCH}
            )
        assert status == 500
        assert document["error"]["code"] == "internal"
        assert "synthetic failure" in document["error"]["message"]


class TestCoalescing:
    def test_concurrent_identical_requests_compute_once(
        self, fresh_server, monkeypatch
    ):
        server = fresh_server(threads=4, queue_limit=16)
        # The obs counters are process-global and other tests in this
        # module already touched the artifact cache — assert on deltas.
        with ServiceClient(port=server.port) as probe:
            before = probe.stats()["counters"]
        calls = []
        real = handlers_module._artifact_summary

        def slow_summary(name, scale, seed_offset):
            calls.append(1)
            time.sleep(0.3)
            return real(name, scale, seed_offset)

        monkeypatch.setattr(handlers_module, "_artifact_summary", slow_summary)
        clients_n = 6
        barrier = threading.Barrier(clients_n)
        sources = []
        errors = []

        def worker():
            try:
                with ServiceClient(port=server.port, timeout=30) as client:
                    barrier.wait(5)
                    sources.append(client.artifacts(BENCH)["source"])
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(clients_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors
        assert len(calls) == 1, "identical concurrent requests must coalesce"
        assert sources.count("computed") == 1
        assert sources.count("coalesced") == clients_n - 1
        with ServiceClient(port=server.port) as client:
            counters = client.stats()["counters"]

        def delta(name):
            return counters.get(name, 0) - before.get(name, 0)

        assert delta("service.coalesce.hits") == clients_n - 1
        assert delta("service.cache.artifacts.misses") == 1


class TestBackpressure:
    def test_overload_sheds_with_429(self, fresh_server, monkeypatch):
        server = fresh_server(threads=1, queue_limit=0)
        release = threading.Event()
        real = handlers_module._artifact_summary

        def slow_summary(name, scale, seed_offset):
            release.wait(10)
            return real(name, scale, seed_offset)

        monkeypatch.setattr(handlers_module, "_artifact_summary", slow_summary)
        statuses = []
        lock = threading.Lock()
        started = threading.Barrier(4)

        def worker(seed_offset):
            with ServiceClient(port=server.port, timeout=30) as client:
                started.wait(5)
                # Distinct seed offsets so coalescing cannot absorb the
                # overflow — each request needs its own pool slot.
                status, _ = client.request_raw(
                    "POST",
                    "/artifacts",
                    {"name": BENCH, "seed_offset": seed_offset},
                )
                with lock:
                    statuses.append(status)

        threads = [
            threading.Thread(target=worker, args=(offset,)) for offset in range(4)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            with lock:
                if statuses.count(429) >= 1 and len(statuses) >= 3:
                    break
            time.sleep(0.01)
        release.set()
        for thread in threads:
            thread.join(30)
        assert statuses.count(200) >= 1
        assert statuses.count(429) >= 1
        assert all(status in (200, 429) for status in statuses)
        # Rejections are observable.
        with ServiceClient(port=server.port) as client:
            counters = client.stats()["counters"]
        assert counters["service.rejected.overload"] >= 1

    def test_draining_returns_structured_503(self, fresh_server):
        server = fresh_server(threads=2, queue_limit=4)
        server.state.begin_drain()
        with ServiceClient(port=server.port) as client:
            status, document = client.request_raw("GET", "/healthz")
        assert status == 503
        assert document["error"]["code"] == "draining"


class TestGracefulShutdown:
    def test_shutdown_drains_in_flight_requests(self, fresh_server, monkeypatch):
        server = fresh_server(threads=2, queue_limit=4)
        entered = threading.Event()
        real = handlers_module._artifact_summary

        def slow_summary(name, scale, seed_offset):
            entered.set()
            time.sleep(0.5)
            return real(name, scale, seed_offset)

        monkeypatch.setattr(handlers_module, "_artifact_summary", slow_summary)
        outcome = {}

        def in_flight():
            with ServiceClient(port=server.port, timeout=30) as client:
                outcome["response"] = client.artifacts(BENCH)

        requester = threading.Thread(target=in_flight)
        requester.start()
        assert entered.wait(10), "request never reached the handler"
        drained = shutdown_gracefully(server, drain_seconds=10)
        requester.join(10)
        # The in-flight request completed with a real answer...
        assert drained is True
        assert outcome["response"]["events"] > 0
        # ...and the listening socket is gone.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", server.port), timeout=0.5)


class TestLoadgen:
    def test_parse_mix(self):
        assert parse_mix("artifacts=2,healthz=1") == [
            ("artifacts", 2),
            ("healthz", 1),
        ]
        assert parse_mix("healthz") == [("healthz", 1)]
        assert parse_mix("artifacts=0,healthz=3") == [("healthz", 3)]
        with pytest.raises(ValueError):
            parse_mix("bogus=1")
        with pytest.raises(ValueError):
            parse_mix("artifacts=x")
        with pytest.raises(ValueError):
            parse_mix("artifacts=0")

    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 51.0
        assert percentile(values, 0.99) == 100.0
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0

    def test_short_run_against_live_server(self, server):
        report = run_load(
            "127.0.0.1",
            server.port,
            clients=2,
            duration=0.4,
            mix="artifacts=2,healthz=1",
            benchmark=BENCH,
        )
        assert report["requests"] > 0
        assert report["five_xx"] == 0
        assert report["transport_errors"] == 0
        assert report["req_per_s"] > 0
        assert set(report["statuses"]) == {"200"}
        assert report["p99_ms"] >= report["p50_ms"] >= 0
        assert report["server"]["requests"] >= report["requests"]


class TestEnvelopeContract:
    """The v1 response envelope on the wire, and the client's view of it."""

    def test_success_envelope_shape(self, client):
        status, document = client.request_raw("GET", "/healthz")
        assert status == 200
        assert document["v"] == 1
        assert document["ok"] is True
        assert document["data"]["status"] == "ok"

    def test_error_envelope_keeps_inner_error_shape(self, client):
        status, document = client.request_raw("GET", "/bogus")
        assert status == 404
        assert document["v"] == 1
        assert document["ok"] is False
        assert document["error"]["code"] == "unknown_route"
        # retry_after is reserved for backpressure/drain statuses
        assert "retry_after" not in document["error"]

    def test_draining_503_carries_retry_after_in_band(self, fresh_server):
        server = fresh_server(threads=2, queue_limit=8)
        server.state.begin_drain()
        with ServiceClient(port=server.port) as client:
            status, document = client.request_raw("GET", "/healthz")
            assert status == 503
            assert document["error"]["code"] == "draining"
            assert document["error"]["retry_after"] == 1
            with pytest.raises(ServiceError) as excinfo:
                client.request("GET", "/healthz")
            assert excinfo.value.code == "draining"
            assert excinfo.value.retry_after == 1

    def test_request_unwraps_to_payload(self, client):
        payload = client.request("GET", "/healthz")
        assert "v" not in payload
        assert payload["status"] == "ok"

    def test_predict_many_round_trip(self, client):
        results = client.predict_many(
            [
                (BENCH, "profile"),
                {"name": BENCH, "predictor": "profile", "seed_offset": 31},
            ]
        )
        assert len(results) == 2
        assert all(r["predictor"] == "profile" for r in results)
        assert all(r["events"] > 0 for r in results)
