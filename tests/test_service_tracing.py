"""Live-server contract tests for distributed tracing and profiling.

Single-server coverage against a real :class:`ServiceServer` on an
ephemeral port (the tracing fleet contract — cross-shard stitching —
runs against a ``spawn_fleet`` subprocess, same as
``tests/test_service_fleet.py``):

* every response carries ``X-Trace-Id`` and the envelope's
  ``trace_id``, and an inbound W3C ``traceparent`` is honoured;
* ``GET /trace/{id}`` resolves a kept trace to a stitched span tree
  (and 404s unknown ids; 400s malformed ids);
* ``GET /debug/traces`` summarises the flight-recorder ring;
* ``GET /metrics`` carries OpenMetrics exemplars that the promtext
  parser round-trips;
* ``GET /debug/profile`` returns non-empty collapsed stacks, rejects
  bad durations, and 429s a concurrent profile;
* ``trace_off`` (the ``--trace-off`` path) disables all of it;
* a 2-worker fleet stitches a proxied request across both pids with
  exactly one root span, and both workers' access logs carry the
  trace id (owner-side ``owner: true``, client-facing
  ``proxied: true``).
"""

import json
import threading
import time

import pytest

from repro.obs.promtext import parse_exemplars, validate_exposition
from repro.service import (
    ServiceClient,
    ServiceConfig,
    shutdown_gracefully,
    start_background,
)
from repro.service.supervisor import spawn_fleet

BENCH = "compress"
#: seed_offset base private to this module
SEED_BASE = 70_000


@pytest.fixture(scope="module")
def server():
    # sample_rate 1.0: every finished trace must land in the ring so
    # the tests can resolve the ids they just saw.
    server, _ = start_background(
        ServiceConfig(port=0, threads=2, trace_sample=1.0)
    )
    yield server
    shutdown_gracefully(server, drain_seconds=5)


@pytest.fixture
def client(server):
    with ServiceClient(port=server.port) as client:
        yield client


class TestTraceIds:
    def test_every_response_names_its_trace(self, client):
        status, document = client.request_raw("GET", "/healthz")
        assert status == 200
        assert client.last_trace_id
        assert len(client.last_trace_id) == 32
        assert document["trace_id"] == client.last_trace_id

    def test_fresh_trace_per_request(self, client):
        client.request_raw("GET", "/healthz")
        first = client.last_trace_id
        client.request_raw("GET", "/healthz")
        assert client.last_trace_id != first

    def test_inbound_traceparent_is_honoured(self, server):
        import http.client

        inbound = "ab" * 16
        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            connection.request(
                "GET",
                "/healthz",
                headers={"traceparent": f"00-{inbound}-{'cd' * 8}-01"},
            )
            response = connection.getresponse()
            response.read()
            assert response.getheader("X-Trace-Id") == inbound
        finally:
            connection.close()


class TestTraceEndpoint:
    def _heavy_trace_id(self, client, seed):
        client.request(
            "POST",
            "/artifacts",
            {"name": BENCH, "scale": 1, "seed_offset": SEED_BASE + seed},
        )
        return client.last_trace_id

    def test_kept_trace_resolves_to_span_tree(self, client):
        trace_id = self._heavy_trace_id(client, 1)
        doc = client.request("GET", f"/trace/{trace_id}")
        assert doc["trace_id"] == trace_id
        assert doc["route"] == "artifacts"
        assert doc["status"] == 200
        spans = doc["spans"]
        assert spans, "kept trace must carry spans"
        names = {span["name"] for span in spans}
        assert "service.request" in names
        roots = [s for s in spans if s["parent_id"] is None]
        assert len(roots) == 1
        assert len(doc["tree"]) == len(spans)
        events = doc["chrome"]["traceEvents"]
        assert {e["args"]["span_id"] for e in events} == {
            s["span_id"] for s in spans
        }

    def test_unknown_trace_is_404(self, client):
        status, document = client.request_raw("GET", f"/trace/{'f' * 32}")
        assert status == 404
        assert document["error"]["code"] == "trace_not_found"

    def test_malformed_trace_id_is_400(self, client):
        status, document = client.request_raw("GET", "/trace/nonsense")
        assert status == 400
        assert document["error"]["code"] == "bad_request"

    def test_debug_traces_summarises_ring(self, client):
        trace_id = self._heavy_trace_id(client, 2)
        doc = client.request("GET", "/debug/traces")
        assert doc["enabled"] is True
        assert doc["sample_rate"] == 1.0
        (recorder,) = doc["recorders"]
        assert recorder["retained"] >= 1
        assert trace_id in {t["trace_id"] for t in recorder["traces"]}


class TestExemplars:
    def test_metrics_carry_resolvable_exemplars(self, client):
        client.request(
            "POST",
            "/artifacts",
            {"name": BENCH, "scale": 1, "seed_offset": SEED_BASE + 3},
        )
        status, document = client.request_raw("GET", "/metrics")
        assert status == 200
        text = document["raw"]
        validate_exposition(text)  # raises ExpositionError on violation
        exemplars = parse_exemplars(text)
        assert exemplars, "latency buckets must carry exemplars"
        trace_id = exemplars[0]["exemplar"]["trace_id"]
        status, _ = client.request_raw("GET", f"/trace/{trace_id}")
        assert status == 200


class TestProfileEndpoint:
    def test_profile_returns_collapsed_stacks(self, client):
        status, document = client.request_raw(
            "GET", "/debug/profile?seconds=0.3"
        )
        assert status == 200
        text = document["raw"]
        assert text.strip()
        for line in text.strip().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0

    @pytest.mark.parametrize("seconds", ["0", "-1", "99", "nan", "bogus"])
    def test_bad_seconds_is_400(self, client, seconds):
        status, document = client.request_raw(
            "GET", f"/debug/profile?seconds={seconds}"
        )
        assert status == 400
        assert document["error"]["code"] == "bad_request"

    def test_concurrent_profile_is_refused(self, server):
        results = {}

        def fetch(key):
            with ServiceClient(port=server.port, timeout=30.0) as client:
                status, _ = client.request_raw(
                    "GET", "/debug/profile?seconds=1"
                )
                results[key] = status

        first = threading.Thread(target=fetch, args=("first",))
        first.start()
        time.sleep(0.3)  # let the first profile acquire the lock
        fetch("second")
        first.join()
        assert results["first"] == 200
        assert results["second"] == 429


class TestTraceOff:
    def test_trace_off_disables_the_layer(self):
        server, _ = start_background(
            ServiceConfig(port=0, threads=2, trace_off=True)
        )
        try:
            with ServiceClient(port=server.port) as client:
                status, document = client.request_raw("GET", "/healthz")
                assert status == 200
                assert client.last_trace_id is None
                assert "trace_id" not in document
                doc = client.request("GET", "/debug/traces")
                assert doc["enabled"] is False
                (recorder,) = doc["recorders"]
                assert recorder["retained"] == 0
        finally:
            shutdown_gracefully(server, drain_seconds=5)


class TestFleetStitching:
    def test_cross_shard_trace_stitches_across_pids(self, tmp_path):
        log_path = str(tmp_path / "fleet-access.log")
        handle = spawn_fleet(
            workers=2,
            threads=2,
            extra_args=["--trace-sample", "1", "--log-json"],
            log_path=log_path,
        )
        try:
            proxied_doc = None
            with ServiceClient(handle.host, handle.port, timeout=60.0) as client:
                # The accepting worker is decided by the OS; try a few
                # keys until one lands on a non-owner and is proxied.
                for seed in range(40):
                    client.request(
                        "POST",
                        "/artifacts",
                        {
                            "name": BENCH,
                            "scale": 1,
                            "seed_offset": SEED_BASE + 100 + seed,
                        },
                    )
                    doc = client.request(
                        "GET", f"/trace/{client.last_trace_id}"
                    )
                    if doc["notes"].get("proxied"):
                        proxied_doc = doc
                        break
                assert proxied_doc, "no request was proxied across shards"
                spans = proxied_doc["spans"]
                assert len(set(proxied_doc["pids"])) >= 2
                assert len({s["pid"] for s in spans}) >= 2
                roots = [s for s in spans if s["parent_id"] not in
                         {x["span_id"] for x in spans}]
                assert len(roots) == 1
                assert {"service.request", "service.invoke"} <= {
                    s["name"] for s in spans
                }
            trace_id = proxied_doc["trace_id"]
            deadline = time.time() + 5.0
            lines = []
            while time.time() < deadline:
                with open(log_path) as stream:
                    lines = [
                        json.loads(line)
                        for line in stream
                        if line.startswith("{") and trace_id in line
                    ]
                if len(lines) >= 2:
                    break
                time.sleep(0.2)
            assert any(entry.get("owner") is True for entry in lines)
            assert any(entry.get("proxied") is True for entry in lines)
            shards = {entry.get("shard") for entry in lines}
            assert len(shards) == 2
        finally:
            handle.stop()
