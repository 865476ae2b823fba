"""Service telemetry contract: request ids, /metrics, access log.

Same style as ``test_service.py`` — real HTTP against an ephemeral-port
server — but focused on the observability surface: the ``X-Request-Id``
correlation chain, the Prometheus exposition at ``GET /metrics``, the
JSON access log, and the load generator's server-side quantiles.
"""

import json
import time

import pytest

from repro.obs import validate_exposition
from repro.obs.promtext import exposition_types, histogram_bucket_counts
from repro.service import (
    ServiceClient,
    ServiceConfig,
    shutdown_gracefully,
    start_background,
)
from repro.service.loadgen import server_quantiles_ms
from repro.service.server import new_request_id, sanitize_request_id

BENCH = "compress"


@pytest.fixture(scope="module")
def server():
    server, _ = start_background(
        ServiceConfig(port=0, threads=2, queue_limit=8, log_json=True)
    )
    yield server
    shutdown_gracefully(server, drain_seconds=5)


@pytest.fixture
def client(server):
    with ServiceClient(port=server.port) as client:
        yield client


class TestRequestIds:
    def test_sanitize_accepts_token_ids(self):
        assert sanitize_request_id("abc-123_x.y:z") == "abc-123_x.y:z"
        assert sanitize_request_id("  padded  ") == "padded"

    def test_sanitize_rejects_junk(self):
        assert sanitize_request_id(None) is None
        assert sanitize_request_id("") is None
        assert sanitize_request_id("has spaces") is None
        assert sanitize_request_id("newline\nid") is None
        assert sanitize_request_id("x" * 200) is None

    def test_new_request_id_shape(self):
        rid = new_request_id()
        assert len(rid) == 16 and sanitize_request_id(rid) == rid
        assert new_request_id() != rid

    def test_client_supplied_id_is_echoed(self, client):
        client.request("GET", "/healthz", request_id="trace-me-42")
        assert client.last_request_id == "trace-me-42"

    def test_server_generates_id_when_absent(self, client):
        client.request("GET", "/healthz")
        first = client.last_request_id
        assert first and sanitize_request_id(first) == first
        client.request("GET", "/healthz")
        assert client.last_request_id != first  # fresh id per request

    def test_error_responses_also_carry_the_id(self, client):
        status, _ = client.request_raw(
            "GET", "/no/such/route", request_id="err-id-1"
        )
        assert status == 404
        assert client.last_request_id == "err-id-1"

    def test_request_id_lands_in_span_attrs(self, server, client):
        # Keep every trace while this runs, so GET /trace/{id} can serve
        # it.  The trace is recorded just after the client has read the
        # response — poll briefly instead of racing it.
        flight = server.state.flight
        rate, flight.sample_rate = flight.sample_rate, 1.0
        try:
            _, document = client.request_raw(
                "GET", "/healthz", request_id="span-id-7"
            )
            status, stitched = None, {}
            deadline = time.monotonic() + 5.0
            while status != 200 and time.monotonic() < deadline:
                status, stitched = client.request_raw(
                    "GET", f"/trace/{document['trace_id']}"
                )
                if status != 200:
                    time.sleep(0.01)
        finally:
            flight.sample_rate = rate
        assert status == 200
        attrs = [
            span["attrs"]
            for span in stitched["data"]["spans"]
            if span["name"] == "service.request"
        ]
        assert attrs and attrs[0]["request_id"] == "span-id-7"
        assert attrs[0]["route"] == "healthz"

    def test_access_log_line_is_json_with_request_id(self, client, capfd):
        # The log line is written by the server thread after the
        # response goes out — poll briefly instead of racing it.
        client.request("GET", "/healthz", request_id="logged-id-9")
        stderr = ""
        match = []
        deadline = time.monotonic() + 5.0
        while not match and time.monotonic() < deadline:
            stderr += capfd.readouterr().err
            records = [
                json.loads(line)
                for line in stderr.splitlines()
                if line.startswith("{")
            ]
            match = [r for r in records if r["request_id"] == "logged-id-9"]
            if not match:
                time.sleep(0.01)
        assert match, f"no access-log line for logged-id-9 in: {stderr!r}"
        record = match[0]
        assert record["route"] == "healthz"
        assert record["status"] == 200
        assert record["method"] == "GET"
        assert record["duration_ms"] >= 0


class TestMetricsEndpoint:
    def test_exposition_is_valid_and_typed(self, client):
        client.request("GET", "/healthz")
        client.artifacts(BENCH)
        parsed = validate_exposition(client.metrics())
        types = exposition_types(parsed)
        assert types.get("repro_service_latency_seconds") == "histogram"
        assert types.get("repro_service_latency_seconds_healthz") == "histogram"
        assert types.get("repro_service_requests") == "counter"
        assert types.get("repro_service_requests_per_second") == "gauge"
        assert types.get("repro_service_uptime_seconds") == "gauge"
        assert types.get("repro_service_queue_depth") == "gauge"

    def test_latency_histogram_counts_requests(self, client):
        before = histogram_bucket_counts(
            validate_exposition(client.metrics()), "repro_service_latency_seconds"
        )
        for _ in range(5):
            client.request("GET", "/healthz")
        after = histogram_bucket_counts(
            validate_exposition(client.metrics()), "repro_service_latency_seconds"
        )
        # 5 healthz requests + the before-scrape itself completed in between
        assert sum(after.values()) - sum(before.values()) == 6

    def test_metrics_content_type(self, client):
        status, text = client.request_text("GET", "/metrics")
        assert status == 200
        assert "# TYPE" in text

    def test_post_metrics_is_405(self, client):
        status, body = client.request_raw("POST", "/metrics")
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"

    def test_stats_exposes_rates_and_histogram_summaries(self, client):
        client.request("GET", "/healthz")
        stats = client.stats()
        assert stats["rates"].get("service.requests", 0) > 0
        latency = stats["histograms"]["service.latency_seconds"]
        assert latency["count"] > 0
        assert 0 <= latency["p50"] <= latency["p99"]


class TestServerQuantiles:
    def test_delta_quantiles_from_scrapes(self):
        # two scrapes 100 samples apart: 90 fast (~1ms), 10 slow (~100ms)
        before = {0.001: 50.0}
        after = {0.001: 140.0, 0.1: 10.0}
        result = server_quantiles_ms(before, after)
        assert result["samples"] == 100
        assert result["p50_ms"] == pytest.approx(1.0, rel=0.10)
        assert result["p95_ms"] == pytest.approx(100.0, rel=0.10)

    def test_empty_delta_is_all_zero(self):
        result = server_quantiles_ms({}, {})
        assert result == {
            "samples": 0,
            "p50_ms": 0.0,
            "p95_ms": 0.0,
            "p99_ms": 0.0,
        }
