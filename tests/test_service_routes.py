"""The route table and the one dispatch both transports share.

``handlers.ROUTES`` is the only list of endpoints: the HTTP layer, the
control socket's ``invoke``, metric names, QA and the load generator
all derive from it.  These tests pin what that buys: bounded metric
names, one body check for both transports, an owner that never
re-proxies, and docs that list exactly the declared routes.
"""

import os
import re
import time

import pytest

from repro.obs import OBS
from repro.service import (
    ServiceClient,
    ServiceConfig,
    shutdown_gracefully,
    start_background,
)
from repro.service import handlers
from repro.service.control import _op_invoke
from repro.service.shard import owner_shard, shard_key
from repro.service.state import ApiError, ServiceState

BENCH = "compress"
ARCHITECTURE_MD = os.path.join(
    os.path.dirname(__file__), os.pardir, "docs", "architecture.md"
)


def _declared():
    return {(route.method, route.path) for route in handlers.ROUTES}


class TestTable:
    def test_every_row_is_reachable_by_its_own_path(self):
        for route in handlers.ROUTES:
            path = route.prefix + "x" if route.param else route.path
            methods, captured = handlers.match_route(path)
            assert methods[route.method] is route
            assert captured == ({route.param: "x"} if route.param else {})

    def test_route_names(self):
        assert handlers.route_name("/artifacts") == "artifacts"
        assert handlers.route_name("/debug/traces") == "debug.traces"
        assert handlers.route_name("/trace/" + "ab" * 16) == "trace"
        for path in ("/", "/nope", "/nope/x1", "/trace", "/artifactsx"):
            assert handlers.route_name(path) == handlers.UNMATCHED

    def test_unknown_route_lists_the_fixed_json_endpoints(self):
        with pytest.raises(ApiError) as excinfo:
            handlers.dispatch(None, "GET", "/nope", {}, proxy=True)
        error = excinfo.value.body()["error"]
        assert error["code"] == "unknown_route"
        assert error["details"]["available"] == sorted(
            [
                "GET /healthz", "GET /benchmarks", "GET /stats", "GET /fleet",
                "GET /debug/traces", "POST /artifacts", "POST /predict",
                "POST /machine", "POST /plan", "POST /train",
            ]
        )

    def test_architecture_endpoint_table_matches_the_routes(self):
        with open(ARCHITECTURE_MD, encoding="utf-8") as stream:
            text = stream.read()
        section = text[text.index("## Service layer") :]
        section = section[: section.index("\n## ", 1)]
        rows = set(re.findall(r"^\| `(GET|POST) (/\S*)` \|", section, re.M))
        assert rows == _declared()


class TestMetricCardinality:
    def test_unknown_paths_and_trace_ids_add_at_most_two_names(self):
        server, _ = start_background(ServiceConfig(port=0, threads=2))
        try:
            before_requests = OBS.counter("service.requests")
            before = set(OBS.counters("service.requests."))
            before_hists = set(OBS.snapshot().hists)
            sent = 0
            with ServiceClient(port=server.port) as client:
                for i in range(8):
                    status, _ = client.request_raw("GET", f"/nope/x{i}")
                    assert status == 404
                    status, _ = client.request_raw("GET", f"/trace/{i:032x}")
                    assert status == 404
                    sent += 2
            # counters land just after the response is written
            deadline = time.monotonic() + 5
            while OBS.counter("service.requests") < before_requests + sent:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            added = set(OBS.counters("service.requests.")) - before
            assert len(added) <= 2
            assert added <= {
                "service.requests.unmatched",
                "service.requests.trace",
            }
            added_hists = {
                name
                for name in set(OBS.snapshot().hists) - before_hists
                if name.startswith("service.latency_seconds.")
            }
            assert added_hists <= {
                "service.latency_seconds.unmatched",
                "service.latency_seconds.trace",
            }
        finally:
            shutdown_gracefully(server, drain_seconds=5)


@pytest.fixture
def fleet_state(tmp_path):
    """Worker 0 of a two-worker fleet whose peer's socket never exists."""
    state = ServiceState(
        ServiceConfig(workers=2, shard_index=0, control_dir=str(tmp_path))
    )
    yield state
    state.close()


def _shard_counts():
    return {
        kind: OBS.counter(f"service.shard.{kind}")
        for kind in ("local", "proxied", "fallback_local")
    }


class TestInvoke:
    @pytest.mark.parametrize("body", [None, [1, 2], "x"])
    def test_non_object_body_is_a_400_not_a_500(self, body):
        state = ServiceState(ServiceConfig())
        try:
            errors = OBS.counter("service.control.errors")
            reply = _op_invoke(
                state, {"op": "invoke", "method": "POST", "path": "/plan", "body": body}
            )
        finally:
            state.close()
        assert reply["ok"] is False
        assert reply["error"]["status"] == 400
        assert reply["error"]["code"] == "bad_request"
        assert reply["error"]["message"] == "body must be a JSON object"
        assert OBS.counter("service.control.errors") == errors

    def test_owner_computes_locally_and_http_side_falls_back(self, fleet_state):
        offset = next(
            seed
            for seed in range(4100, 4200)
            if owner_shard(shard_key(BENCH, 1, seed), 2) == 1
        )
        body = {"name": BENCH, "seed_offset": offset}
        before = _shard_counts()
        reply = _op_invoke(
            fleet_state,
            {"op": "invoke", "method": "POST", "path": "/artifacts", "body": body},
        )
        assert reply["ok"] is True
        assert reply["payload"]["source"] == "computed"
        assert "shard" not in reply["payload"]
        assert _shard_counts() == before

        # The accepting side routes: shard 1 owns the key but its
        # control socket is absent, so the request falls back here.
        route, payload = handlers.dispatch(
            fleet_state, "POST", "/artifacts", body, proxy=True
        )
        assert route.name == "artifacts"
        assert payload["source"] == "lru"
        after = _shard_counts()
        assert after["fallback_local"] == before["fallback_local"] + 1
        assert after["local"] == before["local"]
        assert after["proxied"] == before["proxied"]

    def test_invalid_body_is_rejected_before_routing(self, fleet_state):
        before = _shard_counts()
        with pytest.raises(ApiError) as excinfo:
            handlers.dispatch(
                fleet_state, "POST", "/plan", {"name": "no-such"}, proxy=True
            )
        assert excinfo.value.status == 404
        assert _shard_counts() == before
