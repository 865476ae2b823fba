"""The route table and the one dispatch both transports share.

``handlers.ROUTES`` is the only list of endpoints: the HTTP layer, the
control socket's ``invoke``, metric names, QA and the load generator
all derive from it.  These tests pin what that buys: bounded metric
names, one body check for both transports, an owner that never
re-proxies, docs that list exactly the declared routes and body
fields, and a typed rejection for every bad value of every field.
"""

import json
import math
import os
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir import BranchSite
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
from repro.workloads import BENCHMARK_NAMES

BENCH = "compress"
ARCHITECTURE_MD = os.path.join(
    os.path.dirname(__file__), os.pardir, "docs", "architecture.md"
)


def _declared():
    return {(route.method, route.path) for route in handlers.ROUTES}


def _field_row(field):
    """(kind, default, bounds) as the architecture doc's field table
    spells them."""
    kind = {int: "int", float: "number", str: "string", BranchSite: "`function:block`"}
    if field.default is handlers.REQUIRED:
        default = "required"
    else:
        default = "absent" if field.default is None else str(field.default)
    if field.low is not None:
        bounds = f"{'(' if field.low_open else '['}{field.low}, {field.high}]"
    else:
        assert not field.choices or field.choices == tuple(BENCHMARK_NAMES)
        bounds = (
            "a benchmark name, else 404 `unknown_benchmark` listing them"
            if field.choices
            else ""
        )
    return kind[field.kind], default, bounds


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
        rows = re.findall(r"^\| `(GET|POST) (/\S*)` \|([^|]*)\|", section, re.M)
        assert {(method, path) for method, path, _ in rows} == _declared()
        assert {
            (method, path, tuple(re.findall(r"`(\w+)`", fields)))
            for method, path, fields in rows
        } == {
            (route.method, route.path, tuple(field.name for field in route.body))
            for route in handlers.ROUTES
        }
        documented = {
            name: tuple(cell.strip() for cell in cells)
            for name, *cells in re.findall(
                r"^\| `(\w+)` \|([^|]*)\|([^|]*)\|([^|]*)\|$", section, re.M
            )
        }
        fields = {field.name: field for route in handlers.ROUTES for field in route.body}
        assert documented == {name: _field_row(field) for name, field in fields.items()}


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


# -- the POST body contract ----------------------------------------------------

LEARNED = "learned-perceptron-global-8bit"
#: marks a field left out of the body
MISSING = object()

#: One valid body per POST route; each fault below replaces one field.
VALID_BODIES = {
    "/artifacts": {"name": BENCH},
    "/predict": {"name": BENCH, "predictor": "profile"},
    "/machine": {"name": BENCH},
    "/plan": {"name": BENCH},
    "/train": {"name": BENCH, "predictor": LEARNED},
}


def _string_faults():
    return [7, [], True, "", MISSING]


def _int_faults(low, high):
    return ["1", [], True, 1.5, low - 1, high + 1]


_TRIPLE_FAULTS = {
    "name": _string_faults(),
    "scale": _int_faults(1, 16),
    "seed_offset": _int_faults(-(2**31), 2**31),
}
#: path -> field -> values, each of which alone makes the body a 400
BAD_REQUEST_FAULTS = {
    "/artifacts": _TRIPLE_FAULTS,
    "/predict": dict(_TRIPLE_FAULTS, predictor=_string_faults()),
    "/machine": dict(
        _TRIPLE_FAULTS, max_states=_int_faults(2, 10), site=[7, [], True, "", "main"]
    ),
    "/plan": dict(
        _TRIPLE_FAULTS,
        max_states=_int_faults(2, 10),
        max_size_factor=["9", [], True, 0.999, 100.5],
    ),
    "/train": dict(
        _TRIPLE_FAULTS, predictor=_string_faults(), split=["0.5", [], True, 0, -0.5, 1.5]
    ),
}
SINGLE_FAULTS = [
    (path, field, value)
    for path, fields in BAD_REQUEST_FAULTS.items()
    for field, values in fields.items()
    for value in values
]


def _with(path, field, value):
    body = dict(VALID_BODIES[path])
    if value is MISSING:
        body.pop(field, None)
    else:
        body[field] = value
    return body


@pytest.fixture(scope="module")
def contract_state():
    state = ServiceState(ServiceConfig())
    yield state
    state.close()


def _planner_counters():
    return OBS.counters("service.cache.planner.")


class TestBodyContract:
    """Every declared POST field, one fault at a time, through the
    dispatch both transports share."""

    @pytest.mark.parametrize(
        "path,field,value",
        SINGLE_FAULTS,
        ids=[f"{p}-{f}-{'missing' if v is MISSING else repr(v)}" for p, f, v in SINGLE_FAULTS],
    )
    def test_single_fault_is_a_400(self, contract_state, path, field, value):
        with pytest.raises(ApiError) as excinfo:
            handlers.dispatch(
                contract_state, "POST", path, _with(path, field, value), proxy=False
            )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert "available" not in excinfo.value.details

    @pytest.mark.parametrize("path", sorted(VALID_BODIES))
    def test_unknown_benchmark_is_a_404_listing_the_names(self, contract_state, path):
        with pytest.raises(ApiError) as excinfo:
            handlers.dispatch(
                contract_state, "POST", path, _with(path, "name", "quake"), proxy=False
            )
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_benchmark"
        assert excinfo.value.details["available"] == list(BENCHMARK_NAMES)

    def test_bad_machine_site_is_rejected_before_the_planner(self):
        state = ServiceState(ServiceConfig())
        try:
            before = _planner_counters()
            with pytest.raises(ApiError) as excinfo:
                handlers.dispatch(
                    state, "POST", "/machine", {"name": BENCH, "site": 7}, proxy=False
                )
            assert excinfo.value.status == 400
            assert _planner_counters() == before
            assert len(state.planners) == 0
        finally:
            state.close()


# -- boundary fuzzing generated from the declarations ---------------------------

def _bad_values(field):
    """Values that break *field*, by its kind: other JSON types, bools,
    +-10**400, NaN/Infinity, out-of-range numbers, unknown names."""
    others = [
        st.booleans(),
        st.lists(st.integers(), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    ]
    if field.default is not None:
        others.append(st.none())
    huge = st.sampled_from([10**400, -(10**400)])
    if field.kind is int:
        return st.one_of(
            *others, huge, st.text(max_size=3), st.floats(),
            st.integers(max_value=field.low - 1), st.integers(min_value=field.high + 1),
        )
    if field.kind is float:
        return st.one_of(
            *others, huge, st.text(max_size=3),
            st.sampled_from([math.nan, math.inf, -math.inf]),
            st.floats(max_value=field.low, exclude_max=not field.low_open),
            st.floats(min_value=field.high, exclude_min=True),
            st.integers(max_value=math.floor(field.low) - 1),
            st.integers(min_value=math.floor(field.high) + 1),
        )
    numbers = st.one_of(huge, st.integers(), st.floats())
    if field.kind is BranchSite:
        return st.one_of(*others, numbers, st.text().filter(lambda t: ":" not in t))
    bad = [*others, numbers, st.just("")]
    if field.choices:
        bad.append(st.text(min_size=1).filter(lambda t: t not in field.choices))
    return st.one_of(*bad)


@pytest.fixture(scope="module")
def guarded_state(tmp_path_factory):
    """A fleet worker whose peer never answers and whose pool fails the
    test: a rejected body may reach neither."""
    state = ServiceState(
        ServiceConfig(
            workers=2, shard_index=0, control_dir=str(tmp_path_factory.mktemp("ctl"))
        )
    )

    def run_heavy(fn):
        pytest.fail("a rejected body reached the worker pool")

    state.run_heavy = run_heavy
    yield state
    state.close()


@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_generated_bad_bodies_get_a_typed_rejection(guarded_state, data):
    post_routes = [route for route in handlers.ROUTES if route.body]
    route = data.draw(st.sampled_from(post_routes), label="route")
    field = data.draw(st.sampled_from(route.body), label="field")
    body = dict(VALID_BODIES[route.path])
    body[field.name] = data.draw(_bad_values(field), label="value")
    proxy = data.draw(st.booleans(), label="proxy")
    before = OBS.counters("service.cache.")
    shards = _shard_counts()
    with pytest.raises(ApiError) as excinfo:
        handlers.dispatch(guarded_state, "POST", route.path, body, proxy=proxy)
    assert excinfo.value.status in (400, 404)
    json.dumps(excinfo.value.body())  # the envelope can carry it
    assert OBS.counters("service.cache.") == before
    assert _shard_counts() == shards
