"""Real end-to-end journeys driven against a :class:`LiveWorld`.

A journey is a named sequence of steps; each step performs real traffic
(through the recording client) and may assert its own expectations
(:func:`~repro.qa.core.expect` — "the thing I set out to do happened").
After every step the runner settles the world and evaluates the whole
invariant catalog, so a journey is simultaneously a scenario *and* a
continuous consistency probe.

Keys are chosen from disjoint ``seed_offset`` ranges per journey so a
step's cache expectations (``computed`` vs ``lru``) are deterministic:
each journey gets a fresh world (fresh daemon, fresh cache dir), and
within it only the journey's own calls can warm a key.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .core import expect
from .world import LiveWorld

Step = Tuple[str, Callable[[], None]]

#: The benchmark every journey drives — small enough that a full
#: artifacts→predict→machine→plan chain is sub-second, rich enough
#: that /machine finds an improvable branch.
BENCH = "compress"
PREDICTOR = "profile"


@dataclass(frozen=True)
class Journey:
    name: str
    description: str
    build: Callable[[LiveWorld], List[Step]]
    workers_min: int = 1


def _expect_200(record, **context) -> dict:
    expect(record.status == 200, f"{record.method} {record.path} failed",
           status=record.status, body=repr(record.document)[:200], **context)
    return record.data


def _source(record) -> Optional[str]:
    data = record.data
    return data.get("source") if isinstance(data, dict) else None


# -- journey: pipeline -------------------------------------------------------


def build_pipeline(world: LiveWorld) -> List[Step]:
    """The paper's full flow as a service conversation:
    artifacts → predict → machine → plan, then a warm replay."""

    def artifacts_cold() -> None:
        record = world.call("POST", "/artifacts", {"name": BENCH})
        data = _expect_200(record)
        expect(data.get("sites", 0) > 0, "no branch sites in artifacts", data=data)
        expect(_source(record) == "computed", "first artifacts not computed",
               source=_source(record))

    def predict() -> None:
        record = world.call(
            "POST", "/predict", {"name": BENCH, "predictor": PREDICTOR}
        )
        data = _expect_200(record)
        expect(data.get("predictor") == PREDICTOR, "wrong predictor echoed",
               data={k: data.get(k) for k in ("predictor", "events")})

    def machine() -> None:
        record = world.call("POST", "/machine", {"name": BENCH})
        data = _expect_200(record)
        expect(data.get("n_states", 0) >= 2, "machine too small", data=data)

    def plan() -> None:
        record = world.call("POST", "/plan", {"name": BENCH, "max_size_factor": 2.0})
        data = _expect_200(record)
        expect(data.get("branches", 0) > 0, "plan saw no branches")

    def replay_warm() -> None:
        record = world.call("POST", "/artifacts", {"name": BENCH})
        _expect_200(record)
        expect(_source(record) == "lru", "replayed artifacts not served from lru",
               source=_source(record))
        record = world.call(
            "POST", "/predict", {"name": BENCH, "predictor": PREDICTOR}
        )
        _expect_200(record)
        expect(_source(record) == "lru", "replayed predict not served from lru",
               source=_source(record))

    return [
        ("artifacts-cold", artifacts_cold),
        ("predict", predict),
        ("machine", machine),
        ("plan", plan),
        ("replay-warm", replay_warm),
    ]


# -- journey: cold_burst -----------------------------------------------------


def build_cold_burst(world: LiveWorld) -> List[Step]:
    """Concurrent identical cold-key traffic (exercises single-flight
    coalescing) followed by a scan of distinct cold keys."""

    def burst_identical() -> None:
        body = {"name": BENCH, "predictor": PREDICTOR, "seed_offset": 101}
        records = world.parallel([{"path": "/predict", "body": body}] * 6)
        expect(len(records) == 6, "burst lost calls", got=len(records))
        for record in records:
            _expect_200(record, burst="identical")
        sources = sorted(_source(r) for r in records)
        expect(sources.count("computed") >= 1, "nobody computed the burst key",
               sources=sources)

    def cold_scan() -> None:
        for offset in range(200, 206):
            record = world.call(
                "POST", "/artifacts", {"name": BENCH, "seed_offset": offset}
            )
            _expect_200(record, seed_offset=offset)
            expect(_source(record) == "computed", "cold key not computed",
                   seed_offset=offset, source=_source(record))

    def rewarm() -> None:
        # Under a withdrawn stable_fleet (e.g. a killed worker that
        # respawned with an empty cache) a warmed key may legitimately
        # be recomputed; only hold the lru line on a stable fleet.
        warm_sources = ("lru", "coalesced")
        if "stable_fleet" not in world.conditions:
            warm_sources = ("lru", "coalesced", "computed")
        for offset in range(200, 206):
            record = world.call(
                "POST", "/artifacts", {"name": BENCH, "seed_offset": offset}
            )
            _expect_200(record, seed_offset=offset)
            expect(_source(record) in warm_sources,
                   "warmed key recomputed", seed_offset=offset,
                   source=_source(record))

    return [
        ("burst-identical", burst_identical),
        ("cold-scan", cold_scan),
        ("rewarm", rewarm),
    ]


# -- journey: error_paths ----------------------------------------------------


def build_error_paths(world: LiveWorld) -> List[Step]:
    """Every error class the contract defines."""

    def unknown_route() -> None:
        record = world.call("GET", "/nope")
        expect(record.status == 404, "unknown route not 404", status=record.status)
        expect(record.error_doc.get("code") == "unknown_route",
               "wrong code", code=record.error_doc.get("code"))

    def method_not_allowed() -> None:
        record = world.call("GET", "/artifacts")
        expect(record.status == 405, "GET /artifacts not 405", status=record.status)
        expect(record.error_doc.get("code") == "method_not_allowed",
               "wrong code", code=record.error_doc.get("code"))

    def unknown_benchmark() -> None:
        record = world.call("POST", "/artifacts", {"name": "no-such-benchmark"})
        expect(record.status == 404, "unknown benchmark not 404", status=record.status)
        expect(record.error_doc.get("code") == "unknown_benchmark",
               "wrong code", code=record.error_doc.get("code"))

    def bad_body() -> None:
        record = world.call("POST", "/predict", {"name": BENCH, "predictor": 7})
        expect(record.status == 400, "bad body not 400", status=record.status)

    def unknown_predictor() -> None:
        record = world.call(
            "POST", "/predict", {"name": BENCH, "predictor": "no-such-predictor"}
        )
        expect(record.status == 404, "unknown predictor not 404",
               status=record.status)
        expect(record.error_doc.get("code") == "unknown_predictor",
               "wrong code", code=record.error_doc.get("code"))

    return [
        ("unknown-route", unknown_route),
        ("method-not-allowed", method_not_allowed),
        ("unknown-benchmark", unknown_benchmark),
        ("bad-body", bad_body),
        ("unknown-predictor", unknown_predictor),
    ]


# -- journey: shard_spread ---------------------------------------------------


def build_shard_spread(world: LiveWorld) -> List[Step]:
    """Distinct keys spread over the fleet's rendezvous shards — some
    proxied to their owner — then a quiet step so the merged-vs-worker
    comparison runs against settled traffic."""

    def spread() -> None:
        proxied = 0
        for offset in range(300, 308):
            record = world.call(
                "POST", "/artifacts", {"name": BENCH, "seed_offset": offset}
            )
            data = _expect_200(record, seed_offset=offset)
            if isinstance(data, dict) and "shard" in data:
                proxied += 1
        world.notes["proxied_calls"] = proxied
        # 8 keys over >=2 shards through one fronting connection: the
        # odds every key is owned by the fronting worker are 2^-8.
        expect(proxied >= 1, "no request was proxied to an owning shard",
               proxied=proxied)

    def settle_and_compare() -> None:
        # no traffic: the post-step invariant sweep (fleet.merge_exact,
        # fleet.roster_sane) is the point of this step.
        time.sleep(0.1)

    return [
        ("spread", spread),
        ("settle-and-compare", settle_and_compare),
    ]


# -- journey: drain_while_loaded ---------------------------------------------


def build_drain_while_loaded(world: LiveWorld) -> List[Step]:
    """Flip the drain flag while requests are in flight: in-flight work
    finishes (200), late arrivals get structured 503s, and /metrics
    stays scrapeable throughout (asserted by drain.contract)."""

    def warm() -> None:
        record = world.call("POST", "/artifacts", {"name": BENCH})
        _expect_200(record)

    def drain_under_load() -> None:
        drainer_done = threading.Event()

        def drainer() -> None:
            time.sleep(0.05)  # let the burst get in flight first
            world.drain_all()
            drainer_done.set()

        thread = threading.Thread(target=drainer, daemon=True)
        thread.start()
        specs = [
            {"path": "/artifacts", "body": {"name": BENCH, "seed_offset": 600 + i}}
            for i in range(4)
        ]
        records = world.parallel(specs)
        thread.join(timeout=10.0)
        expect(drainer_done.is_set(), "drain flag was never flipped")
        statuses = sorted(r.status for r in records if r.status is not None)
        expect(set(statuses) <= {200, 503}, "drain produced a status outside {200,503}",
               statuses=statuses)

    def post_drain() -> None:
        record = world.call("GET", "/healthz")
        expect(record.status == 503, "healthz not 503 while draining",
               status=record.status)
        expect(record.error_doc.get("code") == "draining", "wrong drain code",
               code=record.error_doc.get("code"))

    return [
        ("warm", warm),
        ("drain-under-load", drain_under_load),
        ("post-drain", post_drain),
    ]


# -- journey: train_then_predict ---------------------------------------------

#: The learned model the training journey exercises end to end.
LEARNED = "learned-perceptron-global-8bit"


def build_train_then_predict(world: LiveWorld) -> List[Step]:
    """Train-as-a-service: POST /train produces a versioned model,
    /predict deploys it, a replayed /train is a cache hit — and the
    machine/plan pipeline is provably untouched throughout."""

    def train_cold() -> None:
        record = world.call("POST", "/train", {"name": BENCH, "predictor": LEARNED})
        data = _expect_200(record)
        expect(_source(record) == "computed", "first train not computed",
               source=_source(record))
        expect(data.get("model_format_version") == 1, "wrong model format version",
               version=data.get("model_format_version"))
        model = data.get("model")
        expect(isinstance(model, dict) and model.get("version") == 1,
               "model document missing its version stamp",
               model_keys=sorted(model) if isinstance(model, dict) else model)
        expect(data.get("sites_learned", 0) > 0, "trained model learned no sites",
               sites_learned=data.get("sites_learned"))
        expect(data.get("holdout", {}).get("events", 0) > 0,
               "train reported no holdout evaluation", holdout=data.get("holdout"))

    def predict_learned() -> None:
        record = world.call(
            "POST", "/predict", {"name": BENCH, "predictor": LEARNED}
        )
        data = _expect_200(record)
        expect(data.get("predictor") == LEARNED, "wrong predictor echoed",
               predictor=data.get("predictor"))
        expect(data.get("events", 0) > 0, "learned predict saw no events",
               events=data.get("events"))
        expect(data.get("learned", {}).get("model_format_version") == 1,
               "learned predict missing model metadata", learned=data.get("learned"))

    def train_warm() -> None:
        # Same stable-fleet caveat as cold_burst's rewarm: a respawned
        # worker legitimately recomputes.
        warm_sources = ("lru", "coalesced")
        if "stable_fleet" not in world.conditions:
            warm_sources = ("lru", "coalesced", "computed")
        record = world.call("POST", "/train", {"name": BENCH, "predictor": LEARNED})
        _expect_200(record)
        expect(_source(record) in warm_sources, "replayed train recomputed",
               source=_source(record))

    def machine_plan_untouched() -> None:
        counters = world.counters()
        for cache in ("planner", "plan"):
            for kind in ("hits", "misses", "coalesced"):
                delta = world.counter_delta(
                    counters, f"service.cache.{cache}.{kind}"
                )
                expect(delta == 0,
                       "training traffic reached the machine/plan pipeline",
                       cache=cache, kind=kind, delta=delta)

    return [
        ("train-cold", train_cold),
        ("predict-learned", predict_learned),
        ("train-warm", train_warm),
        ("machine-plan-untouched", machine_plan_untouched),
    ]


# -- catalog -----------------------------------------------------------------


JOURNEYS: Dict[str, Journey] = {
    journey.name: journey
    for journey in (
        Journey(
            "pipeline",
            "artifacts → predict → machine → plan, then a warm replay",
            build_pipeline,
        ),
        Journey(
            "cold_burst",
            "concurrent identical cold key (coalescing) + distinct cold-key scan",
            build_cold_burst,
        ),
        Journey(
            "error_paths",
            "every error class of the v1 contract",
            build_error_paths,
        ),
        Journey(
            "train_then_predict",
            "POST /train → learned /predict → warm replay; machine/plan untouched",
            build_train_then_predict,
        ),
        Journey(
            "shard_spread",
            "distinct keys across rendezvous shards; merged-vs-worker comparison",
            build_shard_spread,
            workers_min=2,
        ),
        Journey(
            "drain_while_loaded",
            "drain flag flipped mid-burst; 503 contract while /metrics stays live",
            build_drain_while_loaded,
            workers_min=2,
        ),
    )
}
