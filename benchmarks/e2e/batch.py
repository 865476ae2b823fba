"""The three in-process workloads: the paper's pipeline run as a batch.

Every layer entry point is called through the module or class the
tracer hooks (``artifacts.get_artifacts``, ``replication.tradeoff_curve``,
...), never through a name imported into this file, so a traced run
sees each call.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import repro
from repro import icache, learn, predictors, replication, workloads
from repro.interp import Machine
from repro.obs import OBS
from repro.workloads import artifacts

from layers import batch_layer_metrics
from measure import PROBE_INTERVAL_S, Probe, Round, Run

MAX_STEPS = 100_000_000

ICACHE = icache.CacheConfig(lines=16, line_words=4)

LEARNED = learn.parse_learned_name("learned-perceptron-global-8bit")


def counter_deltas(before: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in OBS.counters().items()}


def curve_selections(planner, points) -> List[Tuple[object, object]]:
    """The curve's upgrades as ``(site, machine)`` picks, in the order
    the sites were first upgraded (a later upgrade of the same site
    replaces its machine), exactly as ``costfn`` realises a prefix."""
    chosen: Dict[object, object] = {}
    for point in points:
        if point.step is None:
            continue
        site, n_states = point.step
        option = next(o for o in planner.plans[site].options if o.n_states == n_states)
        chosen[site] = option.scored.machine
    return list(chosen.items())


def behaviour(program, args, inputs) -> Tuple[tuple, int]:
    """What the interpreter oracle compares, ``(value, output)``, and the
    run's instruction count."""
    result = Machine(program, inputs, MAX_STEPS).run(*args)
    return (result.value, result.output), result.steps


class BatchWorkload:
    """Rounds of in-process work, each a seeded order of the 8 benchmarks."""

    name = ""
    #: span names a traced run of this workload must see fire
    expected_spans: Tuple[str, ...] = ()
    threads = 1

    def __init__(self, run: Run) -> None:
        self.run = run
        run.pin()
        self.names = self.order()
        self.rounds_done = 0
        self.probe: Optional[Probe] = None
        self._counters: Dict[str, float] = {}

    def order(self) -> List[str]:
        """The benchmarks in a fresh seeded order.  Every round draws its
        own: a benchmark's time depends on its place in the round, so
        one order per run ties each latency to the seed."""
        return self.run.rng.sample(workloads.BENCHMARK_NAMES, len(workloads.BENCHMARK_NAMES))

    def use_cache(self, directory: str) -> None:
        os.environ["REPRO_CACHE_DIR"] = directory
        workloads.clear_memory_cache()

    def measure(self, seconds: float, min_rounds: int, traced: bool = False) -> None:
        """Run rounds until the next one would take the timed work past
        *seconds*; untimed oracle checks do not count.  Spans must not
        contain calibration samples, so a traced phase samples only
        between operations."""
        timed = 0.0
        done = 0
        with Probe(None if traced else PROBE_INTERVAL_S) as self.probe:
            while True:
                gc.collect()  # start every round from the same collector state
                first = len(self.probe.samples)
                round_ = Round()
                self.round(self.rounds_done, round_)
                round_.calibrations = self.probe.samples[first:]
                self.run.calibrations.extend(round_.calibrations)
                self.run.rounds.append(round_)
                self.rounds_done += 1
                done += 1
                timed += round_.seconds
                if done >= min_rounds and (self.run.smoke or timed + timed / done > seconds):
                    break
        self.probe = None

    def operation(self, round_: Round, what: str, body: Callable[[], object], latency: bool = True):
        """Time *body* as one operation of *round_*, keyed *what*; an
        exception fails it without ending the run.  With *latency* false
        its time counts toward throughput but not as a latency."""
        gc.collect()
        raw, ref = self.probe.mark()
        self.run.timed(True)
        try:
            result = body()
        except Exception as error:  # the operation boundary: record, keep running
            self.run.check(False, f"{what}: {type(error).__name__}: {error}")
            return None
        finally:
            self.run.timed(False)
        raw_end, ref_end = self.probe.mark()
        round_.add(raw_end - raw, ref_end - ref, what if latency else None)
        return result

    def verify(self) -> None:
        pass

    def close(self) -> None:
        pass

    def begin_traced(self) -> None:
        self._counters = OBS.counters()

    def traced_metrics(self, summary) -> Dict[str, float]:
        metrics = batch_layer_metrics(summary, counter_deltas(self._counters))
        metrics.update(self.run.details.get("layer_quality", {}))
        return metrics


class ReplicateCold(BatchWorkload):
    name = "replicate-cold"
    expected_spans = (
        "artifacts.get", "interp.run", "profiling.encode", "profiling.get_profile",
        "profiling.from_trace", "sm.intra", "sm.loop_exit", "sm.correlated",
        "sm.minimize", "planner.init", "tradeoff.curve", "apply.replication",
        "apply.loop_branch", "apply.validate", "cfg.loop_forest", "cfg.from_function",
        "annotate.measure", "icache.simulate",
    )

    def __init__(self, run: Run) -> None:
        super().__init__(run)
        self.scale = 1 if run.smoke else 2

    def setup(self) -> None:
        """What a cold process pays before its first pipeline step:
        interpreter start, imports and building the eight programs."""
        script = (
            "from repro import icache, replication, workloads\n"
            "for name in workloads.BENCHMARK_NAMES: workloads.get_program(name)\n"
        )
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=source_root)
        for _ in range(self.run.setups):
            with self.run.setup():
                subprocess.run([sys.executable, "-c", script], check=True, env=env)

    def round(self, index: int, round_: Round) -> None:
        # Round r runs seed offset r: round 0 is the paper's input, every
        # round is a fresh (never cached) input, and every seed measures
        # the same inputs (the seed orders the benchmarks).
        offset = index
        self.use_cache(self.run.fresh_dir())
        rows = []
        for name in self.order():
            row = self.operation(round_, name, lambda: self.pipeline(name, offset))
            if row is not None:
                round_.ops += row["events"]
                rows.append(row)
        for row in rows:
            self.run.check(row.pop("ok"), f"{row['benchmark']}@{offset}: replicated run differs")
        if index == 0:
            rows = in_paper_order(rows)
            self.run.details["benchmarks"] = rows
            self.run.quality = replication_quality(rows)
            self.run.details["layer_quality"] = dict(
                promise_metrics(rows),
                **{"icache.est_cpi": sum(r["cycles"] for r in rows) / sum(r["instructions"] for r in rows)},
            )

    def pipeline(self, name: str, offset: int) -> dict:
        run_artifacts = artifacts.get_artifacts(name, scale=self.scale, seed_offset=offset)
        profile = workloads.get_profile(name, self.scale, offset)
        program = workloads.get_program(name)
        planner = replication.ReplicationPlanner(program, profile, max_states=6)
        points = replication.tradeoff_curve(planner, max_size_factor=2.0)
        report = replication.apply_replication(program, curve_selections(planner, points), profile)
        args, inputs = workloads.get_workload(name).seeded_args(self.scale, offset)
        expected, _ = behaviour(program, args, inputs)
        got, instructions = behaviour(report.program, args, inputs)
        measured = replication.measure_annotated(report.program, args, inputs)
        fetches = icache.simulate_icache(report.program, ICACHE, args, inputs)
        return dict(
            prefix_row(name, points[-1], report, measured, len(run_artifacts.trace)),
            ok=expected == got and measured.events == len(run_artifacts.trace),
            instructions=instructions,
            cycles=icache.CostModel().cycles(instructions, measured.mispredictions, fetches.misses),
        )


class ReplicateSweep(BatchWorkload):
    name = "replicate-sweep"
    expected_spans = (
        "profiling.get_profile", "sm.intra", "sm.loop_exit", "sm.correlated",
        "sm.minimize", "planner.init", "tradeoff.curve", "apply.replication",
        "apply.loop_branch", "apply.correlated_branch", "apply.validate",
        "cfg.loop_forest", "cfg.from_function", "annotate.measure", "interp.run",
    )

    #: compress's next upgrade (modelled x9.9) really grows it x8275 and
    #: takes 11 s alone; below it a round takes a few seconds, and
    #: c-compiler's last prefixes (x7.9 modelled, x72 real) still make
    #: replication.apply the heaviest layer.
    MAX_SIZE_FACTOR = 9.5

    def __init__(self, run: Run) -> None:
        super().__init__(run)
        #: each benchmark's original (value, output), the oracle's answer
        self.expected: Dict[str, tuple] = {}

    def setup(self) -> None:
        for _ in range(self.run.setups):
            with self.run.setup():
                self.use_cache(self.run.fresh_dir())
                for name in self.names:
                    artifacts.get_artifacts(name, scale=1)
                    workloads.get_profile(name, 1)

    def round(self, index: int, round_: Round) -> None:
        """Plan each benchmark (counted in throughput), then realise and
        measure every curve prefix, one operation each.  The first round
        checks every prefix against the oracle, untimed; later rounds
        repeat the same transforms in another order."""
        finals: Dict[str, dict] = {}
        for name in self.order():
            planned = self.operation(round_, f"{name} plan", lambda: self.plan(name), latency=False)
            if planned is None:
                continue
            planner, points = planned
            for end in range(len(points)):
                prefix = points[: end + 1]
                outcome = self.operation(
                    round_, f"{name} prefix {end}", lambda: self.realise(name, planner, prefix)
                )
                if outcome is not None:
                    round_.ops += 1
                    if index == 0:
                        finals[name] = self.verify_prefix(name, prefix[-1], *outcome)
        if index == 0:
            rows = in_paper_order(finals.values())
            self.run.details["benchmarks"] = rows
            self.run.quality = replication_quality(rows)
            self.run.details["layer_quality"] = promise_metrics(rows)

    def plan(self, name: str):
        profile = workloads.get_profile(name, 1)
        planner = replication.ReplicationPlanner(workloads.get_program(name), profile, max_states=6)
        return planner, replication.tradeoff_curve(planner, max_size_factor=self.MAX_SIZE_FACTOR)

    def realise(self, name: str, planner, prefix):
        args, inputs = workloads.get_workload(name).seeded_args(1, 0)
        report = replication.apply_replication(
            workloads.get_program(name), curve_selections(planner, prefix), planner.profile
        )
        return report, replication.measure_annotated(report.program, args, inputs)

    def verify_prefix(self, name: str, point, report, measured) -> dict:
        args, inputs = workloads.get_workload(name).seeded_args(1, 0)
        if name not in self.expected:
            self.expected[name] = behaviour(workloads.get_program(name), args, inputs)[0]
        trace_events = len(artifacts.get_artifacts(name, scale=1).trace)
        got, _ = behaviour(report.program, args, inputs)
        self.run.check(
            got == self.expected[name] and measured.events == trace_events,
            f"{name} size {point.size}: replicated run differs",
        )
        return prefix_row(name, point, report, measured, trace_events)


class AnalyzeWarm(BatchWorkload):
    name = "analyze-warm"
    expected_spans = (
        "artifacts.get", "profiling.decode", "profiling.get_profile", "profiling.from_trace",
        "sm.intra", "sm.loop_exit", "sm.correlated", "sm.minimize", "planner.init",
        "cfg.from_function", "tradeoff.curve", "engine.evaluate_many", "learn.fit",
    )

    def __init__(self, run: Run) -> None:
        super().__init__(run)
        self.scale = 1 if run.smoke else 4

    def setup(self) -> None:
        for _ in range(self.run.setups):
            with self.run.setup():
                self.use_cache(self.run.fresh_dir())
                for name in self.names:
                    artifacts.get_artifacts(name, scale=self.scale)

    def round(self, index: int, round_: Round) -> None:
        workloads.clear_memory_cache()
        runs_before = OBS.counters("artifacts.").get("artifacts.interpreter.runs", 0)
        rows = []
        for name in self.order():
            row = self.operation(round_, name, lambda: self.analyze(name))
            if row is not None:
                round_.ops += row["events"]
                rows.append(row)
        runs = OBS.counters("artifacts.").get("artifacts.interpreter.runs", 0) - runs_before
        self.run.check(runs == 0, f"warm round ran the interpreter {runs} times")
        for row in rows:
            self.run.check(
                row["profile_mispredictions"] == row["planner_mispredictions"],
                f"{row['benchmark']}: ProfilePredictor {row['profile_mispredictions']} "
                f"!= planner {row['planner_mispredictions']}",
            )
            rates = row["table5"]
            self.run.check(
                all(a >= b for a, b in zip(rates, rates[1:])),
                f"{row['benchmark']}: Table 5 rates rise with the state count: {rates}",
            )
        if index == 0:
            rows = in_paper_order(rows)
            self.run.details["benchmarks"] = rows
            total = sum(row["executions"] for row in rows)
            wrong = sum(row["best10_wrong"] for row in rows)
            self.run.quality = {
                "mispredict_pct": 100.0 * wrong / total,
                "size_factor": statistics.geometric_mean([row["modelled_size_factor"] for row in rows]),
            }

    def analyze(self, name: str) -> dict:
        run_artifacts = artifacts.get_artifacts(name, scale=self.scale)
        profile = workloads.get_profile(name, self.scale)
        planner = replication.ReplicationPlanner(workloads.get_program(name), profile, max_states=10)
        points = replication.tradeoff_curve(planner)
        results = predictors.evaluate_many(table1_predictors(profile), run_artifacts.trace)
        learn.fit(run_artifacts.trace.columns(), LEARNED, 0.5)
        total = planner.total_executions()
        return {
            "benchmark": name,
            "events": len(run_artifacts.trace),
            "executions": total,
            "profile_mispredictions": results[3].mispredictions,
            "planner_mispredictions": planner.profile_mispredictions(),
            "table5": [planner.best_misprediction_rate(n) for n in range(2, 11)],
            "best10_wrong": total - sum(p.best_correct(10) for p in planner.plans.values()),
            "modelled_size_factor": points[-1].size_factor,
            "upgrades": len(points) - 1,
        }


def table1_predictors(profile) -> list:
    """Table 1's eight strategies, profile fourth (as in the table)."""
    return [
        predictors.LastDirection(),
        predictors.SaturatingCounter(2),
        predictors.two_level_4k(),
        predictors.ProfilePredictor(profile),
        predictors.CorrelationPredictor(profile, 1),
        predictors.LoopPredictor(profile, 1),
        predictors.LoopPredictor(profile, 9),
        predictors.LoopCorrelationPredictor(profile),
    ]


def in_paper_order(rows: Iterable[dict]) -> List[dict]:
    """Per-benchmark rows in ``BENCHMARK_NAMES`` order, so that sums and
    geometric means over them round the same way whatever the seed."""
    return sorted(rows, key=lambda row: workloads.BENCHMARK_NAMES.index(row["benchmark"]))


def prefix_row(name: str, point, report, measured, events: int) -> dict:
    """Promised vs achieved mispredictions and modelled vs real size of
    one realised curve prefix."""
    return {
        "benchmark": name,
        "events": events,
        "promised": point.mispredictions,
        "achieved": measured.mispredictions,
        "modelled_size_factor": point.size_factor,
        "real_size_factor": report.size_factor,
        "size_before": report.size_before,
        "size_after": report.size_after,
    }


def replication_quality(rows: Sequence[dict]) -> Dict[str, float]:
    """The measured misprediction rate and real growth of replicated programs."""
    events = sum(row["events"] for row in rows)
    return {
        "mispredict_pct": 100.0 * sum(row["achieved"] for row in rows) / events,
        "size_factor": statistics.geometric_mean([row["real_size_factor"] for row in rows]),
    }


def promise_metrics(rows: Sequence[dict]) -> Dict[str, float]:
    """How far the replicated programs fall from what the curve promised."""
    events = sum(row["events"] for row in rows)
    return {
        "annotate.promise_gap_pct": 100.0 * sum(r["achieved"] - r["promised"] for r in rows) / events,
        "tradeoff.size_model_ratio": statistics.geometric_mean(
            [row["real_size_factor"] / row["modelled_size_factor"] for row in rows]
        ),
    }


WORKLOADS = {cls.name: cls for cls in (ReplicateCold, ReplicateSweep, AnalyzeWarm)}
