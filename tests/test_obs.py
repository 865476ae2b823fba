"""Observability core tests: spans, counters, exporters.

Spans are collected only under a trace, so the span tests run with a
trace active on the test thread and read back its span dicts.
"""

import json

import pytest

from repro.obs import (
    NULL_SPAN,
    OBS,
    Observer,
    default_observer,
    snapshot_to_json,
    summary_lines,
    trace_chrome_doc,
)


@pytest.fixture
def obs():
    """A private observer with a trace active on this thread (the
    process OBS stays untouched)."""
    observer = Observer()
    observer.start_trace()
    yield observer
    observer.end_trace()


def collected(observer):
    """The span dicts the observer's active trace has collected."""
    return observer.current_trace().span_dicts()


class TestSpans:
    def test_records_name_duration_and_attrs(self, obs):
        with obs.span("stage.work", benchmark="compress") as span:
            span.set(events=42)
        (record,) = collected(obs)
        assert record["name"] == "stage.work"
        assert record["duration"] >= 0
        assert record["attrs"] == {"benchmark": "compress", "events": 42}
        assert record["trace_id"] == obs.current_trace().trace_id

    def test_nesting_depth(self, obs):
        with obs.span("outer"):
            with obs.span("middle"):
                with obs.span("inner"):
                    pass
        by_name = {record["name"]: record for record in collected(obs)}
        depths = {name: record["depth"] for name, record in by_name.items()}
        assert depths == {"outer": 0, "middle": 1, "inner": 2}
        assert by_name["outer"]["parent_id"] is None
        assert by_name["middle"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["inner"]["parent_id"] == by_name["middle"]["span_id"]

    def test_depth_resets_between_top_level_spans(self, obs):
        with obs.span("first"):
            pass
        with obs.span("second"):
            pass
        assert [record["depth"] for record in collected(obs)] == [0, 0]

    def test_exception_still_records_span_with_error_attr(self, obs):
        with pytest.raises(ValueError):
            with obs.span("exploding"):
                raise ValueError("boom")
        (record,) = collected(obs)
        assert record["attrs"]["error"] == "ValueError"

    def test_exception_does_not_corrupt_later_depths(self, obs):
        with pytest.raises(RuntimeError):
            with obs.span("outer"):
                with obs.span("inner"):
                    raise RuntimeError
        with obs.span("after"):
            pass
        by_name = {record["name"]: record for record in collected(obs)}
        assert by_name["after"]["depth"] == 0
        assert by_name["after"]["parent_id"] is None

    def test_leaked_span_is_repaired_on_exit(self, obs):
        # An inner span entered but never exited must not leave the
        # stack one deeper: exiting the outer span pops both.
        with obs.span("outer"):
            obs.span("leaked").__enter__()
        with obs.span("after"):
            pass
        by_name = {record["name"]: record for record in collected(obs)}
        assert by_name["after"]["depth"] == 0
        assert obs.current_span_id() is None

    def test_disabled_observer_hands_out_null_span(self):
        # Without an active trace there is nothing to collect into.
        observer = Observer()
        assert observer.current_trace() is None
        assert observer.span("anything") is NULL_SPAN
        with observer.span("anything") as span:
            span.set(ignored=True)
        assert observer.current_span_id() is None

    def test_spans_collect_only_while_a_trace_is_active(self):
        observer = Observer()
        trace = observer.start_trace()
        with observer.span("seen"):
            pass
        assert observer.end_trace() is trace
        with observer.span("unseen"):
            pass
        assert [record["name"] for record in trace.span_dicts()] == ["seen"]

    def test_span_records_pid_and_tid(self, obs):
        import os
        import threading

        with obs.span("here"):
            pass
        (record,) = collected(obs)
        assert record["pid"] == os.getpid()
        assert record["tid"] == threading.get_ident()


class TestCounters:
    def test_add_creates_and_increments(self):
        observer = Observer()
        observer.add("a.hits")
        observer.add("a.hits", 4)
        assert observer.counter("a.hits") == 5

    def test_counters_are_live_without_enable(self):
        observer = Observer()
        assert observer.current_trace() is None
        observer.add("a.x")
        assert observer.counters() == {"a.x": 1}

    def test_gauge_last_write_wins(self):
        observer = Observer()
        observer.set_gauge("a.score", 0.25)
        observer.set_gauge("a.score", 0.75)
        assert observer.counter("a.score") == 0.75

    def test_prefix_filtered_view(self):
        observer = Observer()
        observer.add("a.x")
        observer.add("b.y")
        assert observer.counters("a.") == {"a.x": 1}

    def test_reset_prefix_isolates_subsystems(self):
        observer = Observer()
        observer.add("engine.events", 10)
        observer.add("artifacts.cache.hits", 3)
        observer.observe("engine.scan_seconds", 0.5)
        observer.reset(prefix="engine.")
        assert observer.counter("engine.events") == 0
        assert observer.counter("artifacts.cache.hits") == 3
        assert observer.histograms() == {}

    def test_full_reset_clears_everything(self):
        observer = Observer()
        observer.add("a.x")
        observer.set_gauge("a.level", 2)
        observer.observe("a.seconds", 0.5)
        observer.reset()
        assert observer.counters() == {}
        assert observer.histograms() == {}
        assert observer.snapshot().gauges == frozenset()

    def test_snapshot_is_a_copy(self):
        observer = Observer()
        observer.add("a.x")
        snapshot = observer.snapshot()
        observer.add("a.x")
        assert snapshot.counters == {"a.x": 1}

    def test_merge_namespaces_counters(self):
        observer = Observer()
        observer.add("artifacts.interpreter.runs")
        observer.merge(
            {"artifacts.interpreter.runs": 2}, counter_prefix="workers."
        )
        assert observer.counter("artifacts.interpreter.runs") == 1
        assert observer.counter("workers.artifacts.interpreter.runs") == 2

    def test_merge_gauges_overwrite_instead_of_summing(self):
        # Worker gauges are levels: two workers each reporting a best
        # score of 0.9 must not merge into 1.8.
        observer = Observer()
        observer.merge(
            {"sm.intra.best_score": 0.9, "sm.intra.candidates": 5},
            counter_prefix="workers.",
            gauges=["sm.intra.best_score"],
        )
        observer.merge(
            {"sm.intra.best_score": 0.8, "sm.intra.candidates": 7},
            counter_prefix="workers.",
            gauges=["sm.intra.best_score"],
        )
        # gauge: last write wins; counter: summed
        assert observer.counter("workers.sm.intra.best_score") == 0.8
        assert observer.counter("workers.sm.intra.candidates") == 12
        # the merged name is remembered as a gauge for re-export
        assert "workers.sm.intra.best_score" in observer.snapshot().gauges

    def test_merge_snapshot_carries_gauges_and_histograms(self):
        worker = Observer()
        worker.add("w.jobs", 3)
        worker.set_gauge("w.depth", 2)
        worker.observe("w.seconds", 0.5)
        parent = Observer()
        parent.merge_snapshot(worker.snapshot(), counter_prefix="workers.")
        parent.merge_snapshot(worker.snapshot(), counter_prefix="workers.")
        assert parent.counter("workers.w.jobs") == 6  # counter: summed
        assert parent.counter("workers.w.depth") == 2  # gauge: level
        hist = parent.histogram("workers.w.seconds")
        assert hist is not None and hist.count == 2  # histogram: merged

    def test_snapshot_tracks_gauge_names(self):
        observer = Observer()
        observer.add("a.total", 5)
        observer.set_gauge("a.level", 5)
        snapshot = observer.snapshot()
        assert snapshot.gauges == frozenset({"a.level"})

    def test_default_observer_is_the_process_singleton(self):
        assert default_observer() is OBS


class TestExporters:
    def _spans(self, obs):
        with obs.span("stage.one", benchmark="compress"):
            pass
        with obs.span("stage.one"):
            pass
        with obs.span("stage.two"):
            pass
        obs.add("engine.events", 1000)
        obs.add("artifacts.cache.hits", 2)
        return collected(obs)

    def _chrome_doc(self, obs):
        spans = self._spans(obs)
        return trace_chrome_doc("c" * 32, spans, obs.counters())

    def test_summary_lines_aggregate_spans_and_group_counters(self, obs):
        spans = self._spans(obs)
        lines = summary_lines(obs.snapshot(), spans)
        text = "\n".join(lines)
        assert all(line.startswith("[timings]") for line in lines)
        assert "stage.one" in text and "2x" in text.replace("     ", " ")
        assert "engine.events" in text
        assert "artifacts.cache.hits" in text

    def test_summary_lines_empty_snapshot(self):
        lines = summary_lines(Observer().snapshot())
        assert lines == ["[timings] (no spans or counters recorded)"]

    def test_snapshot_to_json_round_trips(self, obs):
        obs.observe("engine.scan_seconds", 0.25)
        self._spans(obs)
        payload = json.loads(snapshot_to_json(obs.snapshot()))
        assert payload["counters"]["engine.events"] == 1000
        assert payload["histograms"]["engine.scan_seconds"]["count"] == 1
        assert payload["metadata"]["producer"] == "repro.obs"

    def test_chrome_trace_schema(self, obs):
        doc = self._chrome_doc(obs)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["metadata"]["producer"] == "repro.obs"
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert len(complete) == 3 and len(counters) == 2
        for event in complete:
            assert isinstance(event["ts"], int) and event["ts"] >= 0
            assert isinstance(event["dur"], int) and event["dur"] >= 1
            assert event["cat"] == event["name"].split(".", 1)[0]
        assert complete[0]["args"]["benchmark"] == "compress"
        assert complete[0]["args"]["trace_id"] == "c" * 32
        end = max(e["ts"] + e["dur"] for e in complete)
        for event in counters:
            assert event["ts"] == end
            assert "value" in event["args"]

    def test_chrome_trace_timestamps_relative_to_first_span(self, obs):
        doc = self._chrome_doc(obs)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert min(e["ts"] for e in complete) == 0

    def test_chrome_trace_stringifies_exotic_attrs(self, obs):
        with obs.span("stage.odd", site=("main", "loop")):
            pass
        doc = trace_chrome_doc("c" * 32, collected(obs))
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["args"]["site"] == "('main', 'loop')"


class TestConcurrency:
    """The audit the service daemon depends on: counter mutations from
    concurrent server threads must never lose updates.  All of
    ``add``/``set_gauge``/``merge``/``snapshot`` serialise on the
    observer lock; these hammers assert *exact* totals, which any lost
    read-modify-write would break."""

    THREADS = 8
    ITERATIONS = 2_000

    def _hammer(self, worker):
        import threading

        barrier = threading.Barrier(self.THREADS)
        errors = []

        def run(index):
            try:
                barrier.wait(10)
                worker(index)
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=(index,))
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors

    def test_concurrent_add_totals_are_exact(self):
        observer = Observer()

        def worker(index):
            for _ in range(self.ITERATIONS):
                observer.add("hammer.count")
                observer.add("hammer.bytes", 3)
                observer.add("hammer.seconds", 0.25)

        self._hammer(worker)
        counters = observer.counters("hammer.")
        assert counters["hammer.count"] == self.THREADS * self.ITERATIONS
        assert counters["hammer.bytes"] == 3 * self.THREADS * self.ITERATIONS
        assert counters["hammer.seconds"] == 0.25 * self.THREADS * self.ITERATIONS

    def test_concurrent_merge_totals_are_exact(self):
        observer = Observer()

        def worker(index):
            for _ in range(self.ITERATIONS):
                observer.merge({"x": 1, "y": 2.0}, counter_prefix="workers.")

        self._hammer(worker)
        counters = observer.counters("workers.")
        assert counters["workers.x"] == self.THREADS * self.ITERATIONS
        assert counters["workers.y"] == 2.0 * self.THREADS * self.ITERATIONS

    def test_concurrent_mixed_mutation_and_snapshot(self):
        """add + set_gauge + merge + snapshot racing: exact counter
        totals, a gauge holding one of the written values, and no
        mid-mutation snapshot corruption."""
        observer = Observer()
        snapshots = []

        def worker(index):
            for iteration in range(self.ITERATIONS):
                observer.add("mixed.count")
                observer.set_gauge("mixed.gauge", index)
                observer.merge({"m": 1}, counter_prefix="mixed.")
                if iteration % 500 == 0:
                    snapshots.append(observer.snapshot())

        self._hammer(worker)
        counters = observer.counters("mixed.")
        assert counters["mixed.count"] == self.THREADS * self.ITERATIONS
        assert counters["mixed.m"] == self.THREADS * self.ITERATIONS
        assert counters["mixed.gauge"] in range(self.THREADS)
        # Snapshots taken mid-hammer are internally consistent copies.
        for snapshot in snapshots:
            assert snapshot.counters.get("mixed.count", 0) <= (
                self.THREADS * self.ITERATIONS
            )

    def test_concurrent_spans_all_recorded(self):
        # Every hammer thread adopts one shared trace, the way pool and
        # control-invoke threads join a request's trace.
        observer = Observer()
        trace = observer.start_trace()
        observer.end_trace()

        def worker(index):
            with observer.adopt_trace(trace):
                for _ in range(200):
                    with observer.span("hammer.span", worker=index):
                        pass

        self._hammer(worker)
        spans = trace.span_dicts()
        assert len(spans) == self.THREADS * 200
        assert len({span["span_id"] for span in spans}) == len(spans)
        assert len({span["tid"] for span in spans}) == self.THREADS
        # Per-thread nesting stayed flat despite the concurrency.
        assert {span["depth"] for span in spans} == {0}
