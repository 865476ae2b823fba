"""Unit tests for the distributed-tracing building blocks.

Pure in-process coverage of :mod:`repro.obs.tracing`,
:mod:`repro.obs.flight`, :mod:`repro.obs.profiler` and the trace
exporters — no sockets, no servers (the live-service contract lives in
``tests/test_service_tracing.py``):

* traceparent format/parse round-trips and the strict rejection rules;
* per-thread trace lifecycle on the observer (start/adopt/end), span
  parenting across a simulated pool-thread hop, and the tuple/dict
  forms ``span_dicts()`` normalises;
* deterministic tail-sampling (same trace id -> same decision in every
  process) and the flight recorder's keep/evict/exemplar behaviour;
* the sampling profiler's collapsed-stack output;
* the span-tree and Chrome/Perfetto exporters.
"""

import threading
import time

import pytest

from repro.obs import (
    OBS,
    format_span_tree,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    trace_chrome_doc,
)
from repro.obs.core import Observer
from repro.obs.flight import FlightRecorder, sample_decision
from repro.obs.profiler import (
    StackSampler,
    collapsed_stacks,
    profile_collapsed,
)
from repro.obs.tracing import ActiveTrace


class TestTraceparent:
    def test_round_trip(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        parsed = parse_traceparent(format_traceparent(trace_id, span_id))
        assert parsed == (trace_id, span_id)

    def test_ids_are_well_formed_and_unique(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 32 and int(i, 16) >= 0 for i in ids)
        assert len(new_span_id()) == 16

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-short-abcdefabcdefabcd-01",  # bad trace id length
            "00-" + "g" * 32 + "-abcdefabcdefabcd-01",  # non-hex
            "00-" + "0" * 32 + "-abcdefabcdefabcd-01",  # all-zero trace
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span
            "ff-" + "a" * 32 + "-abcdefabcdefabcd-01",  # reserved version
            "00-" + "a" * 32 + "-abcdefabcdefabcd",  # missing flags
        ],
    )
    def test_rejects_malformed(self, header):
        assert parse_traceparent(header) is None

    def test_accepts_extra_fields_and_case(self):
        header = "00-" + "A" * 32 + "-" + "B" * 16 + "-01-extrastate"
        parsed = parse_traceparent(header)
        assert parsed == ("a" * 32, "b" * 16)


class TestActiveTraceLifecycle:
    def test_spans_collect_on_trace_not_process_list(self):
        obs = Observer()
        trace = obs.start_trace()
        try:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        finally:
            done = obs.end_trace()
        assert done is trace
        spans = trace.span_dicts()
        assert [s["name"] for s in spans] == ["inner", "outer"]
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        assert all(s["trace_id"] == trace.trace_id for s in spans)

    def test_adoption_parents_across_thread_hop(self):
        obs = Observer()
        trace = obs.start_trace()
        with obs.span("request"):
            request_span_id = obs.current_span_id()

            def pool_work():
                with obs.adopt_trace(trace, request_span_id):
                    with obs.span("pool"):
                        pass

            worker = threading.Thread(target=pool_work)
            worker.start()
            worker.join()
        obs.end_trace()
        by_name = {s["name"]: s for s in trace.span_dicts()}
        assert by_name["pool"]["parent_id"] == by_name["request"]["span_id"]
        assert by_name["pool"]["tid"] != by_name["request"]["tid"]

    def test_inbound_context_becomes_root_parent(self):
        obs = Observer()
        trace = obs.start_trace("ab" * 16, remote_parent_id="cd" * 8)
        with obs.span("request"):
            pass
        obs.end_trace()
        (span,) = trace.span_dicts()
        assert span["trace_id"] == "ab" * 16
        assert span["parent_id"] == "cd" * 8

    def test_end_without_start_is_none(self):
        obs = Observer()
        assert obs.end_trace() is None

    def test_add_span_dicts_merges_remote(self):
        trace = ActiveTrace()
        remote = [{"name": "remote", "span_id": "x" * 16, "parent_id": None}]
        trace.add_span_dicts(remote)
        assert trace.span_dicts() == remote


class TestTailSampling:
    def test_deterministic_across_calls(self):
        trace_id = new_trace_id()
        first = sample_decision(trace_id, 0.5)
        assert all(sample_decision(trace_id, 0.5) == first for _ in range(10))

    def test_rate_extremes(self):
        assert sample_decision(new_trace_id(), 1.0) is True
        assert sample_decision(new_trace_id(), 0.0) is False

    def test_rate_roughly_honoured(self):
        kept = sum(sample_decision(new_trace_id(), 0.25) for _ in range(2000))
        assert 350 < kept < 650  # ~500 expected; generous noise bounds


def _finished_trace(obs=OBS, name="service.request"):
    trace = obs.start_trace()
    with obs.span(name):
        pass
    obs.end_trace()
    return trace


class TestFlightRecorder:
    def test_keeps_errors_and_slow_regardless_of_rate(self):
        recorder = FlightRecorder(sample_rate=0.0, slow_threshold=0.25)
        trace = _finished_trace()
        assert recorder.record(trace, 500, "/x", 0.001) == "error"
        trace = _finished_trace()
        assert recorder.record(trace, 200, "/x", 0.5) == "slow"
        trace = _finished_trace()
        assert recorder.record(trace, 200, "/x", 0.001) is None

    def test_entry_shape_and_lookup(self):
        recorder = FlightRecorder(sample_rate=1.0)
        trace = _finished_trace()
        trace.notes["proxied"] = True
        assert recorder.record(trace, 200, "/predict", 0.02, request_id="r1", shard=3)
        entry = recorder.get(trace.trace_id)
        assert entry["route"] == "/predict"
        assert entry["request_id"] == "r1"
        assert entry["shard"] == 3
        assert entry["notes"] == {"proxied": True}
        assert entry["spans"][0]["name"] == "service.request"
        assert recorder.get("f" * 32) is None

    def test_ring_evicts_oldest(self):
        recorder = FlightRecorder(capacity=4, sample_rate=1.0)
        traces = [_finished_trace() for _ in range(6)]
        for trace in traces:
            recorder.record(trace, 200, "/x", 0.001)
        assert len(recorder) == 4
        assert recorder.get(traces[0].trace_id) is None
        assert recorder.get(traces[-1].trace_id) is not None
        newest_first = [s["trace_id"] for s in recorder.summaries()]
        assert newest_first[0] == traces[-1].trace_id

    def test_exemplars_track_latency_buckets(self):
        recorder = FlightRecorder(sample_rate=1.0)
        fast, slow = _finished_trace(), _finished_trace()
        recorder.record(fast, 200, "/x", 0.001)
        recorder.record(slow, 200, "/x", 1.5)
        exemplars = recorder.exemplars()
        assert len(exemplars) == 2
        observed = {trace_id for trace_id, _ in exemplars.values()}
        assert observed == {fast.trace_id, slow.trace_id}

    def test_disabled_recorder_drops_everything(self):
        recorder = FlightRecorder(sample_rate=1.0, enabled=False)
        assert recorder.record(_finished_trace(), 500, "/x", 9.0) is None
        assert len(recorder) == 0


class TestProfiler:
    def test_collapsed_stacks_renders_counts(self):
        counts = {("a:f", "b:g"): 3, ("a:f",): 1}
        text = collapsed_stacks(counts)
        lines = sorted(text.strip().splitlines())
        assert "a:f 1" in lines
        assert "a:f;b:g 3" in lines

    def test_profile_collapsed_sees_this_thread(self):
        text = profile_collapsed(seconds=0.15, interval=0.01)
        assert text.strip()
        assert "test_obs_tracing" in text or "profiler" in text

    def test_stack_sampler_background(self):
        sampler = StackSampler(interval=0.01).start()
        deadline = time.time() + 0.15
        while time.time() < deadline:
            sum(range(200))
        text = sampler.stop()
        assert text.strip()


class TestExporters:
    def _spans(self):
        root_id, child_id = "a" * 16, "b" * 16
        return [
            {
                "name": "service.request", "trace_id": "c" * 32,
                "span_id": root_id, "parent_id": None, "start": 1.0,
                "duration": 0.5, "depth": 0, "pid": 10, "tid": 1, "attrs": {},
            },
            {
                "name": "service.pool", "trace_id": "c" * 32,
                "span_id": child_id, "parent_id": root_id, "start": 1.1,
                "duration": 0.3, "depth": 1, "pid": 11, "tid": 2, "attrs": {},
            },
        ]

    def test_span_tree_indents_children(self):
        lines = format_span_tree(self._spans())
        assert len(lines) == 2
        assert lines[0].lstrip() == lines[0]  # root not indented
        assert "service.request" in lines[0]
        assert lines[1] != lines[1].lstrip()  # child indented
        assert "service.pool" in lines[1]

    def test_chrome_doc_shape(self):
        doc = trace_chrome_doc("c" * 32, self._spans())
        events = doc["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0
            assert event["dur"] > 0
