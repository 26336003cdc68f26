"""Tests for :mod:`repro.telemetry.tracing` and the instrumented server.

The contract under test:

* :class:`Tracer` samples deterministically, hands out unique trace ids, and
  costs nothing when disabled; :class:`TraceHandle` freezes on finish;
  :class:`FlightRecorder` is a bounded ring whose dump is valid Chrome
  trace-event JSON (Perfetto-loadable).
* A request served with a tracer attached produces one trace whose child
  spans (admission, queue wait, dispatch, execute, completion) cover the
  root ``request`` span's wall time within 1% -- through the thread backend
  *and* a process-backed replica pool, where the worker-side ``engine`` span
  must carry the worker's pid.
* A replica SIGKILLed mid-batch leaves both attempts in the trace: a
  ``crashed`` engine span attributed to the dead replica and an ``ok``
  engine span attributed to the sibling that absorbed the requeue.
"""

import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    BatchingPolicy,
    InferenceServer,
    ModelRegistry,
)
from repro.telemetry import (
    FlightRecorder,
    SpanRecord,
    TelemetryCollector,
    Tracer,
)
from repro.telemetry.tracing import REQUEST_SPAN, SERVE_SPANS

POLICY = BatchingPolicy(max_batch_size=16, max_delay_s=0.001)

#: Keys every Chrome trace event must carry; complete (ph="X") events
#: additionally need a duration.
_CHROME_REQUIRED = ("name", "cat", "ph", "ts", "pid", "tid")


def wait_until(predicate, timeout_s=30.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


def make_inputs(n_requests, seed=7):
    rng = np.random.default_rng(seed)
    return [np.abs(rng.normal(0, 1, size=(1 + i % 3, 16))) for i in range(n_requests)]


def span_map(spans):
    """Group a finished trace's spans by name."""
    grouped = {}
    for span in spans:
        grouped.setdefault(span.name, []).append(span)
    return grouped


def union_coverage(root, children):
    """Fraction of the root span's wall time covered by the children's union."""
    intervals = sorted(
        (max(span.start_s, root.start_s), min(span.end_s, root.end_s))
        for span in children
    )
    covered, cursor = 0.0, root.start_s
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered / root.duration_s


class TestTracerSampling:
    def test_rate_one_traces_every_request(self):
        tracer = Tracer(sample_rate=1.0)
        handles = [tracer.begin("m", i) for i in range(8)]
        assert all(handle is not None for handle in handles)
        assert len({handle.trace_id for handle in handles}) == 8

    def test_deterministic_one_in_n(self):
        tracer = Tracer(sample_rate=0.25)
        sampled = [tracer.begin("m", i) is not None for i in range(12)]
        assert sampled == [True, False, False, False] * 3

    def test_rate_zero_and_disabled_never_sample(self):
        assert Tracer(sample_rate=0.0).begin("m", 0) is None
        tracer = Tracer(enabled=False)
        assert tracer.begin("m", 0) is None
        tracer.record_event("ignored")  # no-op, not an error
        assert len(tracer.recorder) == 0

    def test_sample_rate_validated(self):
        with pytest.raises(ValueError, match="sample_rate"):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError, match="sample_rate"):
            Tracer(sample_rate=-0.1)

    def test_enable_toggle_at_runtime(self):
        tracer = Tracer(sample_rate=1.0, enabled=False)
        assert tracer.begin("m", 0) is None
        tracer.enabled = True
        assert tracer.begin("m", 1) is not None


class TestTraceHandle:
    def test_finish_freezes_root_last_and_records(self):
        tracer = Tracer()
        handle = tracer.begin("m", 3)
        handle.add_span("admission", 1.0, 1.5, status="accepted")
        assert not handle.finished
        assert handle.spans() == ()
        handle.finish(status="ok")
        assert handle.finished
        spans = handle.spans()
        assert spans[-1].name == REQUEST_SPAN
        assert spans[-1].parent_id is None
        assert spans[-1].attrs["model"] == "m"
        assert spans[-1].attrs["request_id"] == 3
        assert spans[0].parent_id == spans[-1].span_id
        assert spans[0].attrs == {"status": "accepted"}
        # Every span reached the recorder; finish is idempotent, and the
        # materialised span tuple is cached (repeated reads are identical).
        assert len(tracer.recorder) == len(spans)
        handle.finish()
        assert len(tracer.recorder) == len(spans)
        # Late spans are dropped, not recorded.
        handle.add_span("late", 2.0, 2.1)
        assert handle.spans() is spans

    def test_add_span_dicts_clamps_into_window(self):
        handle = Tracer().begin("m", 0)
        handle.add_span_dicts(
            [
                {
                    "name": "engine",
                    "start_s": 0.5,
                    "end_s": 99.0,
                    "pid": 4242,
                    "tid": 7,
                    "replica": "1",
                }
            ],
            clamp=(1.0, 2.0),
        )
        handle.finish()
        (span,) = handle.spans()[:-1]
        assert (span.start_s, span.end_s) == (1.0, 2.0)
        assert (span.pid, span.tid) == (4242, 7)
        assert span.attrs["replica"] == "1"

    def test_span_record_duration_never_negative(self):
        span = SpanRecord("x", "t", "s", None, 2.0, 1.0, pid=1, tid=1)
        assert span.duration_s == 0.0
        assert span.as_dict()["duration_s"] == 0.0


class TestFlightRecorder:
    def test_capacity_bounds_the_ring(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record_instant(f"event-{index}")
        assert len(recorder) == 4
        names = [event["name"] for event in recorder.events()]
        assert names == ["event-6", "event-7", "event-8", "event-9"]
        recorder.clear()
        assert len(recorder) == 0
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_instant_event_shape(self):
        recorder = FlightRecorder()
        recorder.record_instant("replica_crash", args={"replica": 1})
        (event,) = recorder.events(category="lifecycle")
        assert event["ph"] == "i"
        assert event["s"] == "g"
        assert event["args"] == {"replica": 1}
        for key in _CHROME_REQUIRED:
            assert key in event

    def test_chrome_dump_parses_sorted_and_complete(self):
        tracer = Tracer()
        handle = tracer.begin("m", 0)
        handle.add_span("queue_wait", 5.0, 6.0)
        handle.add_span("execute", 6.0, 7.0)
        handle.finish(8.0)
        tracer.record_event("overload_transition", state="shed_best_effort")
        document = json.loads(tracer.recorder.to_chrome_trace())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert len(events) == 4
        stamps = [event["ts"] for event in events]
        assert stamps == sorted(stamps)
        for event in events:
            for key in _CHROME_REQUIRED:
                assert key in event, f"{event['name']} missing {key}"
            assert event["ph"] in ("X", "i")
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert "trace_id" in event["args"]

    def test_trace_events_filters_by_trace_id(self):
        tracer = Tracer()
        first = tracer.begin("m", 0)
        second = tracer.begin("m", 1)
        first.add_span("execute", 1.0, 2.0)
        first.finish(2.0)
        second.finish(3.0)
        events = tracer.recorder.trace_events(first.trace_id)
        assert {event["args"]["trace_id"] for event in events} == {first.trace_id}
        assert len(events) == 2


class TestServedTraces:
    @pytest.fixture
    def registry(self, tiny_mlp_model):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model)
        return registry

    def serve(self, registry, tracer, n_requests=6, telemetry=None, admission=None):
        server = InferenceServer(
            registry,
            POLICY,
            telemetry=telemetry,
            admission=admission,
            tracer=tracer,
        )
        with server:
            decisions = [
                server.submit("mlp", inputs) for inputs in make_inputs(n_requests)
            ]
            outputs = [
                decision.result(timeout=30)
                for decision in decisions
                if decision.accepted
            ]
        return decisions, outputs

    def test_untraced_server_reports_no_trace_ids(self, registry):
        decisions, outputs = self.serve(registry, tracer=None)
        assert len(outputs) == 6
        assert all(decision.trace_id is None for decision in decisions)

    def test_every_request_gets_one_covering_trace(self, registry):
        tracer = Tracer(sample_rate=1.0)
        decisions, outputs = self.serve(registry, tracer)
        assert len(outputs) == 6
        trace_ids = [decision.trace_id for decision in decisions]
        assert all(trace_ids) and len(set(trace_ids)) == 6
        for trace_id in trace_ids:
            events = tracer.recorder.trace_events(trace_id)
            names = {event["name"] for event in events}
            assert REQUEST_SPAN in names
            assert {
                "admission",
                "queue_wait",
                "dispatch_wait",
                "execute",
                "engine",
                "complete",
            } <= names
            assert names - {REQUEST_SPAN} <= set(SERVE_SPANS)
            # Chrome ts/dur are microseconds of the same monotonic clock, so
            # children stay inside the root window.
            (root,) = [e for e in events if e["name"] == REQUEST_SPAN]
            for event in events:
                assert event["ts"] >= root["ts"] - 1e-3
                assert event["ts"] + event["dur"] <= root["ts"] + root["dur"] + 1e-3

    def test_spans_cover_full_wall_time_within_one_percent(self, registry):
        tracer = Tracer(sample_rate=1.0)
        server = InferenceServer(registry, POLICY, tracer=tracer)
        with server:
            decision = server.submit("mlp", make_inputs(1)[0])
            decision.result(timeout=30)
        events = tracer.recorder.trace_events(decision.trace_id)
        spans = [
            SpanRecord(
                name=event["name"],
                trace_id=event["args"]["trace_id"],
                span_id=event["args"]["span_id"],
                parent_id=event["args"]["parent_id"],
                start_s=event["ts"] / 1e6,
                end_s=(event["ts"] + event["dur"]) / 1e6,
                pid=event["pid"],
                tid=event["tid"],
            )
            for event in events
        ]
        by_name = span_map(spans)
        (root,) = by_name[REQUEST_SPAN]
        children = [span for span in spans if span.name != REQUEST_SPAN]
        assert root.duration_s > 0
        assert union_coverage(root, children) >= 0.99

    def test_request_trace_records_carry_trace_id_and_spans(self, registry):
        tracer = Tracer(sample_rate=1.0)
        telemetry = TelemetryCollector()
        decisions, _ = self.serve(registry, tracer, telemetry=telemetry)
        traces = {trace.request_id: trace for trace in telemetry.traces()}
        for decision in decisions:
            record = traces[decision.request_id]
            assert record.trace_id == decision.trace_id
            names = [span["name"] for span in record.spans]
            assert names[-1] == REQUEST_SPAN
            assert "execute" in names
            exported = record.as_dict()
            assert exported["trace_id"] == decision.trace_id
            assert exported["spans"] == list(record.spans)
        # The JSON export round-trips the same spans.
        document = json.loads(telemetry.export_json())
        spans = [trace["spans"] for trace in document["traces"]]
        assert all(span_list for span_list in spans)

    def test_sampled_out_requests_have_no_trace(self, registry):
        tracer = Tracer(sample_rate=0.5)
        decisions, outputs = self.serve(registry, tracer, n_requests=8)
        assert len(outputs) == 8
        traced = [d for d in decisions if d.trace_id is not None]
        assert len(traced) == 4  # deterministic every-other sampling

    def test_shed_requests_finish_trace_and_emit_event(self, registry):
        tracer = Tracer(sample_rate=1.0)
        admission = AdmissionController(AdmissionPolicy(max_queue_samples_per_model=1))
        server = InferenceServer(registry, POLICY, admission=admission, tracer=tracer)
        # Not started: the queue backs up instantly, so the second submit
        # trips the depth cap and sheds.
        accepted = server.submit("mlp", make_inputs(1)[0])
        shed = server.submit("mlp", np.abs(np.ones((4, 16))))
        assert accepted.accepted and not shed.accepted
        assert shed.trace_id is not None
        assert shed.as_dict()["trace_id"] == shed.trace_id
        events = tracer.recorder.trace_events(shed.trace_id)
        (root,) = [e for e in events if e["name"] == REQUEST_SPAN]
        assert root["args"]["status"] == "shed"
        lifecycle = tracer.recorder.events(category="lifecycle")
        assert any(event["name"] == "request_shed" for event in lifecycle)
        with server:
            accepted.result(timeout=30)

    def test_failed_batch_closes_trace_with_error(self, registry):
        tracer = Tracer(sample_rate=1.0)
        server = InferenceServer(registry, POLICY, tracer=tracer)
        decision = server.submit("mlp", make_inputs(1)[0])
        registry.unregister("mlp")  # the dispatch worker's engine() raises
        with server:
            with pytest.raises(KeyError, match="no model registered"):
                decision.result(timeout=30)
        events = tracer.recorder.trace_events(decision.trace_id)
        (root,) = [e for e in events if e["name"] == REQUEST_SPAN]
        assert root["args"]["status"] == "error"
        (execute,) = [e for e in events if e["name"] == "execute"]
        assert execute["args"]["status"] == "error"
        assert execute["args"]["error"]


class TestProcessBackedTraces:
    def test_worker_engine_span_carries_worker_pid(self, tiny_mlp_model):
        tracer = Tracer(sample_rate=1.0)
        with ModelRegistry() as registry:
            pool = registry.register(
                "mlp", tiny_mlp_model, backend="process", replicas=2
            )
            worker_pids = set(pool.replica_pids())
            with InferenceServer(registry, POLICY, tracer=tracer) as server:
                decision = server.submit("mlp", make_inputs(1)[0])
                decision.result(timeout=30)
        events = tracer.recorder.trace_events(decision.trace_id)
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event)
        (engine,) = by_name["engine"]
        (ipc,) = by_name["worker_ipc"]
        (root,) = by_name[REQUEST_SPAN]
        # The engine span executed in the worker process, the IPC span (and
        # everything else) in the server process: the pid hop is what makes
        # Perfetto draw them on separate process tracks.
        assert engine["pid"] in worker_pids
        assert engine["pid"] != os.getpid()
        assert ipc["pid"] == os.getpid() == root["pid"]
        assert engine["args"]["status"] == "ok"
        assert engine["args"]["replica"] in ("0", "1")
        assert decision.trace_id in engine["args"]["trace_ids"]
        # IPC brackets the worker-side run.
        assert ipc["ts"] <= engine["ts"] + 1e-3
        assert ipc["ts"] + ipc["dur"] >= engine["ts"] + engine["dur"] - 1e-3

    def test_process_trace_covers_wall_time_within_one_percent(self, tiny_mlp_model):
        tracer = Tracer(sample_rate=1.0)
        with ModelRegistry() as registry:
            registry.register("mlp", tiny_mlp_model, backend="process", replicas=2)
            with InferenceServer(registry, POLICY, tracer=tracer) as server:
                decision = server.submit("mlp", make_inputs(1)[0])
                decision.result(timeout=30)
        events = tracer.recorder.trace_events(decision.trace_id)
        (root,) = [e for e in events if e["name"] == REQUEST_SPAN]
        children = [
            SpanRecord(
                name=event["name"],
                trace_id=decision.trace_id,
                span_id=event["args"]["span_id"],
                parent_id=event["args"]["parent_id"],
                start_s=event["ts"] / 1e6,
                end_s=(event["ts"] + event["dur"]) / 1e6,
                pid=event["pid"],
                tid=event["tid"],
            )
            for event in events
            if event["name"] != REQUEST_SPAN
        ]
        root_span = SpanRecord(
            name=REQUEST_SPAN,
            trace_id=decision.trace_id,
            span_id=root["args"]["span_id"],
            parent_id=None,
            start_s=root["ts"] / 1e6,
            end_s=(root["ts"] + root["dur"]) / 1e6,
            pid=root["pid"],
            tid=root["tid"],
        )
        assert union_coverage(root_span, children) >= 0.99


class TestCrashedReplicaTraces:
    def test_sigkill_mid_batch_leaves_both_attempts_in_the_trace(
        self, tiny_mlp_model, rng
    ):
        tracer = Tracer(sample_rate=1.0)
        # Large enough that the batch is still running when the 20 ms poll
        # below sees it in flight (the planned kernel runs this MLP at a few
        # microseconds per sample).
        inputs = np.abs(rng.normal(0, 1, size=(32768, 16)))
        policy = BatchingPolicy(max_batch_size=32768, max_delay_s=0.001)
        with ModelRegistry() as registry:
            pool = registry.register(
                "mlp", tiny_mlp_model, backend="process", replicas=2
            )
            with InferenceServer(registry, policy, tracer=tracer) as server:
                decision = server.submit("mlp", inputs)
                results = {}

                def run():
                    results["outputs"] = decision.result(timeout=60)

                runner = threading.Thread(target=run)
                runner.start()
                busy = None

                def find_busy():
                    nonlocal busy
                    for handle in pool._handles:
                        if handle.inflight > 0:
                            busy = handle.pid
                            return True
                    return False

                assert wait_until(find_busy)
                os.kill(busy, signal.SIGKILL)
                runner.join(timeout=60)
                assert not runner.is_alive()
                assert results["outputs"].shape == (32768, 4)
        events = tracer.recorder.trace_events(decision.trace_id)
        engines = [e for e in events if e["name"] == "engine"]
        statuses = {e["args"]["status"] for e in engines}
        assert statuses == {"crashed", "ok"}
        crashed = [e for e in engines if e["args"]["status"] == "crashed"]
        succeeded = [e for e in engines if e["args"]["status"] == "ok"]
        assert len(crashed) >= 1 and len(succeeded) == 1
        # The retry is attributed to the *sibling* replica, and the crashed
        # attempt to the replica whose pid was killed.
        crashed_replicas = {e["args"]["replica"] for e in crashed}
        assert succeeded[0]["args"]["replica"] not in crashed_replicas
        assert any(e["pid"] == busy for e in crashed)
        (ipc,) = [e for e in events if e["name"] == "worker_ipc"]
        assert ipc["args"]["requeues"] >= 1
        # Lifecycle instants captured the crash alongside the spans.
        lifecycle = tracer.recorder.events(category="lifecycle")
        assert any(event["name"] == "replica_crash" for event in lifecycle)

    def test_pool_registered_after_the_server_started_reports_crashes(
        self, tiny_mlp_model
    ):
        # The registry hands its lifecycle observer to every pool it hosts,
        # so a tenant registered later reports a crash without ever having
        # been submitted to.
        tracer = Tracer(sample_rate=1.0)
        with ModelRegistry() as registry:
            with InferenceServer(registry, POLICY, tracer=tracer):
                pool = registry.register("late", tiny_mlp_model, backend="process")
                (pid,) = pool.replica_pids()
                os.kill(pid, signal.SIGKILL)

                def crash_recorded():
                    return any(
                        event["name"] == "replica_crash"
                        and event["args"]["pid"] == pid
                        for event in tracer.recorder.events(category="lifecycle")
                    )

                assert wait_until(crash_recorded)
