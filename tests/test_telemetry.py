"""Tests for :mod:`repro.telemetry`: cost tables, collector, SLO serving.

The contract under test:

* :class:`CostModel` totals match :class:`~repro.hw.energy.EnergyModel` and
  the Fig. 12 harness to 1e-6 relative (they are the same analytical
  pipeline, precomputed);
* :class:`TelemetryCollector` is thread-safe, keeps exact aggregates, and
  exports JSON / Prometheus text;
* serving with telemetry + SLO scheduling enabled stays bit-identical on
  outputs -- metering and reordering never touch the arithmetic.
"""

import json
import re
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fig12_efficiency import run_fig12
from repro.hw import RAELLA_ARCH
from repro.hw.energy import EnergyModel
from repro.nn.zoo import MODEL_NAMES, model_shapes
from repro.runtime import NetworkEngine
from repro.serve import BatchingPolicy, InferenceServer, ModelRegistry, OverloadState
from repro.serve.scheduler import InferenceFuture, InferenceRequest, RequestQueue
from repro.telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    CostModel,
    LatencyHistogram,
    RequestTrace,
    TelemetryCollector,
    Tracer,
    shapes_from_model,
)

ZOO_CROSS_CHECK_MODELS = ("resnet18", "mobilenetv2")


def pop(queue, policy):
    """The next batch's requests, placed with no capacity limit."""
    batch = queue.next_batch(policy, lambda name, samples, deadline_s: (name, None))
    return None if batch is None else batch.requests


def make_trace(
    request_id=0,
    model_name="m",
    n_samples=2,
    priority=0,
    deadline_s=None,
    enqueued_at=10.0,
    formed_at=10.5,
    completed_at=11.0,
    batch_size=4,
    engine_time_s=0.25,
    cost=None,
) -> RequestTrace:
    return RequestTrace(
        request_id=request_id,
        model_name=model_name,
        n_samples=n_samples,
        priority=priority,
        deadline_s=deadline_s,
        enqueued_at=enqueued_at,
        formed_at=formed_at,
        completed_at=completed_at,
        batch_size=batch_size,
        engine_time_s=engine_time_s,
        cost=cost,
    )


class LinearCost:
    """Cost tables in round numbers: 50 pJ per sample, 1 us fill + 0.5 us."""

    def energy_pj(self, n_samples=1):
        return 50.0 * n_samples

    def energy_split_pj(self, n_samples=1):
        split = {"dac": 20.0, "adc": 17.5, "crossbar": 10.0, "digital": 2.5}
        return {key: value * n_samples for key, value in split.items()}

    def batch_latency_us(self, n_samples):
        return 0.0 if n_samples < 1 else 1.0 + 0.5 * (n_samples - 1)

    def batch_latency_s(self, n_samples):
        return self.batch_latency_us(n_samples) / 1e6


def request(request_id=0, n_samples=2, priority=0, deadline_s=None, enqueued_at=10.0):
    """One completed request, as ``record_batch`` reads it."""
    return SimpleNamespace(
        request_id=request_id,
        n_samples=n_samples,
        priority=priority,
        deadline_s=deadline_s,
        enqueued_at=enqueued_at,
        trace=None,
    )


def record(collector, model_name="m", requests=None, **batch):
    """Record one batch (default: one 2-sample request, formed at 10.5,
    completed at 11.0, 0.25 s of engine time) into ``collector``."""
    batch = {"formed_at": 10.5, "completed_at": 11.0, "engine_time_s": 0.25} | batch
    collector.record_batch(
        model_name, [request()] if requests is None else requests, **batch
    )


class TestCostModel:
    @pytest.mark.parametrize("model_name", ZOO_CROSS_CHECK_MODELS)
    def test_energy_matches_energy_model(self, model_name):
        shapes = model_shapes(model_name)
        cost = CostModel.from_shapes(shapes, RAELLA_ARCH)
        reference = EnergyModel(RAELLA_ARCH).model_energy(shapes).total_pj
        assert cost.energy_per_sample_pj == pytest.approx(reference, rel=1e-6)

    def test_matches_fig12_harness(self):
        fig12 = run_fig12(model_names=ZOO_CROSS_CHECK_MODELS)
        for row in fig12.rows:
            cost = CostModel.from_shapes(model_shapes(row.model_name), RAELLA_ARCH)
            assert cost.energy_per_sample_uj == pytest.approx(
                row.raella_energy_uj, rel=1e-6
            )
            assert cost.throughput_samples_per_s == pytest.approx(
                row.raella_throughput, rel=1e-6
            )

    def test_breakdown_matches_energy_model_components(self):
        shapes = model_shapes("resnet18")
        cost = CostModel.from_shapes(shapes, RAELLA_ARCH)
        reference = EnergyModel(RAELLA_ARCH).model_energy(shapes)
        breakdown = cost.energy_breakdown()
        for key, value in reference.components_pj.items():
            assert breakdown.components_pj[key] == pytest.approx(value, rel=1e-6)

    def test_from_model_builds_per_layer_table(self, tiny_conv_model):
        cost = CostModel.from_model(tiny_conv_model, RAELLA_ARCH)
        expected = [layer.name for layer in tiny_conv_model.matmul_layers()]
        assert [entry.name for entry in cost.layer_costs] == expected
        assert all(entry.energy_pj > 0 for entry in cost.layer_costs)
        assert all(entry.latency_us > 0 for entry in cost.layer_costs)
        assert cost.energy_per_sample_pj == pytest.approx(
            sum(entry.energy_pj for entry in cost.layer_costs)
        )
        for name in expected:
            assert cost.layer_cost(name).name == name
        with pytest.raises(KeyError, match="no crossbar layer"):
            cost.layer_cost("nonexistent")

    def test_shapes_from_model_dimensions(self, tiny_conv_model):
        shapes = shapes_from_model(tiny_conv_model)
        by_name = {layer.name: layer for layer in shapes.layers}
        for layer in tiny_conv_model.matmul_layers():
            shape = by_name[layer.name]
            assert shape.reduction_dim == layer.reduction_dim
            assert shape.n_filters == layer.out_features
        # Same-padding convs: modeled MACs equal the model's exact MACs.
        assert shapes.total_macs == tiny_conv_model.total_macs()

    def test_shapes_from_model_rejects_unmodellable_convs(
        self, rng, valid_pad_conv_model
    ):
        from repro.nn.layers import Conv2d, GlobalAvgPool, Linear
        from repro.nn.model import QuantizedModel
        from repro.nn.synthetic import synthetic_conv_weights
        from repro.nn.synthetic import synthetic_linear_weights

        # padding=0 breaks the same-padding assumption the analytical
        # LayerShape encodes: the tables would silently overcount output
        # positions, so conversion must refuse.
        with pytest.raises(ValueError, match="same-padding"):
            shapes_from_model(valid_pad_conv_model)

        # Even kernels satisfy padding == kernel // 2 yet still change the
        # output size; the guard compares real output dims, so they fail too.
        even = Conv2d("even_conv", synthetic_conv_weights(4, 3, 2, rng), padding=1)
        even_model = QuantizedModel(
            "even_pad",
            [even, GlobalAvgPool(), Linear("fc2", synthetic_linear_weights(5, 4, rng))],
            input_shape=(3, 8, 8),
        )
        even_model.calibrate(np.abs(rng.normal(0, 1, size=(4, 3, 8, 8))))
        with pytest.raises(ValueError, match="same-padding"):
            shapes_from_model(even_model)

        square = Conv2d("conv", synthetic_conv_weights(4, 3, 3, rng), padding=1)
        rect = QuantizedModel(
            "rect",
            [
                square,
                GlobalAvgPool(),
                Linear("fc", synthetic_linear_weights(5, 4, rng)),
            ],
            input_shape=(3, 8, 12),
        )
        rect.calibrate(np.abs(rng.normal(0, 1, size=(4, 3, 8, 12))))
        with pytest.raises(ValueError, match="square inputs"):
            shapes_from_model(rect)

    def test_attribution_scales_linearly(self, tiny_mlp_model):
        cost = CostModel.from_model(tiny_mlp_model, RAELLA_ARCH)
        assert cost.energy_pj(7) == pytest.approx(7 * cost.energy_per_sample_pj)
        assert cost.batch_latency_us(1) == pytest.approx(cost.single_sample_latency_us)
        assert cost.batch_latency_us(5) == pytest.approx(
            cost.single_sample_latency_us + 4 * cost.steady_state_latency_us
        )
        assert cost.batch_latency_us(0) == 0.0
        assert cost.batch_latency_s(5) == pytest.approx(cost.batch_latency_us(5) / 1e6)

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_latency_scalars_keep_the_report_formula(self, model_name):
        # Precomputed at construction, read bit for bit as the report's sums.
        cost = CostModel.from_shapes(model_shapes(model_name), RAELLA_ARCH)
        report = cost.report
        for n_samples in (1, 2, 32):
            expected = (
                report.single_sample_latency_us
                + (n_samples - 1) * report.steady_state_latency_us
            )
            assert cost.batch_latency_us(n_samples) == expected
            assert cost.batch_latency_s(n_samples) == expected / 1e6

    def test_summary_lists_layers(self, tiny_mlp_model):
        cost = CostModel.from_model(tiny_mlp_model, RAELLA_ARCH)
        summary = cost.summary()
        for layer in tiny_mlp_model.matmul_layers():
            assert layer.name in summary


class TestTelemetryCollector:
    def test_aggregates_one_model(self):
        collector = TelemetryCollector()
        requests = [
            request(request_id=0),
            request(request_id=1, deadline_s=10.9),  # completed at 11.0 -> missed
        ]
        record(collector, requests=requests, cost=LinearCost())
        aggregate = collector.aggregate("m")
        assert aggregate.requests == 2
        assert aggregate.samples == 4
        assert aggregate.queue_wait_s == pytest.approx(1.0)
        assert aggregate.mean_queue_wait_s == pytest.approx(0.5)
        # Each request rode a 4-sample batch with 2 samples: half the time.
        assert aggregate.engine_share_s == pytest.approx(0.25)
        assert aggregate.modeled_energy_pj == pytest.approx(200.0)
        assert aggregate.modeled_latency_us == pytest.approx(2.5)
        assert [t.engine_share_s for t in collector.traces()] == [0.125, 0.125]
        assert [t.modeled_latency_us for t in collector.traces()] == [1.25, 1.25]
        assert aggregate.deadline_requests == 1
        assert aggregate.deadline_misses == 1
        assert aggregate.deadline_miss_rate == 1.0
        assert aggregate.max_batch_size == 4

    def test_trace_derived_fields(self):
        trace = make_trace(deadline_s=12.0)
        assert trace.queue_wait_s == pytest.approx(0.5)
        assert trace.latency_s == pytest.approx(1.0)
        assert trace.engine_share_s == pytest.approx(0.125)
        assert not trace.deadline_missed
        assert make_trace(deadline_s=10.9).deadline_missed
        assert trace.modeled_energy_pj is None
        assert trace.modeled_energy_components_pj is None
        assert trace.modeled_latency_us is None
        metered = make_trace(cost=LinearCost())
        assert metered.modeled_energy_pj == 100.0
        assert sum(metered.modeled_energy_components_pj.values()) == 100.0
        assert metered.modeled_latency_us == 1.25  # half of a 4-sample batch
        assert set(metered.as_dict()) == set(trace.as_dict())
        assert "cost" not in trace.as_dict()

    def test_rolling_window_keeps_cumulative_aggregates(self):
        collector = TelemetryCollector(max_traces=4)
        for i in range(10):
            record(collector, requests=[request(request_id=i)])
        assert len(collector.traces()) == 4
        assert collector.traces()[0].request_id == 6
        assert collector.aggregate("m").requests == 10

    def test_thread_safety(self):
        collector = TelemetryCollector(max_traces=10_000)
        n_threads, per_thread = 8, 200

        def worker(thread_id: int) -> None:
            for i in range(per_thread):
                record(
                    collector,
                    requests=[request(request_id=thread_id * per_thread + i)],
                    engine_records=[(2, 0.001, None)],
                )

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        aggregate = collector.aggregate("m")
        assert aggregate.requests == n_threads * per_thread
        assert aggregate.engine_runs == n_threads * per_thread
        assert aggregate.engine_run_samples == 2 * n_threads * per_thread

    def test_export_json_roundtrip(self):
        collector = TelemetryCollector()
        record(collector, "a")
        record(collector, "b", requests=[request(deadline_s=10.9)])
        payload = json.loads(collector.export_json())
        assert set(payload["models"]) == {"a", "b"}
        assert payload["models"]["a"]["requests"] == 1
        assert payload["models"]["b"]["deadline_misses"] == 1
        assert len(payload["traces"]) == 2
        slim = json.loads(collector.export_json(include_traces=False))
        assert "traces" not in slim

    def test_prometheus_text_format(self):
        collector = TelemetryCollector()
        record(collector, "a", engine_records=[(4, 0.002, None)])
        text = collector.to_prometheus()
        assert "# HELP repro_requests_total" in text
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{model="a"} 1' in text
        assert 'repro_samples_total{model="a"} 2' in text
        assert 'repro_engine_runs_total{model="a"} 1' in text
        assert text.endswith("\n")

    def test_prometheus_escapes_label_values(self):
        collector = TelemetryCollector()
        record(collector, 'weird"name\\with\nstuff')
        text = collector.to_prometheus()
        assert 'model="weird\\"name\\\\with\\nstuff"' in text
        assert "\n{" not in text  # no raw newline leaked into a label

    def test_run_timed_records_feed_collector(self, tiny_mlp_model, rng):
        # An engine driven outside the server feeds its run_timed records
        # to the collector directly; untimed runs record nothing.
        collector = TelemetryCollector()
        engine = NetworkEngine.build(tiny_mlp_model)
        inputs = np.abs(rng.normal(0, 1, size=(5, 16)))
        _outputs, elapsed, records = engine.run_timed(inputs)
        collector.record_batch("tiny", engine_records=records)
        aggregate = collector.aggregate("tiny")
        assert aggregate.engine_runs == 1
        assert aggregate.engine_run_samples == 5
        assert aggregate.engine_run_s == elapsed > 0
        assert aggregate.replica_engine_runs == {}
        engine.run(inputs)
        assert collector.aggregate("tiny").engine_runs == 1

    def test_predicted_latency_calibrates_to_wall_time(self, tiny_mlp_model):
        collector = TelemetryCollector()
        assert collector.predicted_batch_latency_s("tiny", 4, None) is None
        cost = CostModel.from_model(tiny_mlp_model, RAELLA_ARCH)
        modeled = collector.predicted_batch_latency_s("tiny", 4, cost)
        assert modeled == pytest.approx(cost.batch_latency_s(4))
        # Observe a wall time 100x the modeled latency: the prediction must
        # move toward (and with repetition converge on) the observed scale.
        observed = cost.batch_latency_s(4) * 100.0
        for _ in range(50):
            collector.record_batch(
                "tiny", engine_records=[(4, observed, None)], cost=cost
            )
        calibrated = collector.predicted_batch_latency_s("tiny", 4, cost)
        assert calibrated == pytest.approx(observed, rel=0.05)


class CountingLock:
    """A collector lock that counts acquisitions and can act on release."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquisitions = 0
        self.after_release = None

    def __enter__(self):
        self._lock.acquire()
        self.acquisitions += 1
        return self

    def __exit__(self, *exc_info):
        self._lock.release()
        if self.after_release is not None:
            self.after_release()


def prometheus_samples(text: str) -> dict[str, float]:
    """``{'name{labels}': value}`` for every sample line of an export."""
    return {
        line.rsplit(" ", 1)[0]: float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if not line.startswith("#")
    }


@pytest.fixture(scope="module")
def zoo_costs():
    """Two real cost tables, for properties that need the real arithmetic."""
    return tuple(
        CostModel.from_shapes(model_shapes(name), RAELLA_ARCH)
        for name in ("resnet18", "bert_large_ffn")
    )


batch_specs = st.lists(
    st.tuples(
        st.sampled_from(["a", "b"]),
        # per request: samples, deadline (None, or offset from formation;
        # negative offsets are missed), enqueue lead before formation
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6),
                st.one_of(st.none(), st.floats(min_value=-1.0, max_value=1.0)),
                st.floats(min_value=0.0, max_value=0.5),
            ),
            max_size=4,
        ),
        st.floats(min_value=0.0, max_value=0.5),  # engine time
        st.sampled_from([None, 0, 1]),  # cost table index
        st.lists(st.sampled_from([None, "0", "1"]), max_size=2),  # replicas
        st.booleans(),  # routed through fleet "f"
    ),
    min_size=1,
    max_size=12,
)


class TestBatchMetering:
    """``record_batch`` is the collector's one write path for serving."""

    def test_scrape_is_one_snapshot(self):
        # A batch recorded while the scrape is under way must land wholly
        # before or wholly after it: the lock hook records one the moment
        # the scrape first releases the lock.
        collector = TelemetryCollector()
        record(collector)
        lock = collector._lock = CountingLock()

        def record_during_scrape():
            lock.after_release = None
            record(collector)

        lock.after_release = record_during_scrape
        samples = prometheus_samples(collector.to_prometheus())
        assert collector.aggregate("m").requests == 2  # the batch landed
        assert samples['repro_requests_total{model="m"}'] == 1
        assert samples['repro_request_latency_seconds_count{model="m"}'] == 1
        assert samples['repro_request_queue_wait_seconds_count{model="m"}'] == 1

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_one_collector_write_per_batch(self, tiny_mlp_model, rng, backend):
        registry = ModelRegistry()
        hosting = {"backend": "process", "replicas": 1} if backend == "process" else {}
        registry.register("mlp", tiny_mlp_model, arch=RAELLA_ARCH, **hosting)
        try:
            telemetry = TelemetryCollector()
            lock = telemetry._lock = CountingLock()
            calls = []
            record_batch = telemetry.record_batch

            def counted(*args, **kwargs):
                calls.append(args[0])
                return record_batch(*args, **kwargs)

            telemetry.record_batch = counted
            server = InferenceServer(
                registry,
                BatchingPolicy(max_batch_size=4, max_delay_s=0.001),
                telemetry=telemetry,
            )
            sizes = [1, 2, 1, 1, 2, 2, 1, 1, 2, 1]
            futures = [
                server.submit("mlp", np.abs(rng.normal(0, 1, size=(n, 16))))
                for n in sizes
            ]
            with server:
                for future in futures:
                    future.result(timeout=30)
            batches = server.statistics().batches_executed
            assert batches > 1
            assert calls == ["mlp"] * batches
            assert lock.acquisitions == batches
            aggregate = telemetry.aggregate("mlp")
            assert aggregate.requests == len(sizes)
            assert aggregate.samples == sum(sizes)
            assert aggregate.engine_runs == batches
            assert aggregate.replicas_total == (1 if backend == "process" else 0)
        finally:
            registry.close()

    def test_queue_wait_is_enqueue_to_formation(self, tiny_mlp_model, rng):
        # The trace, the histogram, the aggregate, the server statistics and
        # the queue_wait span all read one interval.
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model, arch=RAELLA_ARCH)
        telemetry = TelemetryCollector()
        server = InferenceServer(
            registry,
            BatchingPolicy(max_batch_size=4, max_delay_s=0.001),
            telemetry=telemetry,
            tracer=Tracer(),
        )
        futures = [
            server.submit("mlp", np.abs(rng.normal(0, 1, size=(2, 16))))
            for _ in range(6)
        ]
        with server:
            for future in futures:
                future.result(timeout=30)
        traces = telemetry.traces("mlp")
        waits = [trace.queue_wait_s for trace in traces]
        for trace in traces:
            (span,) = [s for s in trace.spans if s["name"] == "queue_wait"]
            assert trace.enqueued_at == span["start_s"]
            assert trace.formed_at == span["end_s"]
        assert telemetry.aggregate("mlp").queue_wait_s == pytest.approx(sum(waits))
        histogram = telemetry.histogram("mlp", "queue_wait")
        assert histogram.sum == pytest.approx(sum(waits))
        assert server.statistics().queue_wait_s == pytest.approx(sum(waits))

    @given(specs=batch_specs)
    @settings(max_examples=60, deadline=None)
    def test_conservation(self, zoo_costs, specs):
        collector = TelemetryCollector()
        samples = {"a": 0, "b": 0}
        engine_time = {"a": 0.0, "b": 0.0}
        routed = 0
        for step, (name, spec, engine_s, cost_index, replicas, routed_here) in (
            enumerate(specs)
        ):
            formed = 100.0 + step
            requests = [
                request(
                    request_id=index,
                    n_samples=n,
                    deadline_s=None if offset is None else formed + offset,
                    enqueued_at=formed - lead,
                )
                for index, (n, offset, lead) in enumerate(spec)
            ]
            batch_size = sum(n for n, _offset, _lead in spec)
            route = None
            if routed_here and requests:
                route = SimpleNamespace(
                    fleet="f",
                    variant=name,
                    n_samples=batch_size,
                    energy_pj=1.0 * batch_size,
                    baseline_energy_pj=2.0 * batch_size,
                )
                routed += 1
            collector.record_batch(
                name,
                requests,
                formed_at=formed,
                completed_at=formed + engine_s + 0.01,
                engine_time_s=engine_s,
                engine_records=[(batch_size, engine_s, r) for r in replicas],
                cost=None if cost_index is None else zoo_costs[cost_index],
                route=route,
            )
            samples[name] += batch_size
            if requests:
                engine_time[name] += engine_s
            for model in ("a", "b"):
                aggregate = collector.aggregate(model)
                latency = collector.histogram(model, "latency")
                assert aggregate.requests == (0 if latency is None else latency.count)
                assert aggregate.samples == samples[model]
                assert aggregate.engine_share_s == pytest.approx(engine_time[model])
                assert sum(
                    aggregate.modeled_energy_components_pj.values()
                ) == pytest.approx(aggregate.modeled_energy_pj, rel=1e-9)
                assert aggregate.deadline_misses <= aggregate.deadline_requests
            fleet = collector.fleet_aggregate("f")
            assert sum(fleet.executed_batches_by_variant.values()) == routed


# A metric sample line: name, optional {labels} block, a value.  The labels
# block is re-parsed character by character (values may contain commas and
# escaped quotes, so a regex cannot split the pairs).
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<labels>.*)\})? (?P<value>\S+)$"
)
_LABEL_NAME_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="')
_UNESCAPE = {"\\": "\\", '"': '"', "n": "\n"}

# A model name using every character the exposition format must escape
# (backslash, double quote, newline) plus a comma, which is legal *inside*
# a label value but separates label pairs -- the parser must not split on it.
NASTY_MODEL = 'mlp"v2\\prod\nshard,1'


def parse_labels(raw: str) -> dict[str, str]:
    """Parse (and validate) one ``name="value",...`` label block."""
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(raw):
        match = _LABEL_NAME_RE.match(raw, pos)
        assert match is not None, f"bad label name at {raw[pos:]!r}"
        name = match.group(1)
        assert name not in labels, f"duplicate label {name!r}"
        pos = match.end()
        chars: list[str] = []
        while True:
            assert pos < len(raw), f"unterminated label value in {raw!r}"
            char = raw[pos]
            if char == "\\":
                escape = raw[pos + 1 : pos + 2]
                assert escape in _UNESCAPE, f"bad escape \\{escape} in {raw!r}"
                chars.append(_UNESCAPE[escape])
                pos += 2
            elif char == '"':
                pos += 1
                break
            else:
                assert char != "\n", "raw newline inside a label value"
                chars.append(char)
                pos += 1
        labels[name] = "".join(chars)
        if pos < len(raw):
            assert raw[pos] == ",", f"expected ',' between labels in {raw!r}"
            pos += 1
    return labels


class TestPrometheusConformance:
    """Line-by-line exposition-format (0.0.4) conformance of the export.

    The gateway's ``/metrics`` endpoint hands this text to a real Prometheus
    scraper, so every line must parse: ``# HELP``/``# TYPE`` exactly once per
    metric and before its samples, samples contiguous per metric, label
    values escaped, counter names ``_total``-suffixed, float-parseable
    values.  The collector is populated so every metric family emits at
    least one sample, including the escaping-hostile model name above.
    """

    @pytest.fixture
    def rich_collector(self) -> TelemetryCollector:
        collector = TelemetryCollector()
        record(
            collector,
            "plain",
            cost=LinearCost(),
            engine_records=[(4, 0.25, "0"), (2, 0.125, "1")],
            pool_health={"healthy": 2, "replicas": 3, "restarts": 1},
        )
        record(
            collector,
            NASTY_MODEL,
            requests=[request(request_id=1, deadline_s=0.1)],
            completed_at=10.6,
            engine_records=[(2, 0.1, None)],
        )
        collector.record_admission(
            SimpleNamespace(
                model_name=NASTY_MODEL,
                status="shed",
                overload_state=OverloadState.SHED_BEST_EFFORT,
            )
        )
        return collector

    @staticmethod
    def _family_of(metric: str, types: dict[str, str]) -> str:
        """Map one sample name onto its declared metric family.

        Histogram samples append ``_bucket``/``_sum``/``_count`` to the
        family name; counter and gauge samples use the family name verbatim.
        """
        for suffix in ("_bucket", "_sum", "_count"):
            if metric.endswith(suffix):
                family = metric[: -len(suffix)]
                if types.get(family) == "histogram":
                    return family
        return metric

    def _parse(self, text: str):
        """Parse the full export, asserting the line grammar as it goes.

        Returns ``(samples, types)``: every sample as a
        ``(metric, labels, float_value)`` tuple plus each metric's declared
        type.  Histogram families declare ``TYPE <family> histogram`` and
        emit only ``_bucket``/``_sum``/``_count`` samples; ``_bucket`` lines
        must carry an ``le`` label.
        """
        assert text.endswith("\n"), "exposition text must end with a newline"
        samples = []
        types: dict[str, str] = {}
        helps: dict[str, str] = {}
        sampled: set[str] = set()
        current: str | None = None
        for line in text[:-1].split("\n"):
            assert line, "blank line in exposition text"
            if line.startswith("# HELP "):
                metric, _, help_text = line[len("# HELP ") :].partition(" ")
                assert metric not in helps, f"duplicate HELP for {metric}"
                assert help_text, f"empty HELP text for {metric}"
                helps[metric] = help_text
                continue
            if line.startswith("# TYPE "):
                metric, _, kind = line[len("# TYPE ") :].partition(" ")
                assert metric not in types, f"duplicate TYPE for {metric}"
                assert metric not in sampled, f"TYPE after samples for {metric}"
                assert kind in ("counter", "gauge", "histogram"), f"bad type {kind!r}"
                types[metric] = kind
                continue
            assert not line.startswith("#"), f"unparseable comment: {line!r}"
            match = _SAMPLE_RE.match(line)
            assert match is not None, f"unparseable sample line: {line!r}"
            metric = match.group("name")
            family = self._family_of(metric, types)
            assert family in types, f"sample before TYPE for {metric}"
            assert family in helps, f"sample without HELP for {metric}"
            raw = match.group("labels")
            labels = {} if raw is None else parse_labels(raw)
            if types[family] == "histogram":
                assert metric != family, f"bare histogram sample: {metric}"
                if metric == f"{family}_bucket":
                    assert "le" in labels, f"bucket sample without le: {line!r}"
            if family != current:
                assert family not in sampled, f"samples of {family} not contiguous"
                sampled.add(family)
                current = family
            samples.append((metric, labels, float(match.group("value"))))
        return samples, types

    def test_every_line_parses_and_groups_are_contiguous(self, rich_collector):
        samples, types = self._parse(rich_collector.to_prometheus())
        assert samples and types
        seen = set()
        for metric, labels, _value in samples:
            key = (metric, tuple(sorted(labels.items())))
            assert key not in seen, f"duplicate sample {key}"
            seen.add(key)

    def test_counter_names_end_in_total(self, rich_collector):
        _samples, types = self._parse(rich_collector.to_prometheus())
        for metric, kind in types.items():
            if kind == "counter":
                assert metric.endswith("_total"), metric

    def test_label_escaping_round_trips(self, rich_collector):
        samples, _types = self._parse(rich_collector.to_prometheus())
        models = {labels["model"] for _m, labels, _v in samples if "model" in labels}
        assert NASTY_MODEL in models
        assert "plain" in models

    def test_every_family_emits_expected_samples(self, rich_collector):
        samples, types = self._parse(rich_collector.to_prometheus())
        by_metric: dict[str, list] = {}
        for metric, labels, value in samples:
            by_metric.setdefault(metric, []).append((labels, value))
        # Every declared family emits at least one sample for this corpus
        # (histogram families emit under their _bucket/_sum/_count names).
        families = {self._family_of(metric, types) for metric in by_metric}
        assert families == set(types)
        components = by_metric["repro_modeled_energy_component_picojoules_total"]
        assert {labels["component"] for labels, _v in components} == {
            "dac",
            "adc",
            "crossbar",
            "digital",
        }
        replicas = by_metric["repro_replica_engine_runs_total"]
        assert {(labels["model"], labels["replica"]) for labels, _v in replicas} == {
            ("plain", "0"),
            ("plain", "1"),
        }
        assert by_metric["repro_replicas_total"] == [({"model": "plain"}, 3.0)]
        assert by_metric["repro_overload_state"] == [({}, 1.0)]
        shed = [
            value
            for labels, value in by_metric["repro_admission_shed_total"]
            if labels["model"] == NASTY_MODEL
        ]
        assert shed == [1.0]

    def test_content_type_constant_is_version_0_0_4(self):
        assert PROMETHEUS_CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"

    def _histogram_series(self, samples, types):
        """Group histogram samples: (family, model) -> {suffix: ...}."""
        series: dict[tuple, dict] = {}
        for metric, labels, value in samples:
            family = self._family_of(metric, types)
            if types[family] != "histogram":
                continue
            key = (family, labels.get("model"))
            entry = series.setdefault(key, {"buckets": []})
            if metric.endswith("_bucket"):
                entry["buckets"].append((labels["le"], value))
            elif metric.endswith("_sum"):
                entry["sum"] = value
            elif metric.endswith("_count"):
                entry["count"] = value
        return series

    def test_histogram_families_are_declared_and_populated(self, rich_collector):
        samples, types = self._parse(rich_collector.to_prometheus())
        histogram_families = {m for m, kind in types.items() if kind == "histogram"}
        assert histogram_families == {
            "repro_request_latency_seconds",
            "repro_request_queue_wait_seconds",
            "repro_engine_run_seconds",
        }
        series = self._histogram_series(samples, types)
        models = {model for _family, model in series}
        assert NASTY_MODEL in models and "plain" in models

    def test_histogram_buckets_monotone_and_inf_equals_count(self, rich_collector):
        samples, types = self._parse(rich_collector.to_prometheus())
        for (family, model), entry in self._histogram_series(samples, types).items():
            buckets = entry["buckets"]
            assert buckets, (family, model)
            les = [le for le, _v in buckets]
            assert les[-1] == "+Inf", f"{family} missing +Inf bucket"
            finite = [float(le) for le in les[:-1]]
            assert finite == sorted(finite), f"{family} le values out of order"
            counts = [value for _le, value in buckets]
            assert counts == sorted(counts), f"{family} buckets not cumulative"
            assert counts[-1] == entry["count"], f"{family} +Inf != _count"

    def test_histogram_sums_match_recorded_observations(self, rich_collector):
        samples, types = self._parse(rich_collector.to_prometheus())
        series = self._histogram_series(samples, types)
        # The fixture records: "plain" latency 1.0 / queue wait 0.5 and two
        # engine runs 0.25 + 0.125; NASTY latency 0.6 / queue wait 0.5 and
        # one 0.1 engine run (see record() defaults and rich_collector).
        expect = {
            ("repro_request_latency_seconds", "plain"): (1, 1.0),
            ("repro_request_queue_wait_seconds", "plain"): (1, 0.5),
            ("repro_engine_run_seconds", "plain"): (2, 0.375),
            ("repro_request_latency_seconds", NASTY_MODEL): (1, 0.6),
            ("repro_request_queue_wait_seconds", NASTY_MODEL): (1, 0.5),
            ("repro_engine_run_seconds", NASTY_MODEL): (1, 0.1),
        }
        assert set(series) == set(expect)
        for key, (count, total) in expect.items():
            assert series[key]["count"] == count, key
            assert series[key]["sum"] == pytest.approx(total), key


class TestLatencyHistogram:
    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="positive"):
            LatencyHistogram(bounds=(0.0, 1.0))
        with pytest.raises(ValueError, match="increasing"):
            LatencyHistogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError, match="positive"):
            LatencyHistogram(bounds=())

    def test_observe_count_sum_and_buckets(self):
        histogram = LatencyHistogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(106.5)
        assert histogram.counts == [1, 2, 1, 1]  # <=1, <=2, <=4, +Inf
        cumulative = histogram.cumulative_counts()
        assert cumulative == [1, 3, 4, 5]
        assert cumulative[-1] == histogram.count

    def test_quantile_interpolates_within_bucket(self):
        histogram = LatencyHistogram(bounds=(1.0, 2.0, 4.0))
        for _ in range(4):
            histogram.observe(1.5)  # all in the (1, 2] bucket
        # PromQL semantics: rank p*count interpolated between the bounds.
        assert histogram.quantile(0.5) == pytest.approx(1.5)
        assert histogram.quantile(1.0) == pytest.approx(2.0)
        assert histogram.quantile(0.0) == pytest.approx(1.0)

    def test_quantile_edges(self):
        histogram = LatencyHistogram(bounds=(1.0, 2.0))
        assert histogram.quantile(0.5) is None  # empty
        histogram.observe(0.25)  # first bucket interpolates from zero
        assert 0.0 < histogram.quantile(0.5) <= 1.0
        histogram.observe(50.0)  # +Inf bucket clamps to the top bound
        assert histogram.quantile(1.0) == pytest.approx(2.0)
        with pytest.raises(ValueError, match="quantile"):
            histogram.quantile(1.5)

    def test_default_bounds_span_microseconds_to_minutes(self):
        histogram = LatencyHistogram()
        assert histogram.bounds[0] <= 1e-6
        assert histogram.bounds[-1] >= 60.0
        histogram.observe(0.003)
        assert 0.001 < histogram.quantile(0.5) < 0.01

    def test_as_dict_and_snapshot_independence(self):
        histogram = LatencyHistogram(bounds=(1.0, 2.0))
        histogram.observe(1.5)
        summary = histogram.as_dict()
        assert summary["count"] == 1
        assert summary["sum_s"] == pytest.approx(1.5)
        assert set(summary) == {"count", "sum_s", "p50_s", "p90_s", "p99_s"}
        snapshot = histogram.snapshot()
        histogram.observe(1.5)
        assert snapshot.count == 1 and histogram.count == 2

    def test_collector_histograms_and_quantiles(self):
        collector = TelemetryCollector()
        assert collector.histogram("m", "latency") is None
        assert collector.quantile("m", 0.5) is None
        # latency 1.0, queue wait 0.5
        record(collector, engine_records=[(4, 0.25, None)])
        latency = collector.histogram("m", "latency")
        assert latency.count == 1 and latency.sum == pytest.approx(1.0)
        assert collector.histogram("m", "queue_wait").sum == pytest.approx(0.5)
        assert collector.histogram("m", "engine").sum == pytest.approx(0.25)
        assert 0.5 < collector.quantile("m", 0.5) <= 1.0
        assert collector.quantile("m", 0.5, metric="engine") <= 0.25 * 2
        with pytest.raises(ValueError, match="metric"):
            collector.histogram("m", "nope")
        with pytest.raises(ValueError, match="metric"):
            collector.quantile("m", 0.5, metric="nope")
        # The returned histogram is a snapshot: mutating it is invisible.
        latency.observe(9.0)
        assert collector.histogram("m", "latency").count == 1

    def test_export_json_carries_histograms(self):
        collector = TelemetryCollector()
        record(collector)
        document = json.loads(collector.export_json())
        histograms = document["models"]["m"]["histograms"]
        assert histograms["latency"]["count"] == 1
        assert histograms["queue_wait"]["sum_s"] == pytest.approx(0.5)


class TestSloServing:
    def _request(self, name, enqueued_at, priority=0, deadline_s=None, samples=1):
        return InferenceRequest(
            model_name=name,
            inputs=np.zeros((samples, 2)),
            future=InferenceFuture(),
            enqueued_at=enqueued_at,
            priority=priority,
            deadline_s=deadline_s,
        )

    def test_earliest_deadline_first_dispatch(self):
        queue = RequestQueue()
        now = time.monotonic()
        queue.submit(self._request("loose", now - 1.0, deadline_s=now + 30.0))
        queue.submit(self._request("tight", now, deadline_s=now + 0.05))
        queue.close()  # drain mode: every model is ready, urgency decides
        policy = BatchingPolicy(max_batch_size=8, max_delay_s=10.0)
        assert pop(queue, policy)[0].model_name == "tight"
        assert pop(queue, policy)[0].model_name == "loose"
        assert pop(queue, policy) is None

    def test_priority_classes_beat_age(self):
        # Within the starvation limit, priority outranks age; beyond it the
        # aging rule promotes the old request (see TestStarvationAging in
        # tests/test_scheduler_queue.py), so the limit is raised here to keep
        # the 5-second-old request un-starved.
        queue = RequestQueue()
        now = time.monotonic()
        queue.submit(
            self._request("old_low", now - 5.0, priority=0, deadline_s=now + 1.0)
        )
        queue.submit(self._request("new_high", now, priority=1, deadline_s=now + 1.0))
        queue.close()
        policy = BatchingPolicy(
            max_batch_size=8, max_delay_s=10.0, starvation_limit_s=30.0
        )
        assert pop(queue, policy)[0].model_name == "new_high"
        assert pop(queue, policy)[0].model_name == "old_low"

    def test_fifo_without_slo_hints(self):
        queue = RequestQueue()
        now = time.monotonic()
        queue.submit(self._request("second", now))
        queue.submit(self._request("first", now - 1.0))
        queue.close()
        policy = BatchingPolicy(max_batch_size=8, max_delay_s=10.0)
        assert pop(queue, policy)[0].model_name == "first"
        assert pop(queue, policy)[0].model_name == "second"

    def test_slo_mode_off_forces_fifo(self):
        queue = RequestQueue(slo_mode=False)
        now = time.monotonic()
        queue.submit(self._request("older", now - 1.0, deadline_s=now + 30.0))
        queue.submit(self._request("urgent", now, deadline_s=now + 0.01))
        queue.close()
        policy = BatchingPolicy(max_batch_size=8, max_delay_s=10.0)
        assert pop(queue, policy)[0].model_name == "older"

    def test_failing_estimator_degrades_to_no_prediction(self):
        def broken(name, samples):
            raise KeyError(name)

        queue = RequestQueue(latency_estimator=broken)
        now = time.monotonic()
        queue.submit(self._request("m", now, deadline_s=now + 30.0))
        queue.close()
        policy = BatchingPolicy(max_batch_size=8, max_delay_s=10.0)
        batch = pop(queue, policy)  # must not raise
        assert batch[0].model_name == "m"

    def test_latency_estimator_tightens_slack(self):
        # Two models, same deadline; the one predicted to run longer has
        # less slack and must dispatch first.
        estimates = {"slow": 5.0, "fast": 0.001}
        queue = RequestQueue(latency_estimator=lambda name, n: estimates[name])
        now = time.monotonic()
        queue.submit(self._request("fast", now - 1.0, deadline_s=now + 10.0))
        queue.submit(self._request("slow", now, deadline_s=now + 10.0))
        queue.close()
        policy = BatchingPolicy(max_batch_size=8, max_delay_s=10.0)
        assert pop(queue, policy)[0].model_name == "slow"

    def test_urgency_judged_on_dispatchable_batch_only(self):
        # Model "mixed" has a bulk backlog at its head and an urgent request
        # deep in its queue, beyond the batch that would dispatch now.  That
        # deep deadline must not let the bulk head batch jump a genuinely
        # urgent batch of another model.
        queue = RequestQueue()
        now = time.monotonic()
        for _ in range(3):
            queue.submit(self._request("mixed", now - 0.5, samples=4))
        queue.submit(self._request("mixed", now, deadline_s=now + 0.1))
        queue.submit(self._request("other", now, deadline_s=now + 5.0))
        queue.close()
        policy = BatchingPolicy(max_batch_size=8, max_delay_s=10.0)
        # "mixed"'s dispatchable batch is the 2x4-sample bulk prefix (no
        # deadline -> budget slack ~10s); "other"'s batch carries the 5s
        # deadline -> less slack -> dispatches first.
        assert pop(queue, policy)[0].model_name == "other"
        bulk = pop(queue, policy)
        assert [r.model_name for r in bulk] == ["mixed", "mixed"]
        urgent = pop(queue, policy)
        assert [r.deadline_s is not None for r in urgent] == [False, True]
        assert pop(queue, policy) is None

    def test_deadline_at_risk_dispatches_partial_batch(self):
        queue = RequestQueue()
        now = time.monotonic()
        queue.submit(self._request("m", now, deadline_s=now + 0.01))
        policy = BatchingPolicy(max_batch_size=64, max_delay_s=30.0)
        start = time.monotonic()
        batch = pop(queue, policy)  # queue still open, batch partial
        assert len(batch) == 1
        assert time.monotonic() - start < 5.0  # not the 30s delay budget

    def test_server_bit_identical_and_traced(self, tiny_mlp_model, rng):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model, arch=RAELLA_ARCH)
        cost = registry.cost_model("mlp")
        assert cost is not None
        requests = [np.abs(rng.normal(0, 1, size=(2, 16))) for _ in range(12)]
        direct = [registry.engine("mlp").run(r) for r in requests]

        telemetry = TelemetryCollector()
        policy = BatchingPolicy(max_batch_size=8, max_delay_s=0.002)
        server = InferenceServer(registry, policy, telemetry=telemetry)
        futures = [
            server.submit("mlp", r, priority=i % 3, deadline_s=30.0)
            for i, r in enumerate(requests)
        ]
        with server:
            results = [f.result(timeout=30) for f in futures]
        for expected, got in zip(direct, results):
            assert np.array_equal(expected, got)

        aggregate = telemetry.aggregate("mlp")
        assert aggregate.requests == 12
        assert aggregate.samples == 24
        assert aggregate.deadline_requests == 12
        traces = telemetry.traces("mlp")
        assert len(traces) == 12
        for trace in traces:
            assert trace.queue_wait_s >= 0
            assert trace.batch_size >= trace.n_samples
            assert trace.modeled_energy_pj == pytest.approx(cost.energy_pj(2))
            # Sample-weighted share of the batch's modeled latency: the
            # pipeline fill is charged once per batch, not once per request.
            assert trace.modeled_latency_us == pytest.approx(
                cost.batch_latency_us(trace.batch_size)
                * trace.n_samples
                / trace.batch_size
            )

    def test_server_records_deadline_misses(self, tiny_mlp_model, rng):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model, arch=RAELLA_ARCH)
        telemetry = TelemetryCollector()
        server = InferenceServer(registry, telemetry=telemetry)
        # An (effectively) already-expired deadline: the miss must be
        # recorded, and the request must still complete with a result.
        future = server.submit(
            "mlp", np.abs(rng.normal(0, 1, size=(1, 16))), deadline_s=1e-9
        )
        with server:
            result = future.result(timeout=30)
        assert result.shape == (1, 4)
        aggregate = telemetry.aggregate("mlp")
        assert aggregate.deadline_requests == 1
        assert aggregate.deadline_misses == 1

    def test_reregistering_with_arch_wires_cost_model(self, tiny_mlp_model, rng):
        # The server must not cache the *absence* of cost tables: a tenant
        # re-registered with an architecture gains metered traces.
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model)  # no arch: unmetered
        telemetry = TelemetryCollector()
        inputs = np.abs(rng.normal(0, 1, size=(1, 16)))
        with InferenceServer(registry, telemetry=telemetry) as server:
            server.infer("mlp", inputs, timeout=30)
            assert telemetry.traces("mlp")[-1].modeled_energy_pj is None
            registry.unregister("mlp")
            registry.register("mlp", tiny_mlp_model, arch=RAELLA_ARCH)
            server.infer("mlp", inputs, timeout=30)
        assert telemetry.traces("mlp")[-1].modeled_energy_pj > 0

    def test_reregistered_name_uses_fresh_cost_tables(
        self, tiny_mlp_model, tiny_conv_model, rng
    ):
        # Re-registering a different model under the same name must re-wire
        # the collector with the new tables, not bill against the old ones.
        registry = ModelRegistry()
        registry.register("m", tiny_mlp_model, arch=RAELLA_ARCH)
        old_energy = registry.cost_model("m").energy_pj(1)
        telemetry = TelemetryCollector()
        with InferenceServer(registry, telemetry=telemetry) as server:
            server.infer("m", np.abs(rng.normal(0, 1, size=(1, 16))), timeout=30)
            assert telemetry.traces("m")[-1].modeled_energy_pj == pytest.approx(
                old_energy
            )
            registry.unregister("m")
            registry.register("m", tiny_conv_model, arch=RAELLA_ARCH)
            new_energy = registry.cost_model("m").energy_pj(1)
            assert new_energy != pytest.approx(old_energy)
            server.infer("m", np.abs(rng.normal(0, 1, size=(1, 3, 8, 8))), timeout=30)
        assert telemetry.traces("m")[-1].modeled_energy_pj == pytest.approx(new_energy)

    def test_tenant_unregistered_mid_batch_keeps_the_worker(
        self, tiny_mlp_model, tiny_conv_model, rng
    ):
        # A batch that outlives its tenant completes without modeled
        # figures (the name has no tables any more), and the one worker
        # lives on to serve the other tenant.
        registry = ModelRegistry()
        engine = registry.register("gone", tiny_mlp_model, arch=RAELLA_ARCH)
        registry.register("kept", tiny_conv_model, arch=RAELLA_ARCH)
        original_run = engine.run
        started, release = threading.Event(), threading.Event()

        def held_run(inputs, **kwargs):
            started.set()
            assert release.wait(timeout=10.0)
            return original_run(inputs, **kwargs)

        engine.run = held_run
        telemetry = TelemetryCollector()
        inputs = np.abs(rng.normal(0, 1, size=(2, 16)))
        with InferenceServer(registry, telemetry=telemetry, max_workers=1) as server:
            decision = server.submit("gone", inputs)
            assert started.wait(timeout=10.0)
            assert registry.unregister("gone")
            release.set()
            outputs = decision.result(timeout=10.0)
            server.infer(
                "kept", np.abs(rng.normal(0, 1, size=(1, 3, 8, 8))), timeout=10.0
            )
            assert [worker.is_alive() for worker in server._workers] == [True]
        np.testing.assert_array_equal(outputs, original_run(inputs))
        (trace,) = telemetry.traces("gone")
        assert trace.modeled_energy_pj is None and trace.modeled_latency_us is None
        assert telemetry.aggregate("gone").engine_runs == 1
        assert telemetry.traces("kept")[-1].modeled_energy_pj > 0

    def test_submit_rejects_nonpositive_deadline(self, tiny_mlp_model):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model)
        server = InferenceServer(registry)
        with pytest.raises(ValueError, match="deadline_s must be positive"):
            server.submit("mlp", np.zeros((1, 16)), deadline_s=0.0)

    def test_registry_cost_model_lifecycle(self, tiny_mlp_model):
        registry = ModelRegistry()
        registry.register("plain", tiny_mlp_model)
        assert registry.cost_model("plain") is None
        with pytest.raises(KeyError):
            registry.cost_model("absent")
        registry.unregister("plain")
