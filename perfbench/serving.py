"""``serve_mix``: open-loop load into the thread-backend server.

Two tenants -- the 128->96->48->10 MLP of ``benchmarks/bench_plans.py`` and
``bert_large_ffn_like``, both registered with ``arch=RAELLA_ARCH`` -- sit
behind one ``InferenceServer`` with telemetry, admission control and
``BatchingPolicy(max_batch_size=32, max_delay_s=0.002)``.  Requests carry
1-4 samples and a quarter of them carry ``priority=1`` and a deadline.

One thread sends requests on a seeded Poisson schedule (arrival times are a
sorted uniform sample, i.e. a Poisson process conditioned on its count), so
a slow server still receives the full load; each request's latency runs from
its *scheduled* send time to the moment its future resolves, which counts
the wait a stall imposes on later requests.  Saturated drains submit a
backlog of the same mix before ``start()`` and time how fast it empties.

The timed window is split into rounds, each an open-loop segment followed
by drains, so both phases sample the host over the whole run: on a shared
host the speed drifts by tens of percent within seconds, and drains packed
into the last few seconds of a run measured mostly that drift.

Every phase resends requests of one seeded pool, and every reply is compared
byte for byte, after the run, with an in-process ``NetworkEngine.run`` of the
same inputs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np
from harness import (
    MatmulTimer,
    SpanStats,
    cost_rows,
    log,
    network_rates,
    peak_rss_mb,
    percentile_ms,
    settle,
)

from repro.hw import RAELLA_ARCH
from repro.nn.layers import Linear
from repro.nn.model import QuantizedModel
from repro.nn.synthetic import synthetic_linear_weights, synthetic_signed_activations
from repro.nn.zoo import bert_large_ffn_like
from repro.runtime import EncodedWeightCache, ExecutorPool, NetworkEngine
from repro.serve import (
    AdmissionController,
    BatchingPolicy,
    InferenceServer,
    ModelRegistry,
)
from repro.telemetry import CostModel, TelemetryCollector, Tracer
from repro.telemetry.tracing import FlightRecorder

POLICY = BatchingPolicy(max_batch_size=32, max_delay_s=0.002)
#: A request meets its latency limit when it completes within this time.
LATENCY_LIMIT_S = 0.020
#: Deadline carried by the SLO-tagged quarter of the requests: loose enough
#: that admission never sheds through a host stall (the generator has seen
#: 25 ms p99 lateness on a shared 2-core host), tight enough to order them.
DEADLINE_S = 0.5
#: Setups per run; setup_s is their median.
SETUPS = 5
#: Requests sent (all at once) to warm a freshly set-up server.
WARMUP_REQUESTS = 16
#: Share of the timed window spent in open-loop segments; drains get the rest.
OPEN_LOOP_SHARE = 2 / 3
#: Longest the benchmark waits for outstanding replies after a phase.
DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Load:
    rate_rps: float
    pool_requests: int
    #: Open-loop segment + drains, repeated this many times per run.
    rounds: int


FULL = Load(rate_rps=60.0, pool_requests=600, rounds=10)
SMOKE = Load(rate_rps=20.0, pool_requests=20, rounds=2)


@dataclass
class Request:
    model: str
    inputs: np.ndarray
    priority: int = 0
    deadline_s: float | None = None


def plan_mlp() -> QuantizedModel:
    """The CPU-bound 128->96->48->10 MLP of ``benchmarks/bench_plans.py``."""
    rng = np.random.default_rng(3)
    layers = [
        Linear("mlp_fc1", synthetic_linear_weights(96, 128, rng, 0.15), fuse_relu=True),
        Linear("mlp_fc2", synthetic_linear_weights(48, 96, rng, 0.15), fuse_relu=True),
        Linear("mlp_fc3", synthetic_linear_weights(10, 48, rng, 0.15)),
    ]
    model = QuantizedModel("plan_mlp", layers, input_shape=(128,))
    model.calibrate(np.abs(rng.normal(0, 1, size=(64, 128))))
    return model


TENANTS = {"mlp": plan_mlp, "bert": bert_large_ffn_like}


def _shuffled(rng: np.random.Generator, pattern, n: int) -> np.ndarray:
    """``pattern`` repeated to length ``n``, in seeded order: every seed sends
    the same mix, so only order, arrival times and input values change."""
    return rng.permutation(np.resize(np.asarray(pattern), n))


def make_requests(rng: np.random.Generator, n: int) -> list[Request]:
    """Half MLP, half BERT-FFN; 1-4 samples; a quarter carry SLO tags."""
    models = _shuffled(rng, ["mlp", "bert"], n)
    sizes = _shuffled(rng, [1, 2, 3, 4], n)
    tagged = _shuffled(rng, [True, False, False, False], n)
    requests = []
    for model, samples, slo in zip(models, sizes, tagged):
        if model == "mlp":
            inputs = np.abs(rng.normal(0, 1, size=(samples, 128)))
        else:
            inputs = synthetic_signed_activations((samples, 96), rng)
        if slo:
            requests.append(Request(str(model), inputs, 1, DEADLINE_S))
        else:
            requests.append(Request(str(model), inputs))
    return requests


class Hosted:
    """One set-up deployment: registry, tenants and a started server."""

    def __init__(self):
        start = time.perf_counter()
        self.registry = ModelRegistry()
        self.models = {}
        self.compile_s = 0.0
        for name, builder in TENANTS.items():
            self.models[name] = builder()
            register_start = time.perf_counter()
            self.registry.register(name, self.models[name], arch=RAELLA_ARCH)
            self.compile_s += time.perf_counter() - register_start
        self.telemetry = TelemetryCollector()
        self.admission = AdmissionController()
        self.server = self.make_server().start()
        warm = make_requests(np.random.default_rng(12345), WARMUP_REQUESTS)
        decisions = [submit(self.server, request) for request in warm]
        for decision in decisions:
            decision.result(timeout=DRAIN_TIMEOUT_S)
        self.setup_s = time.perf_counter() - start

    def make_server(self, tracer=None) -> InferenceServer:
        return InferenceServer(
            self.registry,
            POLICY,
            telemetry=self.telemetry,
            admission=self.admission,
            tracer=tracer,
        )

    def close(self) -> None:
        self.server.stop()
        self.registry.close()


def submit(server: InferenceServer, request: Request):
    return server.submit(
        request.model,
        request.inputs,
        priority=request.priority,
        deadline_s=request.deadline_s,
    )


class Outcome:
    """Per-request results of one phase."""

    def __init__(self, requests: list[Request]):
        n = len(requests)
        self.requests = requests
        self.due = np.zeros(n)
        self.late = np.zeros(n)
        self.done = np.full(n, np.nan)
        self.outputs: list[np.ndarray | None] = [None] * n
        self.shed = 0
        self.errors = 0
        self._pending = n
        self._lock = threading.Lock()
        self._all_done = threading.Event()
        if n == 0:
            self._all_done.set()

    def _finish_one(self) -> None:
        with self._lock:
            self._pending -= 1
            if self._pending == 0:
                self._all_done.set()

    def track(self, index: int, decision) -> None:
        if not decision.accepted:
            self.shed += 1
            self._finish_one()
            return

        def on_done(future, index=index):
            finished = time.perf_counter()
            if future.exception(timeout=0) is None:
                self.outputs[index] = future.result(timeout=0)
                self.done[index] = finished
            else:
                with self._lock:
                    self.errors += 1
            self._finish_one()

        decision.future.add_done_callback(on_done)

    def wait(self) -> None:
        if not self._all_done.wait(DRAIN_TIMEOUT_S):
            log(f"{self._pending} requests still pending after {DRAIN_TIMEOUT_S}s")

    def latencies(self) -> np.ndarray:
        """Completed requests' latencies in seconds."""
        latencies = self.done - self.due
        return latencies[np.isfinite(latencies)]


def open_loop(server: InferenceServer, requests, offsets) -> Outcome:
    """Send each request at its scheduled offset from one thread."""
    settle()
    outcome = Outcome(requests)
    start = time.perf_counter() + 0.01
    outcome.due = start + np.asarray(offsets)
    for index, request in enumerate(requests):
        delay = outcome.due[index] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        outcome.late[index] = time.perf_counter() - outcome.due[index]
        outcome.track(index, submit(server, request))
    outcome.wait()
    return outcome


def drain(hosted: Hosted, requests) -> tuple[Outcome, float]:
    """Submit a backlog to a stopped server, start it, time the drain.

    Each drain gets a fresh collector, so one drain's backlog does not skew
    the next one's latency calibration, and no admission controller: the
    backlog is deliberate.
    """
    server = InferenceServer(hosted.registry, POLICY, telemetry=TelemetryCollector())
    settle()
    outcome = Outcome(requests)
    for index, request in enumerate(requests):
        outcome.track(index, submit(server, request))
    start = time.perf_counter()
    outcome.due[:] = start
    server.start()
    outcome.wait()
    server.stop()
    finished = np.nanmax(outcome.done) if np.isfinite(outcome.done).any() else start
    return outcome, len(requests) / max(finished - start, 1e-9)


def replay_check(hosted: Hosted, pool: list[Request], outcomes) -> tuple[int, dict]:
    """Compare every reply with an in-process engine run of the same inputs.

    Each distinct input of the pool is replayed once.  Returns the mismatch
    count and the replay engines (fresh executors, so their
    ``LayerStatistics`` count exactly the pool).
    """
    engines = {
        name: NetworkEngine.build(
            model,
            pool=ExecutorPool(weight_cache=EncodedWeightCache(), float32=True),
            float32=True,
        )
        for name, model in hosted.models.items()
    }
    expected = {}
    for name, engine in engines.items():
        mine = [request for request in pool if request.model == name]
        outputs = engine.run(np.concatenate([r.inputs for r in mine]), micro_batch=512)
        offset = 0
        for request in mine:
            expected[id(request)] = outputs[offset : offset + len(request.inputs)]
            offset += len(request.inputs)
    mismatches = 0
    for outcome in outcomes:
        for request, output in zip(outcome.requests, outcome.outputs):
            if output is None:
                continue  # shed or failed: already counted
            want = expected[id(request)]
            if output.dtype != want.dtype or output.tobytes() != want.tobytes():
                mismatches += 1
    return mismatches, engines


def _draw(rng: np.random.Generator, pool: list[Request], n: int) -> list[Request]:
    return [pool[i] for i in _shuffled(rng, range(len(pool)), n)]


def _backlog(rng: np.random.Generator, pool: list[Request]) -> list[Request]:
    """The whole pool in seeded order: every drain does the same work, so
    drains differ only in order and host noise."""
    return _draw(rng, pool, len(pool))


def _schedule(rng: np.random.Generator, pool, rate_rps: float, seconds: float):
    n = max(2, int(round(rate_rps * seconds)))
    return _draw(rng, pool, n), np.sort(rng.uniform(0.0, seconds, n))


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    load = SMOKE if smoke else FULL
    rng = np.random.default_rng(seed)
    setups = 1 if (smoke or trace) else SETUPS
    setup_times = []
    for index in range(setups):
        hosted = Hosted()
        setup_times.append(hosted.setup_s)
        log(f"serve_mix setup {index}: {hosted.setup_s:.2f}s")
        if index < setups - 1:
            hosted.close()
    pool = make_requests(rng, load.pool_requests)
    try:
        if trace:
            window = seconds / 2
            requests, offsets = _schedule(rng, pool, load.rate_rps, window)
            outcome = open_loop(hosted.server, requests, offsets)
            return _traced(hosted, rng, pool, load, window, outcome)
        return _untraced(hosted, rng, pool, load, seconds, setup_times)
    finally:
        hosted.close()


def _untraced(hosted, rng, pool, load, seconds, setup_times) -> dict:
    # One unmeasured drain first: larger coalesced batches than the open loop
    # forms touch new array shapes.
    outcomes = [drain(hosted, _backlog(rng, pool))[0]]
    segments, rates = [], []
    segment_s = seconds * OPEN_LOOP_SHARE / load.rounds
    drain_s = seconds * (1 - OPEN_LOOP_SHARE) / load.rounds
    for _ in range(load.rounds):
        requests, offsets = _schedule(rng, pool, load.rate_rps, segment_s)
        segments.append(open_loop(hosted.server, requests, offsets))
        until = time.perf_counter() + drain_s
        while True:  # at least one drain per round
            drained, rate = drain(hosted, _backlog(rng, pool))
            outcomes.append(drained)
            rates.append(rate)
            if time.perf_counter() >= until:
                break
    outcomes += segments
    mismatches, _engines = replay_check(hosted, pool, outcomes)
    attempted = sum(len(o.requests) for o in outcomes)
    failed = sum(o.shed + o.errors for o in outcomes) + mismatches
    latencies = np.concatenate([s.latencies() for s in segments])
    open_requests = sum(len(s.requests) for s in segments)
    samples = sum(
        len(request.inputs)
        for s in segments
        for request, out in zip(s.requests, s.outputs)
        if out is not None
    )
    busy_s = sum(np.nanmax(s.done) - s.due[0] for s in segments)
    met = int(np.sum(latencies <= LATENCY_LIMIT_S))
    # Median of per-segment medians: a host stall that slows a few segments
    # moves the tail (slo_met_fraction), not the typical latency.
    segment_p50 = [percentile_ms(s.latencies(), 50) for s in segments]
    log(
        f"serve_mix: {open_requests} open-loop requests at {load.rate_rps} req/s "
        f"in {load.rounds} segments, {len(rates)}x{len(pool)} drained; "
        f"{failed} failed of {attempted}"
    )
    return {
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": float(np.median(setup_times)),
            "samples_per_s": samples / busy_s,
            "latency_p50_ms": float(np.median(segment_p50)),
            "slo_met_fraction": met / open_requests,
            "saturated_rps": float(np.median(rates)),
            "peak_rss_mb": peak_rss_mb(),
        },
        "details": {
            "open_loop_requests": open_requests,
            "rate_rps": load.rate_rps,
            "latency_limit_s": LATENCY_LIMIT_S,
            "latency_p50_ms_pooled": percentile_ms(latencies, 50),
            "latency_p50_ms_segments": segment_p50,
            "latency_p90_ms": percentile_ms(latencies, 90),
            "latency_p99_ms": percentile_ms(latencies, 99),
            "generator_late_ms_p99": percentile_ms(
                np.concatenate([s.late for s in segments]), 99
            ),
            "drain_requests": len(pool),
            "drain_rps_all": rates,
            "drain_rps_mean": float(np.mean(rates)),
            "setup_s_all": setup_times,
            "mismatches": mismatches,
        },
    }


def _traced(hosted, rng, pool, load, window, untraced: Outcome) -> dict:
    """The same load again, with tracing and the timing hook on."""
    tracer = Tracer(recorder=FlightRecorder(capacity=400_000))
    timer = MatmulTimer(tracer)
    engines = [hosted.registry.engine(name) for name in hosted.models]
    for engine in engines:
        engine.pim_matmul = timer.wrap_hook(engine.pim_matmul)
        engine.run = timer.wrap_call(engine.run)
    server = hosted.make_server(tracer=tracer).start()
    requests, offsets = _schedule(rng, pool, load.rate_rps, window)
    try:
        traced = open_loop(server, requests, offsets)
    finally:
        server.stop()
        for engine in engines:
            del engine.pim_matmul, engine.run
    mismatches, replayed = replay_check(hosted, pool, [untraced, traced])
    spans = SpanStats.from_recorder(tracer.recorder)
    summary = timer.summary()
    converts, failure_rate = network_rates(
        {
            layer: stats
            for engine in replayed.values()
            for layer, stats in engine.layer_statistics().items()
        }
    )
    rows, pj_weighted, samples_total = {}, 0.0, 0
    layer_rows = timer.layer_rows()
    for name, model in hosted.models.items():
        cost = CostModel.from_model(model, RAELLA_ARCH)
        model_samples = sum(len(r.inputs) for r in requests if r.model == name)
        pj_weighted += cost.energy_per_sample_pj * model_samples
        samples_total += model_samples
        layer_stats = replayed[name].layer_statistics()
        for layer, row in cost_rows(cost, layer_stats).items():
            rows[f"{name}/{layer}"] = {
                **row,
                **layer_rows.get(layer, {}),
                "converts_per_mac": layer_stats[layer].converts_per_mac,
                "spec_failure_rate": layer_stats[layer].speculation_failure_rate,
            }
    attempted = len(untraced.requests) + len(requests)
    failed = untraced.shed + untraced.errors + traced.shed + traced.errors + mismatches
    p50_untraced = percentile_ms(untraced.latencies(), 50)
    p50_traced = percentile_ms(traced.latencies(), 50)
    engine_spans = spans.stages.get("engine", [0.0])
    return {
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "details": {"mismatches": mismatches, "traced_requests": len(requests)},
        "layers": {
            "layers": rows,
            "engine_calls": summary,
            "spans": spans.quantiles(),
            "latency_p50_ms": {"untraced": p50_untraced, "traced": p50_traced},
        },
        "chrome": tracer.recorder.to_chrome_trace(),
        "metrics": {
            "core.compile_s": hosted.compile_s,
            "nn.glue_ms": summary["glue_ms"],
            "nn.glue_share_pct": summary["glue_share_pct"],
            "runtime.matmul_ms": summary["matmul_ms"],
            "runtime.matmul_max_layer_ms": summary["matmul_max_layer_ms"],
            "runtime.engine_ms_p50": percentile_ms(engine_spans, 50),
            "runtime.engine_ms_p99": percentile_ms(engine_spans, 99),
            "runtime.converts_per_mac": converts,
            "runtime.spec_failure_rate": failure_rate,
            "cost.modeled_pj_per_sample": pj_weighted / max(samples_total, 1),
            "serve.admission_share_pct": spans.share_pct("admission"),
            "serve.queue_wait_share_pct": spans.share_pct("queue_wait"),
            "serve.dispatch_wait_share_pct": spans.share_pct("dispatch_wait"),
            "serve.execute_share_pct": spans.share_pct("execute"),
            "serve.batch_samples_mean": server.statistics().mean_batch_size,
            "admission.shed": untraced.shed + traced.shed,
            "bench.error_rate": failed / attempted,
            "bench.generator_late_ms_p99": percentile_ms(traced.late, 99),
            "telemetry.tracing_overhead_pct": 100.0
            * (p50_traced - p50_untraced)
            / p50_untraced,
        },
    }
