"""Throughput/latency benchmark of the multi-tenant batched serving layer.

Not a paper artifact: this tracks the serving hot path the ROADMAP targets.
The headline regression test compares the dynamic micro-batching
:class:`~repro.serve.InferenceServer` against the naive serving baseline --
one :meth:`NetworkEngine.run` call per request -- on the same single-sample
request stream and the same pooled executors, and asserts the coalesced path
sustains at least ``MIN_SERVE_SPEEDUP``x the request throughput (2x locally;
CI relaxes the bar for noisy shared runners).  Results stay bit-identical, so
the speedup is pure batching: one fused GEMM per coalesced batch instead of
one tiny GEMM (plus per-call phase extraction and scheduling overhead) per
request.

A second, non-timing gate pins work-conserving batching: a lone request that
finds its engine idle dispatches at once instead of waiting out
``max_delay_s``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.nn.layers import Linear
from repro.nn.model import QuantizedModel
from repro.nn.synthetic import synthetic_linear_weights
from repro.serve import BatchingPolicy, InferenceServer, ModelRegistry

N_REQUESTS = 96
BATCH_POLICY = BatchingPolicy(max_batch_size=32, max_delay_s=0.005)


@pytest.fixture(scope="module")
def serving_setup():
    """A registered two-layer model plus a single-sample request stream."""
    rng = np.random.default_rng(7)
    fc1 = Linear(
        "fc1", synthetic_linear_weights(64, 128, rng, std=0.15), fuse_relu=True
    )
    fc2 = Linear("fc2", synthetic_linear_weights(10, 64, rng, std=0.15))
    model = QuantizedModel("serve_mlp", [fc1, fc2], input_shape=(128,))
    model.calibrate(np.abs(rng.normal(0, 1, size=(64, 128))))
    registry = ModelRegistry()
    registry.register("mlp", model)
    requests = [np.abs(rng.normal(0, 1, size=(1, 128))) for _ in range(N_REQUESTS)]
    engine = registry.engine("mlp")
    engine.run(requests[0])  # warm caches/executors out of the timed region
    return registry, requests


def run_naive(registry: ModelRegistry, requests: list[np.ndarray]) -> np.ndarray:
    """The baseline: one engine call per request, in arrival order."""
    engine = registry.engine("mlp")
    return np.concatenate([engine.run(r) for r in requests], axis=0)


def run_server(registry: ModelRegistry, requests: list[np.ndarray]) -> np.ndarray:
    """The batched path: enqueue every request, then let the scheduler drain."""
    server = InferenceServer(registry, BATCH_POLICY)
    futures = [server.submit("mlp", r) for r in requests]
    with server:  # starting after submit makes batch formation deterministic
        results = [f.result(timeout=30) for f in futures]
    return np.concatenate(results, axis=0)


def test_bench_naive_requests(benchmark, serving_setup):
    registry, requests = serving_setup
    outputs = benchmark.pedantic(
        run_naive, args=(registry, requests), rounds=1, iterations=1
    )
    assert outputs.shape == (N_REQUESTS, 10)


def test_bench_batched_server(benchmark, serving_setup):
    registry, requests = serving_setup
    outputs = benchmark.pedantic(
        run_server, args=(registry, requests), rounds=1, iterations=1
    )
    assert outputs.shape == (N_REQUESTS, 10)


def test_server_throughput_speedup(serving_setup):
    """Dynamic batching must sustain >= 2x naive request throughput.

    MIN_SERVE_SPEEDUP relaxes the threshold on noisy shared runners (CI sets
    1.3) without weakening the local 2x bar.
    """
    minimum = float(os.environ.get("MIN_SERVE_SPEEDUP", "2.0"))
    registry, requests = serving_setup

    def best_of(func, rounds=3):
        func()  # warm-up
        timings, result = [], None
        for _ in range(rounds):
            start = time.perf_counter()
            result = func()
            timings.append(time.perf_counter() - start)
        return min(timings), result

    naive_time, naive_outputs = best_of(lambda: run_naive(registry, requests))
    server_time, server_outputs = best_of(lambda: run_server(registry, requests))

    # Coalescing whole requests into one batch is bit-exact per request.
    assert np.array_equal(naive_outputs, server_outputs)
    speedup = naive_time / server_time
    assert speedup >= minimum, (
        f"batched serving only {speedup:.2f}x naive throughput "
        f"({N_REQUESTS / server_time:.0f} vs {N_REQUESTS / naive_time:.0f} req/s)"
    )


def test_idle_engine_does_not_wait_the_budget(serving_setup):
    """Sequential single-sample requests each find the engine idle, so none
    waits out the 50 ms co-batching budget: the mean queue wait stays
    below half of it."""
    registry, requests = serving_setup
    policy = BatchingPolicy(max_batch_size=32, max_delay_s=0.05)
    with InferenceServer(registry, policy) as server:
        for request in requests[:20]:
            server.infer("mlp", request, timeout=30)
        stats = server.statistics()
    assert stats.requests_completed == 20
    mean_wait = stats.mean_queue_wait_s
    assert mean_wait < 0.025, (
        f"mean queue wait {mean_wait * 1e3:.1f} ms on an idle engine "
        f"(budget {policy.max_delay_s * 1e3:.0f} ms)"
    )
