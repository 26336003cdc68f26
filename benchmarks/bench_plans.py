"""Compiled execution plans vs. the per-phase reference.

Not a paper artifact: this tracks the ROADMAP "hot-path raw speed" follow-up
that motivated :mod:`repro.runtime.plan`.  A small-batch dispatch storm
(every request M <= 4, the serving layer's worst case: per-batch layout work
is amortised over almost nothing) through a :class:`NetworkEngine` running a
precompiled :class:`~repro.runtime.ModelPlan` must sustain at least
``MIN_PLANNED_SPEEDUP``x the throughput of an engine on the per-phase
:class:`~repro.core.executor.PimLayerExecutor` oracle (3x by default,
typically ~5-8x locally) while staying bit-identical, and compiling the plan
must cost less than ``MAX_PLAN_COMPILE_BATCHES`` (0.43) of one reference
storm batch.

Every vectorized executor compiles its plan at construction, so the oracle is
the only unplanned engine left to compare against.  The bars were carried
over from the earlier comparison against an unplanned vectorized engine,
which ran the storm ~2.3x faster than the oracle: 1.3x that engine is ~3x
the oracle, and one of its batches is ~0.43 of an oracle batch.

Plans change scheduling and layout only, never arithmetic, so every
comparison here doubles as a bit-identity regression test across the
thread and process backends.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.executor import PimLayerExecutor
from repro.nn.layers import Linear
from repro.nn.model import QuantizedModel
from repro.nn.synthetic import synthetic_linear_weights
from repro.runtime import (
    ExecutorPool,
    NetworkEngine,
    ReplicaPool,
    compile_model_plan,
)

N_REQUESTS = 100
MAX_STORM_SAMPLES = 4  # the storm is all small batches: M in 1..4


def build_model(name: str, seed: int) -> QuantizedModel:
    """The same CPU-bound three-layer MLP the procpool benchmark uses."""
    rng = np.random.default_rng(seed)
    layers = [
        Linear(
            f"{name}_fc1",
            synthetic_linear_weights(96, 128, rng, std=0.15),
            fuse_relu=True,
        ),
        Linear(
            f"{name}_fc2",
            synthetic_linear_weights(48, 96, rng, std=0.15),
            fuse_relu=True,
        ),
        Linear(f"{name}_fc3", synthetic_linear_weights(10, 48, rng, std=0.15)),
    ]
    model = QuantizedModel(name, layers, input_shape=(128,))
    model.calibrate(np.abs(rng.normal(0, 1, size=(64, 128))))
    return model


def make_storm(n_requests: int = N_REQUESTS, seed: int = 9) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        np.abs(rng.normal(0, 1, size=(1 + i % MAX_STORM_SAMPLES, 128)))
        for i in range(n_requests)
    ]


def best_of(func, rounds: int = 3):
    """Best wall time over a few rounds (plus the last result)."""
    func()  # warm-up
    timings, result = [], None
    for _ in range(rounds):
        start = time.perf_counter()
        result = func()
        timings.append(time.perf_counter() - start)
    return min(timings), result


@pytest.fixture(scope="module")
def plan_setup():
    """One model hosted three ways: per-phase reference, planned, in-process."""
    model = build_model("plan_mlp", seed=3)
    requests = make_storm()
    reference = NetworkEngine(
        model, {layer.name: PimLayerExecutor(layer) for layer in model.matmul_layers()}
    )
    planned_pool = ExecutorPool()
    plan = compile_model_plan(model, pool=planned_pool)
    planned = NetworkEngine.build(model, pool=planned_pool, plan=plan)
    process = ReplicaPool.launch(model, replicas=1, plan=plan)
    for engine in (reference, planned, process):
        engine.run(requests[0])  # warm every path outside the timed regions
    yield model, plan, reference, planned, process, requests
    process.close()


def run_storm(engine, requests: list[np.ndarray]) -> list[np.ndarray]:
    return [engine.run(batch) for batch in requests]


def test_bench_reference_dispatch_storm(benchmark, plan_setup):
    _model, _plan, reference, _planned, _process, requests = plan_setup
    outputs = benchmark.pedantic(
        run_storm, args=(reference, requests), rounds=1, iterations=1
    )
    assert outputs[0].shape == (1, 10)


def test_bench_planned_dispatch_storm(benchmark, plan_setup):
    _model, _plan, _reference, planned, _process, requests = plan_setup
    outputs = benchmark.pedantic(
        run_storm, args=(planned, requests), rounds=1, iterations=1
    )
    assert outputs[-1].shape == (1 + (len(requests) - 1) % MAX_STORM_SAMPLES, 10)


def test_planned_storm_speedup_and_bit_identity(benchmark, plan_setup):
    """Planned dispatch >= MIN_PLANNED_SPEEDUP x the reference, bit for bit."""
    minimum = float(os.environ.get("MIN_PLANNED_SPEEDUP", "3.0"))
    _model, _plan, reference, planned, _process, requests = plan_setup

    reference_time, reference_outputs = best_of(lambda: run_storm(reference, requests))
    planned_time, planned_outputs = best_of(lambda: run_storm(planned, requests))
    for expected, actual in zip(reference_outputs, planned_outputs):
        assert np.array_equal(expected, actual)

    speedup = reference_time / planned_time
    benchmark.extra_info["planned_speedup"] = round(speedup, 2)
    benchmark.extra_info["requests_per_s_planned"] = round(len(requests) / planned_time)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert speedup >= minimum, (
        f"planned engine only {speedup:.2f}x reference dispatch "
        f"({len(requests) / planned_time:.0f} vs "
        f"{len(requests) / reference_time:.0f} req/s)"
    )


def test_plan_compile_amortises_within_one_batch(plan_setup):
    """Compiling the plan costs a fraction of one reference storm batch.

    The compile runs against a *fresh* pool, so the measured time includes
    building every executor (weight encoding comes from the process-wide
    cache).  Its best of a few rounds must cost less than
    ``MAX_PLAN_COMPILE_BATCHES`` of one per-phase reference batch of the
    storm it accelerates, timed the same way.
    """
    budget = float(os.environ.get("MAX_PLAN_COMPILE_BATCHES", "0.43"))
    model, _plan, reference, _planned, _process, requests = plan_setup

    batch_time, _ = best_of(lambda: run_storm(reference, requests))
    per_batch = batch_time / len(requests)
    compile_time, _ = best_of(lambda: compile_model_plan(model, pool=ExecutorPool()))
    assert compile_time <= budget * per_batch, (
        f"plan compile took {compile_time * 1e3:.2f} ms, "
        f"budget {budget:.1f} batch(es) = {budget * per_batch * 1e3:.2f} ms"
    )


def test_planned_outputs_bit_identical_across_backends(plan_setup):
    """Reference engine, planned engine and plan-shipped worker all agree."""
    _model, _plan, reference, planned, process, requests = plan_setup
    stacked = np.concatenate(requests[:8], axis=0)
    expected = reference.run(stacked)
    assert np.array_equal(planned.run(stacked), expected)
    assert np.array_equal(process.run(stacked), expected)
