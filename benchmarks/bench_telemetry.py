"""Regression benchmarks for the serving telemetry subsystem.

Two contracts from the telemetry ISSUE, both asserted here and in CI:

1. **Metering is (nearly) free.**  Serving an identical request stream with a
   :class:`~repro.telemetry.TelemetryCollector` attached (one
   ``record_batch`` call per completed batch: cost attribution, per-request
   traces, SLO bookkeeping) must keep throughput within
   ``MAX_TELEMETRY_OVERHEAD`` of the untraced server (1.05 = 5% locally; CI
   relaxes the bar for noisy shared runners) -- and stay bit-identical.
   The gate compares the best round of each side; every round's paired
   ratio, with its median and quartiles, is printed beside it.

2. **SLO-aware dispatch beats FIFO where it matters.**  Under a mixed
   priority/deadline load (a backlog of loose-deadline bulk requests ahead of
   tight-deadline interactive ones), the deadline-miss rate with SLO
   scheduling must be *strictly below* the FIFO scheduler's on the same
   stream, with outputs again bit-identical.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.hw import RAELLA_ARCH
from repro.nn.layers import Linear
from repro.nn.model import QuantizedModel
from repro.nn.synthetic import synthetic_linear_weights
from repro.serve import BatchingPolicy, InferenceServer, ModelRegistry
from repro.telemetry import TelemetryCollector

N_REQUESTS = 96
BATCH_POLICY = BatchingPolicy(max_batch_size=32, max_delay_s=0.005)


def make_model(name: str, in_features: int, hidden: int, seed: int) -> QuantizedModel:
    rng = np.random.default_rng(seed)
    fc1 = Linear(
        "fc1",
        synthetic_linear_weights(hidden, in_features, rng, std=0.15),
        fuse_relu=True,
    )
    fc2 = Linear("fc2", synthetic_linear_weights(10, hidden, rng, std=0.15))
    model = QuantizedModel(name, [fc1, fc2], input_shape=(in_features,))
    model.calibrate(np.abs(rng.normal(0, 1, size=(64, in_features))))
    return model


@pytest.fixture(scope="module")
def overhead_setup():
    """One registered model (with cost tables) and a request stream.

    Requests carry a few samples each so the comparison reflects a realistic
    engine-time-per-request; the metering cost (one collector write per
    batch, one trace record per request) is the same either way.
    """
    rng = np.random.default_rng(11)
    registry = ModelRegistry()
    registry.register("mlp", make_model("mlp", 128, 64, seed=11), arch=RAELLA_ARCH)
    requests = [np.abs(rng.normal(0, 1, size=(8, 128))) for _ in range(N_REQUESTS)]
    registry.engine("mlp").run(requests[0])  # warm caches out of timed region
    return registry, requests


def drain_server(
    registry: ModelRegistry,
    requests: list[np.ndarray],
    telemetry: TelemetryCollector | None,
) -> np.ndarray:
    """Enqueue every request, let the scheduler drain, return all outputs."""
    server = InferenceServer(registry, BATCH_POLICY, telemetry=telemetry)
    futures = [server.submit("mlp", r) for r in requests]
    with server:  # starting after submit makes batch formation deterministic
        results = [f.result(timeout=30) for f in futures]
    return np.concatenate(results, axis=0)


def test_telemetry_overhead_within_bound(overhead_setup, capsys):
    """Metered serving must stay within MAX_TELEMETRY_OVERHEAD of untraced.

    Rounds interleave the two configurations and both take their best time,
    so shared-machine noise hits each side equally.  Each round's
    metered/plain ratio is printed too, past pytest's output capture so CI
    logs carry it, with the median and quartiles of those paired ratios;
    the gate stays on min/min.
    """
    maximum = float(os.environ.get("MAX_TELEMETRY_OVERHEAD", "1.05"))
    registry, requests = overhead_setup

    drain_server(registry, requests, None)  # warm-up
    drain_server(registry, requests, TelemetryCollector())
    plain_times, traced_times = [], []
    plain_outputs = traced_outputs = None
    for _ in range(5):
        start = time.perf_counter()
        plain_outputs = drain_server(registry, requests, None)
        plain_times.append(time.perf_counter() - start)
        telemetry = TelemetryCollector()
        start = time.perf_counter()
        traced_outputs = drain_server(registry, requests, telemetry)
        traced_times.append(time.perf_counter() - start)

    # Metering must not change a single bit of any result.
    assert np.array_equal(plain_outputs, traced_outputs)
    # And the accounting must actually have happened.
    aggregate = telemetry.aggregate("mlp")
    assert aggregate.requests == N_REQUESTS
    assert aggregate.modeled_energy_pj > 0

    paired = [traced / plain for plain, traced in zip(plain_times, traced_times)]
    quartiles = np.percentile(paired, [25, 50, 75])
    with capsys.disabled():
        print(
            "\ntelemetry overhead per round: "
            + " ".join(f"{ratio:.3f}" for ratio in paired)
            + f"; paired median {quartiles[1]:.3f}x "
            f"(quartiles {quartiles[0]:.3f}-{quartiles[2]:.3f})"
        )
    overhead = min(traced_times) / min(plain_times)
    assert overhead <= maximum, (
        f"telemetry overhead {overhead:.3f}x exceeds {maximum:.2f}x "
        f"(untraced {min(plain_times) * 1e3:.1f}ms, "
        f"traced {min(traced_times) * 1e3:.1f}ms for {N_REQUESTS} requests)"
    )


@pytest.fixture(scope="module")
def slo_setup():
    """A bulk tenant and an interactive tenant sharing one registry."""
    registry = ModelRegistry()
    registry.register("bulk", make_model("bulk", 128, 96, seed=3), arch=RAELLA_ARCH)
    registry.register(
        "interactive",
        make_model("interactive", 64, 48, seed=4),
        arch=RAELLA_ARCH,
    )
    rng = np.random.default_rng(5)
    bulk = [np.abs(rng.normal(0, 1, size=(8, 128))) for _ in range(48)]
    interactive = [np.abs(rng.normal(0, 1, size=(2, 64))) for _ in range(6)]
    registry.engine("bulk").run(bulk[0])
    registry.engine("interactive").run(interactive[0])
    return registry, bulk, interactive


def run_mixed_load(
    registry: ModelRegistry,
    bulk: list[np.ndarray],
    interactive: list[np.ndarray],
    slo_scheduling: bool,
    interactive_deadline_s: float | None,
) -> tuple[TelemetryCollector, list[np.ndarray], list[np.ndarray], float]:
    """Pre-submit a bulk backlog ahead of interactive requests, then drain.

    One worker serialises execution, so dispatch *order* decides whether the
    late-arriving interactive requests wait behind the entire bulk backlog
    (FIFO) or jump it (SLO-aware).
    """
    telemetry = TelemetryCollector()
    server = InferenceServer(
        registry,
        BatchingPolicy(max_batch_size=32, max_delay_s=0.001),
        max_workers=1,
        telemetry=telemetry,
        slo_scheduling=slo_scheduling,
    )
    bulk_futures = [server.submit("bulk", r, priority=0, deadline_s=60.0) for r in bulk]
    interactive_futures = [
        server.submit("interactive", r, priority=1, deadline_s=interactive_deadline_s)
        for r in interactive
    ]
    start = time.perf_counter()
    with server:
        bulk_results = [f.result(timeout=60) for f in bulk_futures]
        interactive_results = [f.result(timeout=60) for f in interactive_futures]
    elapsed = time.perf_counter() - start
    return telemetry, bulk_results, interactive_results, elapsed


def test_slo_scheduling_beats_fifo_miss_rate(slo_setup):
    registry, bulk, interactive = slo_setup
    direct_bulk = [registry.engine("bulk").run(r) for r in bulk]
    direct_interactive = [registry.engine("interactive").run(r) for r in interactive]

    # Calibrate the interactive deadline to this machine: a third of the
    # time a full FIFO drain takes, so interactive requests stuck behind the
    # bulk backlog must miss while a jumped-queue service comfortably meets.
    _, _, _, drain_time = run_mixed_load(
        registry,
        bulk,
        interactive,
        slo_scheduling=False,
        interactive_deadline_s=60.0,
    )
    deadline = max(drain_time / 3.0, 0.010)

    fifo, fifo_bulk, fifo_interactive, _ = run_mixed_load(
        registry,
        bulk,
        interactive,
        slo_scheduling=False,
        interactive_deadline_s=deadline,
    )
    slo, slo_bulk, slo_interactive, _ = run_mixed_load(
        registry,
        bulk,
        interactive,
        slo_scheduling=True,
        interactive_deadline_s=deadline,
    )

    # Reordering dispatch never changes any request's bits.
    for expected, fifo_out, slo_out in zip(direct_bulk, fifo_bulk, slo_bulk):
        assert np.array_equal(expected, fifo_out)
        assert np.array_equal(expected, slo_out)
    for expected, fifo_out, slo_out in zip(
        direct_interactive, fifo_interactive, slo_interactive
    ):
        assert np.array_equal(expected, fifo_out)
        assert np.array_equal(expected, slo_out)

    fifo_rate = fifo.aggregate("interactive").deadline_miss_rate
    slo_rate = slo.aggregate("interactive").deadline_miss_rate
    assert fifo_rate > 0.0, (
        f"FIFO baseline missed no deadlines (deadline {deadline * 1e3:.1f}ms, "
        "load too light to discriminate)"
    )
    assert slo_rate < fifo_rate, (
        f"SLO scheduling missed {slo_rate:.0%} of interactive deadlines, "
        f"FIFO {fifo_rate:.0%} -- expected strictly fewer "
        f"(deadline {deadline * 1e3:.1f}ms)"
    )
