"""Regression benchmarks for admission control under synthetic overload.

Three contracts from the admission ISSUE, all asserted here and in CI:

1. **Shedding doomed work lowers the SLO miss rate.**  A burst of
   tight-deadline requests (only the queue head can meet them) is followed
   by a wave of feasible requests.  Without admission control the doomed
   burst still executes and the feasible wave queues behind it past its
   deadlines; with admission control the doomed requests are shed at submit
   and the feasible wave meets its SLO.  Counting a shed request as a miss
   (it was never served), the deadline-miss rate with admission must be
   *strictly below* the no-admission baseline.

2. **A shed decision costs microseconds and never touches an engine.**  The
   mean submit latency of a stream of shed requests must stay below
   ``MAX_ADMISSION_DECISION_US`` (1 ms by default -- locally the decision is
   tens of microseconds of queue arithmetic), with zero engine runs observed.

3. **Admission never changes the arithmetic.**  Every admitted request's
   output is bit-identical to a direct ``engine.run`` on its inputs.
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
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    BatchingPolicy,
    InferenceServer,
    ModelRegistry,
)
from repro.telemetry import TelemetryCollector

SAMPLES_PER_REQUEST = 8
N_DOOMED = 20
N_FEASIBLE = 8
BATCH_POLICY = BatchingPolicy(max_batch_size=SAMPLES_PER_REQUEST, max_delay_s=0.0005)


@pytest.fixture(scope="module")
def overload_setup():
    """A cost-modeled tenant, request streams, and a measured batch time."""
    rng = np.random.default_rng(17)
    fc1 = Linear(
        "fc1", synthetic_linear_weights(96, 128, rng, std=0.15), fuse_relu=True
    )
    fc2 = Linear("fc2", synthetic_linear_weights(10, 96, rng, std=0.15))
    model = QuantizedModel("admit_mlp", [fc1, fc2], input_shape=(128,))
    model.calibrate(np.abs(rng.normal(0, 1, size=(64, 128))))
    registry = ModelRegistry()
    registry.register("m", model, arch=RAELLA_ARCH)
    requests = [
        np.abs(rng.normal(0, 1, size=(SAMPLES_PER_REQUEST, 128)))
        for _ in range(N_DOOMED + N_FEASIBLE)
    ]
    engine = registry.engine("m")
    engine.run(requests[0])  # warm caches out of the timed region
    batch_time = min(timed_run(engine, requests[0]) for _ in range(3))
    return registry, requests, batch_time


def timed_run(engine, inputs) -> float:
    start = time.perf_counter()
    engine.run(inputs)
    return time.perf_counter() - start


def calibrated_telemetry(registry: ModelRegistry, batch_time: float):
    """A collector whose latency prediction is calibrated to this machine.

    The wall-per-modeled EMA is seeded from the measured one-batch wall
    time, exactly what a warmed-up serving process would have learned.
    """
    telemetry = TelemetryCollector()
    telemetry.record_batch(
        "m",
        engine_records=[(SAMPLES_PER_REQUEST, batch_time, None)] * 5,
        cost=registry.cost_model("m"),
    )
    return telemetry


def run_overload(
    registry: ModelRegistry,
    requests: list[np.ndarray],
    batch_time: float,
    admission: bool,
):
    """Submit a doomed burst then a feasible wave; drain; account outcomes."""
    telemetry = calibrated_telemetry(registry, batch_time)
    controller = AdmissionController(AdmissionPolicy()) if admission else None
    server = InferenceServer(
        registry,
        BATCH_POLICY,
        max_workers=1,
        telemetry=telemetry,
        admission=controller,
    )
    doomed_deadline = 2.5 * batch_time
    feasible_deadline = (N_FEASIBLE + 8) * batch_time
    decisions = []
    for request in requests[:N_DOOMED]:
        decisions.append(server.submit("m", request, deadline_s=doomed_deadline))
    for request in requests[N_DOOMED:]:
        decisions.append(server.submit("m", request, deadline_s=feasible_deadline))
    with server:  # starting after submit makes admission evidence deterministic
        outputs = [
            decision.result(timeout=60) if decision.accepted else None
            for decision in decisions
        ]
    missed_by_id = {
        trace.request_id: trace.deadline_missed for trace in telemetry.traces("m")
    }
    # A shed request was never served: it counts as an SLO miss.
    misses = sum(
        1 if not decision.accepted else int(missed_by_id[decision.request_id])
        for decision in decisions
    )
    shed = sum(1 for decision in decisions if not decision.accepted)
    return misses / len(decisions), shed, decisions, outputs


def test_admission_lowers_slo_miss_rate_under_overload(overload_setup):
    registry, requests, batch_time = overload_setup
    baseline_rate, baseline_shed, _, baseline_outputs = run_overload(
        registry, requests, batch_time, admission=False
    )
    admission_rate, admission_shed, decisions, admission_outputs = run_overload(
        registry, requests, batch_time, admission=True
    )

    # The baseline accepts everything; admission must actually shed the
    # doomed burst but keep the feasible wave.
    assert baseline_shed == 0
    assert admission_shed > 0, "overload too light: nothing was shed"
    assert admission_shed < len(decisions), "everything was shed"
    assert any(d.accepted for d in decisions[N_DOOMED:]), (
        "the feasible wave should have been admitted"
    )

    # The headline contract: strictly lower miss rate, sheds counted as
    # misses (early rejection must win by protecting feasible work, not by
    # hiding refused work from the denominator).
    assert admission_rate < baseline_rate, (
        f"admission control missed {admission_rate:.0%} of SLOs "
        f"(shed {admission_shed}), no-admission baseline "
        f"{baseline_rate:.0%} -- expected strictly fewer"
    )

    # Admission never changes the arithmetic: every admitted output is
    # bit-identical to a direct engine run on the same inputs.
    engine = registry.engine("m")
    for request, decision, output in zip(requests, decisions, admission_outputs):
        if decision.accepted:
            assert np.array_equal(output, engine.run(request))
    for request, output in zip(requests, baseline_outputs):
        assert np.array_equal(output, engine.run(request))


def shed_submitter(registry: ModelRegistry):
    """A never-started server whose next submit always sheds by depth cap."""
    telemetry = TelemetryCollector()
    controller = AdmissionController(
        AdmissionPolicy(max_queue_samples_per_model=4 * SAMPLES_PER_REQUEST)
    )
    server = InferenceServer(
        registry, BATCH_POLICY, telemetry=telemetry, admission=controller
    )
    rng = np.random.default_rng(23)
    filler = np.abs(rng.normal(0, 1, size=(SAMPLES_PER_REQUEST, 128)))
    for _ in range(4):  # fill the cap with a realistic pending backlog
        assert server.submit("m", filler).accepted
    return server, telemetry, filler


def test_shed_decision_is_microseconds_without_an_engine(overload_setup):
    maximum_us = float(os.environ.get("MAX_ADMISSION_DECISION_US", "1000"))
    registry, _, _ = overload_setup
    server, telemetry, filler = shed_submitter(registry)

    n_sheds = 200
    server.submit("m", filler)  # warm the decision path
    start = time.perf_counter()
    decisions = [server.submit("m", filler) for _ in range(n_sheds)]
    elapsed = time.perf_counter() - start

    assert all(d.status == "shed" for d in decisions)
    mean_us = elapsed / n_sheds * 1e6
    assert mean_us <= maximum_us, (
        f"shed decision took {mean_us:.0f}us on average "
        f"(bound {maximum_us:.0f}us)"
    )
    # No engine was ever touched: the server never even started, and the
    # collector observed zero engine runs and zero completed requests.
    assert server.statistics().batches_executed == 0
    assert telemetry.aggregate("m").engine_runs == 0
    assert telemetry.aggregate("m").requests == 0
    assert telemetry.aggregate("m").shed_requests == n_sheds + 1


def test_bench_shed_decision(benchmark, overload_setup):
    """pytest-benchmark timing artifact for the shed decision hot path."""
    registry, _, _ = overload_setup
    server, _, filler = shed_submitter(registry)
    decision = benchmark(lambda: server.submit("m", filler))
    assert decision.status == "shed"
