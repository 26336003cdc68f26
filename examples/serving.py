"""Multi-tenant batched serving with :mod:`repro.serve`.

The serving layer turns the vectorized :class:`~repro.runtime.NetworkEngine`
into an inference server: a :class:`~repro.serve.ModelRegistry` hosts several
calibrated models, each engine with its own executors over one shared
weight cache, and an
:class:`~repro.serve.InferenceServer` coalesces concurrent requests per model
into batched engine calls (dynamic micro-batching), splitting the outputs
back per request.  This example shows:

1. hosting two tenants side by side (twin tenants share encoded crossbars),
2. concurrent clients hammering the server: an idle engine runs a request at
   once, and requests that arrive while it runs coalesce into its next batch,
3. a check that every served result matches a direct engine call,
4. hardware-grounded telemetry (:mod:`repro.telemetry`): per-request
   energy/latency accounting from the paper's cost models, SLO-tagged
   requests, and the per-tenant aggregate / Prometheus exports,
5. process-based engine workers (``backend="process"``): each model in its
   own process behind a zero-copy shared-memory request path, sidestepping
   the GIL so CPU-bound tenants execute truly in parallel,
6. replicated self-healing pools (``replicas=2``): one hot model on two
   worker processes with least-loaded dispatch, surviving a SIGKILL of a
   replica without losing a single request,
7. end-to-end request tracing (:mod:`repro.telemetry.tracing`): per-request
   span trees in a flight recorder (dump in Perfetto), plus the collector's
   latency histograms answering p50/p99 queries,
8. energy-aware heterogeneous fleets (:mod:`repro.serve.fleet`): one logical
   model hosted as a fast (ISAAC) and a low-power (RAELLA) variant, with the
   router placing slack-rich batches on the cheap variant -- per-request
   modeled energy drops ~55% whenever the deadline allows.

Run with:  python examples/serving.py
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.hw import RAELLA_ARCH
from repro.nn.layers import Linear
from repro.nn.model import QuantizedModel
from repro.nn.synthetic import synthetic_linear_weights
from repro.serve import BatchingPolicy, InferenceServer, ModelRegistry
from repro.telemetry import TelemetryCollector, Tracer


def make_model(name: str, seed: int) -> QuantizedModel:
    rng = np.random.default_rng(seed)
    fc1 = Linear("fc1", synthetic_linear_weights(48, 96, rng, std=0.15), fuse_relu=True)
    fc2 = Linear("fc2", synthetic_linear_weights(10, 48, rng, std=0.15))
    model = QuantizedModel(name, [fc1, fc2], input_shape=(96,))
    model.calibrate(np.abs(rng.normal(0, 1, size=(64, 96))))
    return model


def main() -> None:
    rng = np.random.default_rng(0)

    print("== 1. Host two tenants in one registry ==")
    registry = ModelRegistry()  # shared weight cache, float32 fast path
    # arch= builds each tenant's CostModel (per-layer energy/latency tables
    # on the paper's RAELLA architecture) for the telemetry in section 4.
    registry.register("tenant_a", make_model("model_a", seed=1), arch=RAELLA_ARCH)
    registry.register("tenant_b", make_model("model_b", seed=2), arch=RAELLA_ARCH)
    cache = registry.weight_cache
    print(
        f"  models: {registry.names()}, weight cache: "
        f"{cache.hits} hits / {cache.misses} misses"
    )

    print("\n== 2. Concurrent clients, dynamic micro-batching ==")
    # Batching is work-conserving: a request that finds its tenant's engine
    # idle runs at once, without waiting out max_delay_s.  Only requests that
    # arrive while a batch runs coalesce, into that engine's next batch, so
    # with four synchronous clients per tenant the batches stay small and the
    # queue wait stays well under the 5 ms budget.
    n_clients, requests_each = 8, 12
    policy = BatchingPolicy(max_batch_size=32, max_delay_s=0.005)
    received: dict[tuple[int, int], tuple[str, np.ndarray, np.ndarray]] = {}
    lock = threading.Lock()

    def client(client_id: int, server: InferenceServer) -> None:
        local_rng = np.random.default_rng(100 + client_id)
        tenant = "tenant_a" if client_id % 2 == 0 else "tenant_b"
        for i in range(requests_each):
            sample = np.abs(local_rng.normal(0, 1, size=(1, 96)))
            result = server.infer(tenant, sample, timeout=30)
            with lock:
                received[(client_id, i)] = (tenant, sample, result)

    start = time.perf_counter()
    with InferenceServer(registry, policy) as server:
        threads = [
            threading.Thread(target=client, args=(c, server))
            for c in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = server.statistics()
    elapsed = time.perf_counter() - start
    total = n_clients * requests_each
    print(f"  {total} requests from {n_clients} clients in {elapsed:.2f}s "
          f"({total / elapsed:.0f} req/s)")
    print(f"  ran as {stats.batches_executed} batches "
          f"(mean {stats.mean_batch_size:.1f} samples, "
          f"max {stats.max_batch_size}); "
          f"mean queue wait {1e3 * stats.mean_queue_wait_s:.1f}ms")

    print("\n== 3. Verify: every served result matches a direct engine call ==")
    for tenant, sample, result in received.values():
        direct = registry.engine(tenant).run(sample)
        if not np.array_equal(direct, result):
            raise SystemExit("served result diverged from direct engine call")
    print(f"  all {total} results bit-identical to NetworkEngine.run")

    print("\n== 4. Hardware-grounded telemetry and SLO-tagged requests ==")
    cost = registry.cost_model("tenant_a")
    print(f"  tenant_a cost tables: {cost.energy_per_sample_uj:.4f} uJ/sample, "
          f"{cost.single_sample_latency_us:.2f} us/sample modeled")
    telemetry = TelemetryCollector()
    with InferenceServer(registry, policy, telemetry=telemetry) as server:
        futures = []
        for i in range(6):
            tenant = "tenant_a" if i % 2 == 0 else "tenant_b"
            # Even requests are interactive (high priority, tight deadline),
            # odd ones are bulk (default priority, loose deadline).
            futures.append(
                server.submit(
                    tenant,
                    np.abs(rng.normal(0, 1, size=(1 + i % 3, 96))),
                    priority=1 if i % 2 == 0 else 0,
                    deadline_s=0.05 if i % 2 == 0 else 5.0,
                )
            )
        for future in futures:
            future.result(timeout=30)

    print("  per-request accounting (from the telemetry collector):")
    print(f"    {'id':>3} {'tenant':>9} {'n':>2} {'prio':>4} {'wait ms':>8} "
          f"{'engine ms':>9} {'energy uJ':>9} {'model us':>9} {'deadline':>8}")
    for trace in telemetry.traces():
        print(f"    {trace.request_id:>3} {trace.model_name:>9} "
              f"{trace.n_samples:>2} {trace.priority:>4} "
              f"{1e3 * trace.queue_wait_s:>8.2f} "
              f"{1e3 * trace.engine_share_s:>9.3f} "
              f"{trace.modeled_energy_pj / 1e6:>9.4f} "
              f"{trace.modeled_latency_us:>9.2f} "
              f"{'MISS' if trace.deadline_missed else 'met':>8}")
    for name, aggregate in sorted(telemetry.aggregates().items()):
        print(f"  {name}: {aggregate.requests} requests, "
              f"{aggregate.samples} samples, "
              f"{aggregate.modeled_energy_uj:.4f} uJ modeled, "
              f"{aggregate.deadline_misses}/{aggregate.deadline_requests} "
              f"deadline misses")
    prometheus = telemetry.to_prometheus().splitlines()
    print("  Prometheus export (first 6 lines):")
    for line in prometheus[:6]:
        print(f"    {line}")

    print("\n== 5. Process-based engine workers (shared-memory transport) ==")
    # backend="process" hosts each tenant in its own worker process: the
    # worker rebuilds the engine from a pickled spec and serves run() calls
    # over shared-memory blocks, so two CPU-bound tenants no longer share
    # the GIL.  Outputs stay bit-identical to the in-process engines.
    proc_registry = ModelRegistry()
    model_a, model_b = make_model("model_a", seed=1), make_model("model_b", seed=2)
    proc_registry.register("tenant_a", model_a, backend="process")
    proc_registry.register("tenant_b", model_b, backend="process")
    inputs = np.abs(rng.normal(0, 1, size=(8, 96)))
    with InferenceServer(proc_registry, policy, max_workers=2) as server:
        outputs = {
            name: server.infer(name, inputs, timeout=30)
            for name in ("tenant_a", "tenant_b")
        }
    for name, served in outputs.items():
        direct = registry.engine(name).run(inputs)
        pool = proc_registry.engine(name)
        print(f"  {name}: worker pids {pool.replica_pids()}, "
              f"bit-identical={np.array_equal(served, direct)}")
    proc_registry.close()  # clean worker shutdown (also wired to unregister)

    print("\n== 6. Replicated self-healing worker pools ==")
    # replicas=2 hosts one model on two worker processes behind a single
    # engine facade: concurrent batches dispatch to the least-loaded healthy
    # replica, and a crashed replica's in-flight batch requeues onto its
    # sibling while the pool restarts the dead worker in the background.
    import os
    import signal

    pool_registry = ModelRegistry()
    pool_registry.register("tenant_a", model_a, backend="process", replicas=2)
    pool = pool_registry.engine("tenant_a")
    print(f"  pool: {pool.replicas} replicas, dispatch width "
          f"{pool.dispatch_width}, pids {pool.replica_pids()}")
    direct = registry.engine("tenant_a").run(inputs)
    with InferenceServer(pool_registry, policy, max_workers=2) as server:
        futures = [server.submit("tenant_a", inputs) for _ in range(8)]
        os.kill(pool.replica_pids()[0], signal.SIGKILL)  # murder a replica
        results = [future.result(timeout=60) for future in futures]
    survived = all(np.array_equal(result, direct) for result in results)
    deadline = time.perf_counter() + 30
    while pool.pool_health()["restarts"] < 1 or pool.healthy_replicas < 2:
        time.sleep(0.05)
        if time.perf_counter() > deadline:
            raise SystemExit("replica pool failed to self-heal")
    print(f"  killed one replica mid-stream: {len(results)}/8 requests "
          f"completed, bit-identical={survived}")
    print(f"  pool healed: {pool.pool_health()}")
    if not survived:
        raise SystemExit("replicated pool outputs diverged after the kill")
    pool_registry.close()  # drains and shuts down every replica

    print("\n== 7. Request tracing, latency quantiles, flight recorder ==")
    # A Tracer hands every sampled request a span tree -- admission, queue
    # wait, dispatch, engine execution, completion -- and finished traces
    # land in a bounded flight recorder ring dumpable as Chrome trace JSON.
    # The telemetry collector's log-bucketed histograms answer quantile
    # queries over the same run.
    tracer = Tracer(sample_rate=1.0)
    traced = TelemetryCollector()
    server = InferenceServer(registry, policy, telemetry=traced, tracer=tracer)
    with server:
        decisions = [
            server.submit("tenant_a", np.abs(rng.normal(0, 1, size=(2, 96))))
            for _ in range(24)
        ]
        for decision in decisions:
            decision.result(timeout=30)
    last = decisions[-1]
    names = [e["name"] for e in tracer.recorder.trace_events(last.trace_id)]
    print(f"  trace {last.trace_id}: spans {names}")
    for metric in ("latency", "queue_wait", "engine"):
        p50 = traced.quantile("tenant_a", 0.5, metric)
        p99 = traced.quantile("tenant_a", 0.99, metric)
        print(f"  tenant_a {metric:>10}: p50 {1e3 * p50:7.3f}ms, "
              f"p99 {1e3 * p99:7.3f}ms")
    dump = tracer.recorder.to_chrome_trace()
    print(f"  flight recorder: {len(tracer.recorder)} events, "
          f"{len(dump)} bytes of Chrome trace JSON (load in Perfetto)")

    print("\n== 8. Energy-aware heterogeneous fleet routing ==")
    # One logical model, two architecture variants: ISAAC is ~1.4x faster
    # per sample (modeled), RAELLA ~55% cheaper.  register_fleet groups
    # them under one servable name and the router places each batch on the
    # cheapest variant whose predicted latency fits the deadline slack --
    # so the same request costs less energy whenever its deadline allows.
    from repro.hw import ISAAC_ARCH
    from repro.serve import MinimizeEnergy

    fleet_registry = ModelRegistry()
    fleet_registry.register("tenant_a-fast", model_a, arch=ISAAC_ARCH)
    fleet_registry.register("tenant_a-lowpower", model_a, arch=RAELLA_ARCH)
    fleet_registry.register_fleet("tenant_a", ["tenant_a-fast", "tenant_a-lowpower"])
    fleet_telemetry = TelemetryCollector()
    # One request per batch (each carries 2 samples) so every deadline gets
    # its own routing decision instead of coalescing with its neighbours.
    fleet_policy = BatchingPolicy(max_batch_size=2, max_delay_s=0.0)
    with InferenceServer(
        fleet_registry,
        fleet_policy,
        telemetry=fleet_telemetry,
        routing=MinimizeEnergy(),
    ) as server:
        futures = []
        for i in range(8):
            # Even requests are urgent (deadline already blown at formation
            # time), odd ones have generous slack.  Before calibration the
            # router trusts the modeled tables, so the first urgent batch
            # rides the fast variant; once the collector has observed both
            # variants it learns they execute at the same wall speed in
            # this CPU reproduction and routes even urgent work to the
            # low-power variant -- energy savings at zero latency cost.
            futures.append(
                server.submit(
                    "tenant_a",
                    np.abs(rng.normal(0, 1, size=(2, 96))),
                    deadline_s=1e-6 if i % 2 == 0 else 30.0,
                )
            )
        for future in futures:
            future.result(timeout=30)
    print("  per-request energy under the router (slack -> cheap variant):")
    print(f"    {'id':>3} {'variant':>18} {'deadline':>9} {'energy uJ':>9}")
    for trace in fleet_telemetry.traces():
        slack = "1us" if trace.deadline_missed else "30s"
        print(f"    {trace.request_id:>3} {trace.model_name:>18} {slack:>9} "
              f"{trace.modeled_energy_pj / 1e6:>9.4f}")
    aggregate = fleet_telemetry.fleet_aggregate("tenant_a")
    print(f"  fleet placement: {aggregate.executed_batches_by_variant} "
          f"({aggregate.reroutes} reroutes)")
    print(f"  realised modeled-energy savings vs always-fastest: "
          f"{aggregate.realised_saved_fraction:.0%}")
    served = server.statistics().batches_per_model
    if "tenant_a-lowpower" not in served:
        raise SystemExit("no batch ever reached the low-power variant")
    fleet_registry.close()


if __name__ == "__main__":
    main()
