"""Tests for the asyncio front door (:mod:`repro.serve.aio` / gateway).

Two halves:

* the happy path -- ``async with`` lifecycle, awaitable admission decisions,
  ``max_inflight`` backpressure, and bit-identity against the sync
  :class:`~repro.serve.InferenceServer` on the same request stream;
* the fault-injection matrix the async surface makes dangerous -- a replica
  SIGKILLed mid-``await``, the registry closed with awaiters pending, and
  the event loop shut down with batches still in flight.  The invariant
  under every fault is the same: **every future resolves** (a result or an
  exception, never a hang).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import time

import numpy as np
import pytest

from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    AsyncGateway,
    AsyncInferenceServer,
    BatchingPolicy,
    InferenceServer,
    ModelRegistry,
    RequestShedError,
)
from repro.telemetry import PROMETHEUS_CONTENT_TYPE, TelemetryCollector, Tracer

POLICY = BatchingPolicy(max_batch_size=16, max_delay_s=0.001)


@pytest.fixture
def registry(tiny_mlp_model):
    registry = ModelRegistry()
    registry.register("mlp", tiny_mlp_model)
    return registry


def make_inputs(n_requests: int, seed: int = 5) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [np.abs(rng.normal(0, 1, size=(1 + i % 3, 16))) for i in range(n_requests)]


class TestAsyncLifecycle:
    def test_constructor_validation(self, registry):
        with pytest.raises(ValueError, match="registry"):
            AsyncInferenceServer()
        with pytest.raises(ValueError, match="not both"):
            AsyncInferenceServer(registry, server=InferenceServer(registry))
        with pytest.raises(ValueError, match="max_inflight"):
            AsyncInferenceServer(registry, max_inflight=0)

    def test_outputs_bit_identical_to_sync_server(self, registry):
        """The same request stream through both facades, byte for byte."""
        requests = make_inputs(24)

        def run_sync():
            server = InferenceServer(registry, POLICY)
            decisions = [server.submit("mlp", r) for r in requests]
            with server:
                return [d.result(timeout=30) for d in decisions]

        async def run_async():
            async with AsyncInferenceServer(registry, POLICY) as server:
                decisions = await asyncio.gather(
                    *[server.submit("mlp", r) for r in requests]
                )
                return await asyncio.gather(*[d.result(30) for d in decisions])

        sync_outputs = run_sync()
        async_outputs = asyncio.run(run_async())
        assert all(np.array_equal(a, s) for a, s in zip(async_outputs, sync_outputs))

    def test_awaiting_the_decision_directly(self, registry):
        async def scenario():
            async with AsyncInferenceServer(registry, POLICY) as server:
                decision = await server.submit("mlp", make_inputs(1)[0])
                assert decision.accepted
                assert decision.status == "accepted"
                assert decision.model_name == "mlp"
                assert "status" in decision.as_dict()
                outputs = await decision  # __await__ sugar for .result()
                assert decision.done()
                return outputs

        outputs = asyncio.run(scenario())
        assert outputs.shape == (1, 4)

    def test_infer_convenience_and_statistics(self, registry):
        async def scenario():
            async with AsyncInferenceServer(registry, POLICY) as server:
                outputs = await server.infer("mlp", make_inputs(1)[0], timeout=30)
                assert server.statistics().requests_completed >= 1
                assert server.backlog_by_model() == {}
                assert server.inflight == 0
                assert server.registry is registry
                return outputs

        assert asyncio.run(scenario()).shape == (1, 4)

    def test_validation_errors_propagate(self, registry):
        async def scenario():
            async with AsyncInferenceServer(registry, POLICY) as server:
                with pytest.raises(KeyError):
                    await server.submit("nope", make_inputs(1)[0])
                with pytest.raises(ValueError):
                    await server.submit("mlp", np.zeros((1, 7)))

        asyncio.run(scenario())


class TestBackpressure:
    def test_max_inflight_suspends_producers(self, registry):
        """Submit N+1 requests against capacity N: the extra one must wait."""

        async def scenario():
            server = AsyncInferenceServer(registry, POLICY, max_inflight=4)
            # Not started yet: admitted requests park in the queue, so the
            # first four slots stay occupied deterministically.
            inputs = make_inputs(5)
            decisions = [await server.submit("mlp", r) for r in inputs[:4]]
            assert server.inflight == 4
            fifth = asyncio.ensure_future(server.submit("mlp", inputs[4]))
            await asyncio.sleep(0.05)
            assert not fifth.done(), "5th submit should suspend on backpressure"
            async with server:  # start: completions free slots, 5th proceeds
                decisions.append(await asyncio.wait_for(fifth, timeout=30))
                results = await asyncio.gather(*[d.result(30) for d in decisions])
            assert server.inflight == 0
            return results

        results = asyncio.run(scenario())
        assert len(results) == 5

    def test_shed_decision_frees_its_slot(self, registry):
        """A shed request must not consume in-flight capacity."""
        admission = AdmissionController(AdmissionPolicy(max_queue_samples_per_model=4))

        async def scenario():
            server = AsyncInferenceServer(
                registry, POLICY, admission=admission, max_inflight=2
            )
            accepted = await server.submit("mlp", np.zeros((4, 16)))
            assert accepted.accepted
            for _ in range(5):  # repeated sheds would exhaust max_inflight=2
                submit = server.submit("mlp", np.zeros((4, 16)))
                shed = await asyncio.wait_for(submit, timeout=10)
                assert shed.status == "shed"
                with pytest.raises(RequestShedError) as excinfo:
                    await shed
                assert excinfo.value.decision is shed.decision
            async with server:
                await accepted.result(30)

        asyncio.run(scenario())


class TestFaultInjection:
    """Every fault resolves every future -- no hangs, no lost requests."""

    @pytest.mark.slow
    def test_replica_sigkill_mid_await(self, tiny_mlp_model):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model, backend="process", replicas=2)
        pool = registry.engine("mlp")
        telemetry = TelemetryCollector()
        inputs = make_inputs(8)

        async def scenario():
            async with AsyncInferenceServer(
                registry, POLICY, telemetry=telemetry
            ) as server:
                decisions = await asyncio.gather(
                    *[server.submit("mlp", r) for r in inputs]
                )
                os.kill(pool.replica_pids()[0], signal.SIGKILL)
                return await asyncio.gather(*[d.result(60) for d in decisions])

        try:
            results = asyncio.run(scenario())
            # No request lost: one output row per submitted sample, all
            # bit-identical to a direct (in-process) engine call.
            reference = ModelRegistry()
            reference.register("mlp", tiny_mlp_model)
            direct = [reference.engine("mlp").run(r) for r in inputs]
            assert all(np.array_equal(a, b) for a, b in zip(results, direct))
            # The engine-run records counted every sample exactly once,
            # whatever mix of clean runs and crash-requeues delivered them,
            # and each record names the replica that served it.
            submitted = sum(r.shape[0] for r in inputs)
            aggregate = telemetry.aggregate("mlp")
            assert aggregate.engine_run_samples == submitted
            assert (
                sum(t["samples"] for t in aggregate.replica_engine_runs.values())
                == submitted
            )
            # The pool heals before we tear it down.
            deadline = time.monotonic() + 30
            while pool.healthy_replicas < 2:
                time.sleep(0.05)
                assert time.monotonic() < deadline, "pool failed to self-heal"
        finally:
            registry.close()

    def test_registry_close_with_awaiters_pending(self, registry, tiny_mlp_model):
        """close() under pending awaiters: every future resolves, some as errors."""

        async def scenario():
            server = AsyncInferenceServer(registry, POLICY)
            # Admit while stopped so the requests are pending, then rip the
            # model out from under them before the scheduler ever starts.
            decisions = [await server.submit("mlp", r) for r in make_inputs(6)]
            registry.close()
            async with server:
                settled = await asyncio.gather(
                    *[asyncio.wait_for(d.result(), timeout=30) for d in decisions],
                    return_exceptions=True,
                )
            assert server.inflight == 0
            return settled

        settled = asyncio.run(scenario())
        assert len(settled) == 6
        for outcome in settled:
            # Resolution is what matters: either a served result (a batch
            # dispatched before the close raced in) or the engine-lookup
            # error -- but never a TimeoutError, which would mean a hang.
            assert not isinstance(outcome, asyncio.TimeoutError)
            assert isinstance(outcome, (np.ndarray, KeyError, RuntimeError))

    def test_event_loop_shutdown_with_inflight_batches(self, registry):
        """Closing the loop mid-flight must not hang or wedge the server."""
        server = AsyncInferenceServer(registry, POLICY)
        decisions = []

        async def scenario():
            for inputs in make_inputs(6):
                decisions.append(await server.submit("mlp", inputs))
            # Return with every request still queued: asyncio.run closes
            # the loop, orphaning the bridge targets.

        asyncio.run(scenario())
        # The sync machinery is untouched by the dead loop: starting it
        # drains the queue and resolves every underlying future.
        server.server.start()
        server.server.stop()
        sync_results = [d.decision.future.result(timeout=30) for d in decisions]
        assert len(sync_results) == 6
        assert server.inflight == 0  # bridge accounting survived the dead loop

    def test_cancelled_awaiter_does_not_lose_the_request(self, registry):
        async def scenario():
            async with AsyncInferenceServer(registry, POLICY) as server:
                decision = await server.submit("mlp", make_inputs(1)[0])
                waiter = asyncio.ensure_future(decision.result(30))
                await asyncio.sleep(0)
                waiter.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await waiter
                # The request itself stays in flight; a later await works.
                return await decision.result(30)

        assert asyncio.run(scenario()).shape == (1, 4)


def gateway_call(address, method, path, payload=None):
    """One blocking HTTP exchange -> (status, content type, body bytes)."""
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    body = json.dumps(payload) if payload is not None else None
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body, headers)
    response = conn.getresponse()
    return response.status, response.getheader("Content-Type"), response.read()


class TestGateway:
    def test_infer_metrics_and_health_routes(self, registry):
        telemetry = TelemetryCollector()
        admission = AdmissionController(AdmissionPolicy(max_queue_samples_per_model=8))
        inputs = make_inputs(1)[0]
        direct = registry.engine("mlp").run(inputs)

        async def scenario():
            server = AsyncInferenceServer(
                registry, POLICY, telemetry=telemetry, admission=admission
            )
            async with server, AsyncGateway(server) as gateway:
                address = gateway.address

                infer = {"model": "mlp", "inputs": inputs.tolist()}
                status, ctype, body = await asyncio.to_thread(
                    gateway_call, address, "POST", "/v1/infer", infer
                )
                assert status == 200 and ctype.startswith("application/json")
                reply = json.loads(body)
                assert np.array_equal(np.asarray(reply["outputs"]), direct)
                assert reply["decision"]["status"] == "accepted"

                oversized = {"model": "mlp", "inputs": np.zeros((64, 16)).tolist()}
                status, _, body = await asyncio.to_thread(
                    gateway_call, address, "POST", "/v1/infer", oversized
                )
                assert status == 429  # shed by the queue-depth cap
                assert json.loads(body)["decision"]["status"] == "shed"

                status, ctype, body = await asyncio.to_thread(
                    gateway_call, address, "GET", "/metrics"
                )
                assert status == 200 and ctype == PROMETHEUS_CONTENT_TYPE
                assert b"repro_requests_total" in body

                status, _, body = await asyncio.to_thread(
                    gateway_call, address, "GET", "/healthz"
                )
                assert status == 200
                health = json.loads(body)
                assert health["status"] == "ok"
                assert health["admission"]["shed"] == 1

        asyncio.run(scenario())

    def test_models_trace_echo_and_debug_trace_routes(self, registry):
        tracer = Tracer(sample_rate=1.0)
        inputs = make_inputs(1)[0]

        async def scenario():
            server = AsyncInferenceServer(registry, POLICY, tracer=tracer)
            async with server, AsyncGateway(server) as gateway:
                address = gateway.address

                status, _, body = await asyncio.to_thread(
                    gateway_call, address, "GET", "/v1/models"
                )
                assert status == 200
                listing = json.loads(body)
                assert listing["overload_state"] is None  # no admission control
                (entry,) = listing["models"]
                assert entry["name"] == "mlp"
                assert entry["tenant"] == "mlp"
                assert entry["backend"] == "thread"
                assert entry["backlog_samples"] == 0
                assert entry["dispatch_width"] == 1
                assert "replicas" not in entry  # thread backend: no pool

                infer = {"model": "mlp", "inputs": inputs.tolist()}
                status, _, body = await asyncio.to_thread(
                    gateway_call, address, "POST", "/v1/infer", infer
                )
                assert status == 200
                reply = json.loads(body)
                trace_id = reply["trace_id"]
                assert trace_id
                assert reply["decision"]["trace_id"] == trace_id

                status, ctype, body = await asyncio.to_thread(
                    gateway_call, address, "GET", "/debug/trace"
                )
                assert status == 200 and ctype.startswith("application/json")
                dump = json.loads(body)
                assert dump["displayTimeUnit"] == "ms"
                assert any(
                    event["args"].get("trace_id") == trace_id
                    for event in dump["traceEvents"]
                    if event["ph"] == "X"
                )

                status, _, body = await asyncio.to_thread(
                    gateway_call, address, "GET", f"/debug/trace?trace_id={trace_id}"
                )
                assert status == 200
                narrowed = json.loads(body)["traceEvents"]
                assert narrowed
                same = all(e["args"]["trace_id"] == trace_id for e in narrowed)
                assert same
                names = {event["name"] for event in narrowed}
                assert "request" in names and "loop_complete" in names

        asyncio.run(scenario())

    def test_healthz_and_models_report_pool_health(self, tiny_mlp_model):
        admission = AdmissionController(AdmissionPolicy())

        async def scenario(registry):
            server = AsyncInferenceServer(registry, POLICY, admission=admission)
            async with server, AsyncGateway(server) as gateway:
                address = gateway.address
                status, _, body = await asyncio.to_thread(
                    gateway_call, address, "GET", "/healthz"
                )
                assert status == 200
                health = json.loads(body)
                assert health["overload_state"] == "accepting"
                assert health["pools"]["mlp"]["replicas"] == 2
                assert health["pools"]["mlp"]["healthy"] == 2

                status, _, body = await asyncio.to_thread(
                    gateway_call, address, "GET", "/v1/models"
                )
                assert status == 200
                listing = json.loads(body)
                assert listing["overload_state"] == "accepting"
                (entry,) = listing["models"]
                assert entry["backend"] == "process"
                assert entry["dispatch_width"] == 2
                assert entry["replicas"]["healthy"] == 2

        with ModelRegistry() as registry:
            registry.register("mlp", tiny_mlp_model, backend="process", replicas=2)
            asyncio.run(scenario(registry))

    def test_error_mapping(self, registry):
        probes = [
            ("POST", "/v1/infer", {"model": "nope", "inputs": [[0.0] * 16]}, 404),
            ("POST", "/v1/infer", {"inputs": [[0.0] * 16]}, 400),
            ("GET", "/v1/infer", None, 405),
            ("GET", "/nope", None, 404),
            ("POST", "/v1/models", None, 405),
            ("POST", "/debug/trace", None, 405),
            # No telemetry collector and no tracer on this server -> 503.
            ("GET", "/metrics", None, 503),
            ("GET", "/debug/trace", None, 503),
        ]

        async def scenario():
            server = AsyncInferenceServer(registry, POLICY)
            async with server, AsyncGateway(server) as gateway:
                for method, path, payload, expected in probes:
                    status, _ctype, _body = await asyncio.to_thread(
                        gateway_call, gateway.address, method, path, payload
                    )
                    assert status == expected, (method, path, status)

        asyncio.run(scenario())
