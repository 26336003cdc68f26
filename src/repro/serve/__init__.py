"""Multi-tenant batched serving on top of the vectorized runtime.

The ROADMAP's north star is a production-scale system serving heavy traffic;
this package turns :class:`~repro.runtime.NetworkEngine` into that serving
layer:

* :mod:`repro.serve.registry` -- :class:`ModelRegistry` hosts several
  calibrated models side by side, each engine with its own executors over
  one shared :class:`~repro.runtime.EncodedWeightCache` (identical weights
  share encoded crossbars across tenants), with the runtime's float32 GEMM
  fast path enabled by default.
  ``register(..., backend="process", replicas=N)`` hosts a model in a
  self-healing :class:`~repro.runtime.ReplicaPool` of worker processes
  with a zero-copy shared-memory request path, sidestepping the GIL for
  the digital stages; crashed replicas restart automatically and
  ``unregister`` drains the pool cleanly.
* :mod:`repro.serve.scheduler` -- the dynamic micro-batching substrate:
  :class:`BatchingPolicy` (batch-size target + a co-batching budget that
  holds a batch back only while its engine already runs one with spare
  dispatch width; an idle engine dispatches at once),
  :class:`InferenceFuture` result handles and the per-model
  :class:`RequestQueue`, which forms batches for idle workers and counts
  the backlog (queued plus in-flight samples).
* :mod:`repro.serve.server` -- :class:`InferenceServer` coalesces concurrent
  requests per model into one engine call and splits the outputs back per
  request; different models execute concurrently, each model serialises.
  Requests may carry a priority and deadline; with a
  :class:`~repro.telemetry.TelemetryCollector` attached the server meters
  each completed batch in one ``record_batch`` call (its requests' cost
  traces, engine runs, pool health and route) and schedules SLO-aware (highest priority, least
  deadline slack first) instead of FIFO-by-age, with an aging rule so
  best-effort work is never starved.  There is one scheduling stage: each
  idle worker asks the queue for the globally most urgent ready model
  below its dispatch capacity and forms that batch on the spot.
* :mod:`repro.serve.admission` -- :class:`AdmissionController` screens every
  submit against queue-depth/inflight-cost caps, an overload state machine
  (:class:`OverloadState`) and the calibrated unmeetable-deadline test,
  returning a typed :class:`AdmissionDecision` (accepted / downgraded /
  shed) instead of silently enqueueing doomed work.
* :mod:`repro.serve.fleet` -- energy-aware heterogeneous fleets:
  ``ModelRegistry.register_fleet(name, variants=[...])`` groups several
  architecture variants of one logical model, and the server's
  :class:`FleetRouter` places each batch on the variant minimising modeled
  energy subject to its deadline slack (pluggable via
  :class:`RoutingObjective`: :class:`MinimizeEnergy`,
  :class:`MinimizeLatency`, :class:`PinVariant`), with per-variant backlog
  feedback so a saturated fast variant spills work to the low-power one.
* :mod:`repro.serve.aio` -- :class:`AsyncInferenceServer`, the asyncio front
  door: ``await submit(...)`` yields an awaitable admission decision, so
  tens of thousands of in-flight requests cost coroutines instead of
  blocked threads, with ``max_inflight`` end-to-end backpressure and the
  identical admission/shed semantics (and bit-identical outputs) as the
  sync path.
* :mod:`repro.serve.gateway` -- :class:`AsyncGateway`, a stdlib-only
  HTTP/JSON front door (``POST /v1/infer``, ``GET /metrics`` in Prometheus
  text format, ``GET /healthz``) over the asyncio facade; see
  ``examples/gateway.py``.

Quickstart::

    from repro.serve import BatchingPolicy, InferenceServer, ModelRegistry

    registry = ModelRegistry()
    registry.register("resnet", model)          # a calibrated QuantizedModel
    policy = BatchingPolicy(max_batch_size=32, max_delay_s=0.002)
    with InferenceServer(registry, policy) as server:
        decision = server.submit("resnet", inputs)  # (n_samples, *input_shape)
        outputs = decision.result()
    print(server.statistics().mean_batch_size)
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionCounters,
    AdmissionDecision,
    AdmissionPolicy,
    OverloadState,
    RequestShedError,
)
from repro.serve.aio import AsyncAdmissionDecision, AsyncInferenceServer
from repro.serve.fleet import (
    FleetRouter,
    MinimizeEnergy,
    MinimizeLatency,
    PinVariant,
    RouteDecision,
    RoutingObjective,
)
from repro.serve.gateway import AsyncGateway
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import (
    BatchingPolicy,
    InferenceFuture,
    InferenceRequest,
    RequestQueue,
)
from repro.serve.server import (
    InferenceServer,
    ServerStatistics,
    ServerStoppedError,
)

__all__ = [
    "AdmissionController",
    "AdmissionCounters",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AsyncAdmissionDecision",
    "AsyncGateway",
    "AsyncInferenceServer",
    "BatchingPolicy",
    "FleetRouter",
    "InferenceFuture",
    "InferenceRequest",
    "InferenceServer",
    "MinimizeEnergy",
    "MinimizeLatency",
    "ModelRegistry",
    "OverloadState",
    "PinVariant",
    "RequestQueue",
    "RequestShedError",
    "RouteDecision",
    "RoutingObjective",
    "ServerStatistics",
    "ServerStoppedError",
]
