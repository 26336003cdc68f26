"""The multi-tenant batched inference server.

:class:`InferenceServer` accepts concurrent requests against any model hosted
in a :class:`~repro.serve.registry.ModelRegistry`, coalesces them per model
with the dynamic micro-batching scheduler
(:class:`~repro.serve.scheduler.RequestQueue`), executes each coalesced batch
on the model's engine, and splits the outputs back per request.  With an
:class:`~repro.serve.admission.AdmissionController` attached, every
:meth:`~InferenceServer.submit` is first judged against the live backlog and
the calibrated latency predictions, and doomed or over-cap requests are shed
(or downgraded) *before* they consume queue space -- the returned
:class:`~repro.serve.admission.AdmissionDecision` carries the evidence.

Threading model:

* any number of client threads call :meth:`submit` / :meth:`infer`;
* ``max_workers`` worker threads are the only schedulers: an idle worker
  asks the :class:`~repro.serve.scheduler.RequestQueue` for the most urgent
  *ready* model below its dispatch capacity (highest priority first, with
  aged-starved heads promoted into the top class, then least deadline
  slack), and the queue forms that model's batch at that moment -- so
  requests that arrive while every worker is busy still join it.  Batching
  is work-conserving: a model is ready as soon as the engine key it is
  placed on has no batch in flight, so a lone request on an idle engine
  never waits out ``BatchingPolicy.max_delay_s``; the budget only holds a
  partial batch back behind a running one on a replica pool with spare
  dispatch width.  A batch addressed to a fleet is routed in the same step,
  and judged idle on its routed variant.  The worker executes the
  batch and releases its in-flight samples before the futures resolve.
  Batches of different models run concurrently, batches of the same model
  start in formation order;
* every hosted engine owns its executors (the registry builds them per
  registration), so the server takes no locks around a run.
  ``engine.run_timed`` serialises an in-process engine on the engine's own
  lock, which only a fleet batch rerouted onto a busy variant, or a second
  server over the same registry, ever waits on.  Two engines sharing one
  seeded noise model draw through NumPy's ``Generator``, which locks each
  draw;
* process-backed engines (:class:`~repro.runtime.ReplicaPool`,
  ``ModelRegistry.register(..., backend="process", replicas=N)``) keep
  every executor in a worker process that serialises its own request pipe,
  so two process-backed models execute truly in parallel while their
  worker-side engine timings still feed telemetry calibration.  A pool
  advertising ``dispatch_width > 1`` also runs up to that many
  *same-model* batches concurrently (one per healthy replica);
  single-width engines run one batch per model at a time.

Results are bit-identical to calling ``engine.run`` directly on each request's
inputs whenever the engine is deterministic (the default noiseless setup):
every stage of the simulator is per-sample, so coalescing requests into one
batch cannot change any request's outputs.  With a seeded noise model the
*grouping* determines which draws land on which request, exactly as it would
when choosing a batch size by hand.
"""

from __future__ import annotations

import copy
import itertools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve.admission import (
    ACCEPTED,
    DOWNGRADED,
    AdmissionController,
    AdmissionDecision,
    OverloadState,
)
from repro.serve.fleet import FleetRouter, RouteDecision, RoutingObjective
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import (
    BatchingPolicy,
    FormedBatch,
    InferenceFuture,
    InferenceRequest,
    RequestQueue,
)
from repro.telemetry import CostModel, TelemetryCollector, Tracer

__all__ = ["InferenceServer", "ServerStatistics", "ServerStoppedError"]


class ServerStoppedError(RuntimeError):
    """Raised by :meth:`InferenceServer.submit` once the server has stopped.

    Subclasses :class:`RuntimeError` so pre-existing ``except RuntimeError``
    call sites keep working.  The check runs *before* admission control and
    any counter updates, so a rejected submit leaves no trace in the
    admission/telemetry accounting.
    """


def _clone_error(error: BaseException) -> BaseException:
    """A per-request copy of one batch-wide failure.

    Every future of a failed batch needs its *own* exception instance:
    raising mutates ``__traceback__``/``__context__`` on the raised object,
    so concurrent ``result()`` calls re-raising one shared instance race on
    that mutation.  The copy keeps the original type/args (so ``except`` and
    message matching behave identically) and chains the original via
    ``__cause__`` for debugging; exceptions that refuse to copy degrade to a
    ``RuntimeError`` carrying their repr.
    """
    try:
        clone = copy.copy(error)
    except Exception:
        clone = None
    if clone is None or clone is error or type(clone) is not type(error):
        clone = RuntimeError(f"batch execution failed: {error!r}")
    clone.__cause__ = error
    return clone


@dataclass
class ServerStatistics:
    """Aggregate serving counters (snapshot via :meth:`InferenceServer.statistics`)."""

    requests_submitted: int = 0
    requests_completed: int = 0
    requests_failed: int = 0
    requests_shed: int = 0
    requests_downgraded: int = 0
    batches_executed: int = 0
    samples_executed: int = 0
    max_batch_size: int = 0
    engine_time_s: float = 0.0
    queue_wait_s: float = 0.0
    batches_per_model: dict[str, int] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        """Average samples per coalesced engine call."""
        if self.batches_executed == 0:
            return 0.0
        return self.samples_executed / self.batches_executed

    @property
    def mean_queue_wait_s(self) -> float:
        """Average time a request waited, enqueue to batch formation."""
        if self.requests_completed == 0:
            return 0.0
        return self.queue_wait_s / self.requests_completed


class InferenceServer:
    """Dynamic micro-batching server over a model registry.

    Parameters
    ----------
    registry:
        The hosted models.  Models may be registered while the server runs.
    policy:
        Batch-size / latency-budget knobs of the request queue (including
        the anti-starvation aging limit).
    max_workers:
        Worker threads; each forms its own batch from the request queue
        when idle and executes it.  Batches of different models run
        concurrently; batches of one model serialise unless its engine
        advertises a ``dispatch_width`` above 1.
    telemetry:
        Optional :class:`~repro.telemetry.TelemetryCollector`.  When set, the
        server makes one :meth:`~repro.telemetry.TelemetryCollector.record_batch`
        call per completed batch: a :class:`~repro.telemetry.RequestTrace`
        per request (queue wait -- enqueue to batch formation --, batch size,
        engine wall time, modeled energy and latency derived from the model's
        cost tables), the batch's engine-run records, its pool health and its
        fleet route; the scheduler's deadline slack uses the collector's
        calibrated latency predictions.  Cost tables come from the
        :class:`~repro.serve.registry.ModelRegistry` (its ``arch``
        parameter), read per batch, so a re-registered name is billed
        against its fresh tables at once.
    slo_scheduling:
        Whether pending priorities/deadlines reorder dispatch (SLO-aware
        scheduling).  Enabled by default -- a no-op while no request carries
        SLO hints, preserving FIFO behaviour exactly.  ``False`` forces pure
        FIFO-by-age even for SLO-tagged requests (the baseline the telemetry
        benchmarks compare against).
    admission:
        Optional :class:`~repro.serve.admission.AdmissionController`.  When
        set, every submit is screened against queue-depth/inflight-cost caps,
        the overload state machine, and the unmeetable-deadline test; shed
        requests are rejected in microseconds without enqueueing anything.
        Without one, every valid request is admitted (the pre-admission
        behaviour) and decisions report no queue evidence.
    tracer:
        Optional :class:`~repro.telemetry.Tracer`.  When set, sampled
        requests carry a distributed trace: spans cover the admission
        decision, queue wait, batch formation, dispatch, worker IPC,
        worker-side engine execution and completion, the request's
        ``trace_id`` rides the returned decision, and finished traces plus
        lifecycle events (replica crashes/restarts, overload transitions,
        sheds) land in the tracer's flight recorder.  The server sets the
        registry's lifecycle observer once, so every replica pool the
        registry hosts, now or later, reports to the tracer.
        Absent (the default), the tracing path costs one ``None`` check.
    routing:
        Optional :class:`~repro.serve.fleet.RoutingObjective` for fleet
        submissions (:meth:`ModelRegistry.register_fleet
        <repro.serve.registry.ModelRegistry.register_fleet>`).  Batches
        addressed at a fleet name are placed on one of its architecture
        variants when a worker forms them, by a
        :class:`~repro.serve.fleet.FleetRouter` (exposed as
        :attr:`router`), by default minimising modeled energy subject to
        the batch's deadline slack; per-variant backlog feeds back into
        the placement so a saturated fast variant spills to the low-power
        one.  Non-fleet submissions never touch the router.

    Use as a context manager, or call :meth:`start` / :meth:`stop`.  Requests
    may be submitted before :meth:`start`; they dispatch once the workers
    run (handy for deterministic tests and benchmarks).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        policy: BatchingPolicy | None = None,
        max_workers: int = 2,
        telemetry: TelemetryCollector | None = None,
        slo_scheduling: bool = True,
        admission: AdmissionController | None = None,
        tracer: Tracer | None = None,
        routing: RoutingObjective | None = None,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.registry = registry
        self.policy = policy or BatchingPolicy()
        self.max_workers = max_workers
        self.telemetry = telemetry
        self.slo_scheduling = slo_scheduling
        self.admission = admission
        self.tracer = tracer
        self.router = FleetRouter(registry, telemetry, routing)
        if tracer is not None:
            registry.set_lifecycle_observer(self._pool_lifecycle_event)
        # Last overload state seen per submit, for edge-triggered
        # overload_transition events in the flight recorder.  Read/written
        # without a lock: a racing pair of submits can at worst emit a
        # duplicate or miss one transition event, never corrupt state.
        self._last_overload_state: str | None = None
        self._request_ids = itertools.count()
        self._queue = self._make_queue()
        self._stats = ServerStatistics()
        self._stats_lock = threading.Lock()
        self._workers: list[threading.Thread] = []

    # -- lifecycle -------------------------------------------------------------

    def _make_queue(self) -> RequestQueue:
        return RequestQueue(
            latency_estimator=self._latency_predictor(),
            slo_mode=self.slo_scheduling,
        )

    def _latency_predictor(self, include_queue_wait: bool = False):
        """The collector's calibrated latency predictor, made fleet-aware.

        Plain model names pass straight through to
        :meth:`~repro.telemetry.TelemetryCollector.predicted_batch_latency_s`
        with the registry's tables for the name.
        A fleet name predicts its *best feasible variant*: the minimum over
        variants of the calibrated estimate divided by that variant's
        dispatch width (a replica pool drains its backlog ~width times
        faster) -- which is what the router can actually achieve, so
        admission control and deadline-slack scheduling neither shed work a
        fast variant could serve nor admit work no variant can.  ``None``
        without a collector (the queue and admission both treat a missing
        predictor as "no latency evidence").

        ``include_queue_wait=True`` folds each model's observed queue-wait
        EMA into the estimate -- the cross-model contention signal the
        admission controller prices (see :meth:`TelemetryCollector
        .predicted_batch_latency_s
        <repro.telemetry.TelemetryCollector.predicted_batch_latency_s>`).
        The scheduler's slack estimator keeps the default: a queued
        request's own wait is measured directly there, and adding the EMA
        would double-count it.
        """
        if self.telemetry is None:
            return None
        collector = self.telemetry

        def base(model_name: str, n_samples: int) -> float | None:
            return collector.predicted_batch_latency_s(
                model_name,
                n_samples,
                self._cost_model(model_name),
                include_queue_wait=include_queue_wait,
            )

        def predict(model_name: str, n_samples: int) -> float | None:
            variants = self.registry.fleet_variants(model_name)
            if variants is None:
                return base(model_name, n_samples)
            best = None
            for variant in variants:
                predicted = base(variant, n_samples)
                if predicted is None:
                    continue
                try:
                    engine = self.registry.engine(variant)
                except KeyError:  # unregistered concurrently
                    continue
                predicted /= engine.dispatch_width
                if best is None or predicted < best:
                    best = predicted
            return best

        return predict

    def start(self) -> "InferenceServer":
        """Start the worker threads (idempotent, restartable)."""
        if self._workers:
            return self
        if self._queue.closed:  # restarting after stop(): fresh queue
            self._queue = self._make_queue()
        self._workers = [
            threading.Thread(
                target=self._work, name=f"serve-worker-{index}", daemon=True
            )
            for index in range(self.max_workers)
        ]
        for worker in self._workers:
            worker.start()
        return self

    def stop(self) -> None:
        """Drain pending requests, then join every worker."""
        if not self._workers:
            return
        self._queue.close()
        for worker in self._workers:
            worker.join()
        self._workers = []

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- client API ------------------------------------------------------------

    def submit(
        self,
        model_name: str,
        inputs: np.ndarray,
        priority: int = 0,
        deadline_s: float | None = None,
    ) -> AdmissionDecision:
        """Screen, enqueue (unless shed) and return the admission decision.

        ``inputs`` must carry a leading batch dimension:
        ``(n_samples, *model.input_shape)``.  Validation happens here so bad
        requests fail fast instead of poisoning a coalesced batch.

        ``priority`` (higher dispatches first) and ``deadline_s`` (seconds
        from now after which the result stops being useful) opt the request
        into SLO-aware scheduling; omitting both keeps the classic FIFO
        behaviour.  Deadlines are best-effort -- a late *admitted* request
        still completes, and the miss is recorded in the telemetry collector.

        The returned :class:`~repro.serve.admission.AdmissionDecision` is
        also the result handle (``decision.result()`` /``decision.done()``
        forward to the underlying future); a shed decision has no future and
        raises :class:`~repro.serve.admission.RequestShedError` on
        :meth:`~repro.serve.admission.AdmissionDecision.result`.

        Raises :class:`ServerStoppedError` once :meth:`stop` has closed the
        queue -- *before* the admission decision, so a rejected submit never
        bumps an admission or telemetry counter.  :meth:`start` the server
        again to resume submitting.
        """
        if self._queue.closed:
            raise ServerStoppedError(
                "inference server is stopped; call start() before submitting"
            )
        model = self.registry.model(model_name)  # raises KeyError if unknown
        batch = np.asarray(inputs, dtype=np.float64)
        if batch.ndim != len(model.input_shape) + 1 or batch.shape[0] == 0:
            raise ValueError(
                f"expected inputs of shape (n_samples, "
                f"{', '.join(map(str, model.input_shape))}), got {batch.shape}"
            )
        if batch.shape[1:] != model.input_shape:
            raise ValueError(
                f"model {model_name!r} takes samples of shape "
                f"{model.input_shape}, got {batch.shape[1:]}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive (seconds from now)")
        request_id = next(self._request_ids)
        tracer = self.tracer
        handle = None if tracer is None else tracer.begin(model_name, request_id)
        decision = self._admission_decision(
            request_id, model_name, batch.shape[0], priority, deadline_s
        )
        # One timestamp serves as both the admission span's end and the
        # request's enqueue instant, so the admission and queue_wait spans
        # tile without a gap and the trace covers the full wall time.
        now = time.monotonic()
        if handle is not None:
            handle.add_span(
                "admission",
                handle.start_s,
                now,
                status=decision.status,
                reason=decision.reason,
                overload_state=decision.overload_state.value,
            )
            decision.trace_id = handle.trace_id
        if tracer is not None:
            state = decision.overload_state.value
            if state != self._last_overload_state:
                previous = self._last_overload_state
                self._last_overload_state = state
                tracer.record_event(
                    "overload_transition",
                    model=model_name,
                    previous=previous,
                    state=state,
                )
        if decision.status == DOWNGRADED:
            priority, deadline_s = 0, None
        if not decision.accepted:
            if self.telemetry is not None and self.admission is not None:
                self.telemetry.record_admission(decision)
            with self._stats_lock:
                self._stats.requests_shed += 1
            if tracer is not None:
                tracer.record_event(
                    "request_shed",
                    model=model_name,
                    request_id=request_id,
                    reason=decision.reason,
                )
            if handle is not None:
                handle.finish(status="shed")
            return decision
        future = InferenceFuture()
        request = InferenceRequest(
            model_name=model_name,
            inputs=batch,
            future=future,
            enqueued_at=now,
            priority=priority,
            deadline_s=None if deadline_s is None else now + deadline_s,
            request_id=request_id,
            trace=handle,
        )
        decision.future = future
        # Accepted requests are counted only *after* the enqueue succeeds:
        # stop() may close the queue between the fail-fast check above and
        # this point, and a request that was never enqueued must not appear
        # in admission or serving counters.
        try:
            self._queue.submit(request)
        except RuntimeError as error:
            if self.admission is not None:
                # decide() already counted the decision; the request never
                # entered the system, so take the count back.
                self.admission.retract(decision)
            if handle is not None:
                handle.finish(status="stopped")
            raise ServerStoppedError(
                "inference server stopped while submitting; call start() "
                "before submitting"
            ) from error
        if self.telemetry is not None and self.admission is not None:
            self.telemetry.record_admission(decision)
        with self._stats_lock:
            self._stats.requests_submitted += 1
            if decision.status == DOWNGRADED:
                self._stats.requests_downgraded += 1
        return decision

    def _admission_decision(
        self,
        request_id: int,
        model_name: str,
        n_samples: int,
        priority: int,
        deadline_s: float | None,
    ) -> AdmissionDecision:
        """Run the admission controller (or accept trivially without one)."""
        if self.admission is None:
            return AdmissionDecision(
                status=ACCEPTED,
                request_id=request_id,
                model_name=model_name,
                tenant=model_name,
                reason="admission control disabled",
                overload_state=OverloadState.ACCEPTING,
            )
        tenants = self.registry.tenants()
        # Fleet names predict via their best feasible variant (already
        # width-scaled inside the predictor); _dispatch_widths has no fleet
        # entry, so admission's own replica division stays a no-op for them.
        # Admission (alone) prices observed queue wait on top of the modeled
        # latency, so deadline feasibility sees cross-model contention.
        predictor = self._latency_predictor(include_queue_wait=True)
        return self.admission.decide(
            request_id=request_id,
            model_name=model_name,
            tenant=tenants.get(model_name, model_name),
            n_samples=n_samples,
            priority=priority,
            deadline_s=deadline_s,
            backlog_samples=self._queue.backlog_by_model(),
            tenants=tenants,
            predictor=predictor,
            replica_counts=self._dispatch_widths(),
        )

    def _dispatch_widths(self) -> dict[str, int]:
        """Models whose engine drains more than one batch at a time.

        Replica pools advertise their healthy width via ``dispatch_width``;
        admission control divides its latency predictions by it, because a
        backlog spread over N healthy replicas drains ~N times faster than
        the single-engine calibration assumes.  Width-1 engines are omitted
        (the default divisor).
        """
        widths: dict[str, int] = {}
        for name in self.registry.names():
            try:
                engine = self.registry.engine(name)
            except KeyError:  # unregistered between names() and engine()
                continue
            width = engine.dispatch_width
            if width > 1:
                widths[name] = width
        return widths

    def backlog_by_model(self) -> dict[str, int]:
        """Public backlog snapshot: queued plus executing samples per model.

        The request queue's count, and the same figure admission control
        prices; a routed fleet batch counts under its variant once a worker
        has formed it.  The asyncio gateway's health endpoint reports this
        so a load balancer can see pressure building before the admission
        controller starts shedding.
        """
        return self._queue.backlog_by_model()

    def _cost_model(self, name: str) -> CostModel | None:
        """The registry's cost tables for ``name`` (``None`` without any).

        A name unregistered mid-flight reads as having no tables, so a
        batch that outlives its tenant completes without modeled figures.
        """
        try:
            return self.registry.cost_model(name)
        except KeyError:
            return None

    def _pool_lifecycle_event(self, event: dict) -> None:
        """Forward one replica-pool lifecycle event into the flight recorder."""
        tracer = self.tracer
        if tracer is None:
            return
        payload = dict(event)
        name = payload.pop("event", "pool_event")
        tracer.record_event(name, **payload)

    def infer(
        self,
        model_name: str,
        inputs: np.ndarray,
        timeout: float | None = None,
        priority: int = 0,
        deadline_s: float | None = None,
    ) -> np.ndarray:
        """Synchronous convenience wrapper: submit and wait for the result.

        Raises :class:`~repro.serve.admission.RequestShedError` when the
        admission controller sheds the request.
        """
        decision = self.submit(
            model_name, inputs, priority=priority, deadline_s=deadline_s
        )
        return decision.result(timeout)

    def statistics(self) -> ServerStatistics:
        """A consistent snapshot of the serving counters."""
        with self._stats_lock:
            snapshot = ServerStatistics(
                **{
                    name: value
                    for name, value in vars(self._stats).items()
                    if name != "batches_per_model"
                }
            )
            snapshot.batches_per_model = dict(self._stats.batches_per_model)
            return snapshot

    # -- workers ---------------------------------------------------------------

    def _work(self) -> None:
        """One worker: form the most urgent startable batch, run it, repeat."""
        queue = self._queue
        while (batch := queue.next_batch(self.policy, self._place)) is not None:
            try:
                self._execute_batch(batch)
            finally:
                # Normally a no-op: _execute_batch releases the batch before
                # its futures resolve.  This is the safety net for paths
                # that failed before reaching the accounting.
                queue.release(batch)

    def _place(
        self, name: str, samples: int, deadline_s: float | None
    ) -> tuple[str, RouteDecision | None] | None:
        """Where a batch of ``name`` would start now: ``(engine key, route)``.

        :meth:`RequestQueue.next_batch
        <repro.serve.scheduler.RequestQueue.next_batch>` calls this under
        its lock, so the capacity check here and the queue's in-flight mark
        are one step: a key never runs more batches at once than its
        engine's dispatch width (1 unless a replica pool advertises more),
        and ``None`` keeps the batch queued until a release.  A fleet name
        is routed here, so routed batches count against the *variant's*
        capacity exactly like direct submissions -- which keeps a pinned
        fleet bit-identical to single-variant serving.  The decision is
        recorded only once a worker executes the batch.
        """
        key, route = name, None
        if self.registry.is_fleet(name):
            route = self._route(name, samples, deadline_s)
            if route is not None:
                key = route.variant
        if self._queue.in_flight_batches(key) >= self._dispatch_capacity(key):
            return None
        return key, route

    def _route(
        self, fleet: str, samples: int, deadline_s: float | None
    ) -> RouteDecision | None:
        """Place one fleet batch on a variant; ``None`` when none is live.

        The decision path is dictionary lookups over precomputed cost
        tables and calibration scalars -- no engine is touched, so routing
        adds microseconds to batch formation.  The router's backlog input
        is the queue's per-key count.  ``None`` lets the engine lookup
        produce the usual unknown-model error (or the batch fail, on the
        mid-flight reroute path).
        """
        try:
            return self.router.route(
                fleet,
                samples,
                deadline_s=deadline_s,
                backlog=self._queue.backlog_by_model(),
            )
        except LookupError:  # fleet emptied or dropped concurrently
            return None

    def _record_route(
        self,
        decision: RouteDecision,
        requests: list[InferenceRequest],
        started: float,
        decided: float,
        reroute: bool = False,
    ) -> None:
        """Count one executed placement and add its ``route`` spans.

        ``reroute=True`` is the mid-flight drain path (the chosen variant
        was unregistered with the batch already formed): the hop is counted
        separately so the telemetry's routed-batch totals stay
        one-per-batch.
        """
        if self.telemetry is not None:
            self.telemetry.record_route(decision, reroute=reroute)
        if reroute and self.tracer is not None:
            self.tracer.record_event(
                "fleet_reroute",
                fleet=decision.fleet,
                variant=decision.variant,
                samples=decision.n_samples,
            )
        for request in requests:
            if request.trace is not None:
                request.trace.add_span(
                    "route",
                    started,
                    decided,
                    variant=decision.variant,
                    rejected=list(decision.rejected),
                    objective=decision.objective,
                    reason=decision.reason,
                    rerouted=reroute,
                )

    def _dispatch_capacity(self, name: str) -> int:
        """How many batches of one model may execute concurrently (>= 1)."""
        try:
            engine = self.registry.engine(name)
        except KeyError:  # unregistered with requests still queued
            return 1
        return engine.dispatch_width

    def _execute_batch(self, batch: FormedBatch) -> None:
        requests = batch.requests
        engine_name, route = batch.key, batch.route
        sizes = [request.n_samples for request in requests]
        # Trace fan-out: the batch runs once, but each sampled request's
        # trace gets its own copy of the batch-level spans collected in
        # ``sink`` (engine/worker_ipc, as plain dicts so the runtime layer
        # never imports telemetry).  ``trace_ctx`` rides the worker request
        # so worker-side spans come back tagged with every trace they serve.
        traced = [request for request in requests if request.trace is not None]
        sink: list[dict] | None = [] if traced else None
        trace_ctx = (
            tuple(request.trace.trace_id for request in traced) if traced else None
        )
        if route is not None:
            self._record_route(route, requests, batch.formed_s, time.monotonic())
        dispatched = time.monotonic()
        try:
            inputs = (
                requests[0].inputs
                if len(requests) == 1
                else np.concatenate([request.inputs for request in requests], axis=0)
            )
            while True:
                try:
                    engine = self.registry.engine(engine_name)
                    # One call for both backends: it times the run (the
                    # worker does, for a replica pool, so calibration
                    # never sees IPC), returns its engine-run records and
                    # appends its ``engine`` span to ``sink``; a pool also
                    # requeues a crashed replica's batch onto a sibling.
                    outputs, engine_time, engine_records = engine.run_timed(
                        inputs, trace_ctx=trace_ctx, span_sink=sink
                    )
                    break
                except BaseException:
                    # Zero-loss drain: a routed batch whose variant was
                    # unregistered mid-flight (the engine lookup fails, or
                    # a process pool was closed under the running batch) is
                    # re-placed onto the fleet's remaining variants instead
                    # of failing its requests.  Each retry targets a
                    # variant the pruned fleet still lists, so the loop is
                    # bounded by the fleet width; anything else -- including
                    # a fleet emptied of variants -- falls through to the
                    # failure path below.
                    if route is None or engine_name in self.registry:
                        raise
                    started = time.monotonic()
                    deadline = min(
                        (r.deadline_s for r in requests if r.deadline_s is not None),
                        default=None,
                    )
                    route = self._route(route.fleet, batch.samples, deadline)
                    if route is None:
                        raise
                    engine_name = route.variant
                    self._record_route(
                        route, requests, started, time.monotonic(), reroute=True
                    )
        except BaseException as error:
            self._queue.release(batch)
            for request in requests:
                request.future._set_error(_clone_error(error))
            with self._stats_lock:
                self._stats.requests_failed += len(requests)
            if traced:
                failed_at = time.monotonic()
                self._finish_traces(
                    traced,
                    sink,
                    batch.formed_s,
                    dispatched,
                    delivered=failed_at,
                    completed=failed_at,
                    status="error",
                    error=type(error).__name__,
                )
            return
        bounds = np.cumsum(sizes)[:-1]
        results = np.split(outputs, bounds, axis=0)
        delivered = time.monotonic()
        completed = delivered
        # All accounting (queue backlog, server stats, traces, telemetry) is
        # finalised *before* the futures resolve: a caller woken by
        # ``result()`` must see its own request already reflected in
        # ``statistics()`` and gone from ``backlog_by_model()``.  The
        # ``finally`` guarantees the futures resolve even if accounting
        # raises.
        try:
            self._queue.release(batch)
            with self._stats_lock:
                stats = self._stats
                stats.requests_completed += len(requests)
                stats.batches_executed += 1
                stats.samples_executed += batch.samples
                stats.max_batch_size = max(stats.max_batch_size, batch.samples)
                stats.engine_time_s += engine_time
                stats.queue_wait_s += sum(
                    batch.formed_s - request.enqueued_at for request in requests
                )
                # Routed batches are counted under the variant that actually
                # executed them (the fleet-level totals live in the telemetry
                # collector's routing counters).
                stats.batches_per_model[engine_name] = (
                    stats.batches_per_model.get(engine_name, 0) + 1
                )
            if traced:
                self._finish_traces(
                    traced,
                    sink,
                    batch.formed_s,
                    dispatched,
                    delivered=delivered,
                    completed=completed,
                    status="ok",
                    batch_size=batch.samples,
                )
            if self.telemetry is not None:
                # One collector write per batch.  A routed batch is recorded
                # under the *variant* that executed it: calibration stays
                # per variant and energy uses the executing architecture's
                # tables.  Replica pools also snapshot their health.
                pool_health = getattr(engine, "pool_health", None)
                self.telemetry.record_batch(
                    engine_name,
                    requests,
                    formed_at=batch.formed_s,
                    completed_at=completed,
                    engine_time_s=engine_time,
                    engine_records=engine_records,
                    cost=self._cost_model(engine_name),
                    pool_health=None if pool_health is None else pool_health(),
                    route=route,
                )
        finally:
            for request, result in zip(requests, results):
                request.future._set_result(result)

    def _finish_traces(
        self,
        traced: list[InferenceRequest],
        sink: list[dict] | None,
        formed: float,
        dispatched: float,
        *,
        delivered: float,
        completed: float,
        status: str,
        error: str | None = None,
        batch_size: int | None = None,
    ) -> None:
        """Close every sampled request's trace for one executed batch.

        Each traced request gets its own copies of the per-batch spans:
        ``queue_wait`` (submit -> the worker forms the batch),
        ``dispatch_wait`` (formation -> execution start: the routing time),
        ``execute`` (execution start -> outputs delivered), the sink's ``worker_ipc``/``engine`` spans (clamped into
        the execute window as a cross-platform guard; on Linux worker clocks
        share ``CLOCK_MONOTONIC`` so the clamp is a no-op), and ``complete``
        (output split + future delivery).  Finishing freezes the span list,
        which is what lets the collector's ``record_batch`` snapshot it
        afterwards.
        """
        for request in traced:
            handle = request.trace
            handle.add_span("queue_wait", request.enqueued_at, formed)
            handle.add_span("dispatch_wait", formed, dispatched)
            attrs: dict = {"status": status}
            if error is not None:
                attrs["error"] = error
            if batch_size is not None:
                attrs["batch_size"] = batch_size
            handle.add_span("execute", dispatched, delivered, **attrs)
            if sink:
                handle.add_span_dicts(sink, clamp=(dispatched, delivered))
            if status == "ok":
                handle.add_span("complete", delivered, completed)
            handle.finish(completed, status=status)
