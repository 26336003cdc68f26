"""Asyncio front door: coroutine-priced concurrency over the threaded server.

:class:`~repro.serve.server.InferenceServer` resolves each request through a
blocking :meth:`InferenceFuture.result`, so every in-flight request costs a
blocked OS thread.  That is fine for tens of clients and hopeless for the
ROADMAP's "heavy traffic" target: ten thousand concurrent requests must not
mean ten thousand stacks.  :class:`AsyncInferenceServer` keeps the entire
proven sync machinery -- admission control, dynamic micro-batching, SLO
dispatch, process/replica backends -- and changes only who waits:

* ``await submit(...)`` runs the sync submit fast path inline on the event
  loop.  That path never blocks (shape validation, an O(us) admission
  decision, one queue append), so shed latency through the async facade is
  the sync latency plus one coroutine hop.
* Each admitted request registers one
  :meth:`~repro.serve.scheduler.InferenceFuture.add_done_callback` bridge.
  When a dispatch worker delivers the result, the callback hops it onto the
  caller's event loop via ``loop.call_soon_threadsafe`` and resolves a plain
  :class:`asyncio.Future` -- one callback, no polling, no thread per request.
* ``max_inflight`` adds end-to-end backpressure *behind* admission control:
  ``submit`` awaits a free slot before the sync server ever sees the
  request, so a slow engine propagates pressure to producers as suspended
  coroutines instead of an unbounded queue.

Outputs are bit-identical to the sync path by construction -- the same
server executes the same batches; the facade only changes how completion is
awaited.  Shed requests surface the same
:class:`~repro.serve.admission.RequestShedError`.

One event loop per server: completion bridging targets the loop that
submitted the request, and the ``max_inflight`` semaphore binds to the first
loop that awaits it.  Run one :class:`AsyncInferenceServer` per loop (the
normal deployment: one loop per gateway process).

Quickstart::

    from repro.serve.aio import AsyncInferenceServer

    async def main():
        async with AsyncInferenceServer(registry, max_inflight=10_000) as srv:
            decision = await srv.submit("resnet", inputs)
            outputs = await decision  # RequestShedError if shed
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time

import numpy as np

from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import BatchingPolicy, InferenceFuture
from repro.serve.server import InferenceServer, ServerStatistics
from repro.telemetry import TelemetryCollector, Tracer

__all__ = ["AsyncAdmissionDecision", "AsyncInferenceServer"]


class AsyncAdmissionDecision:
    """Awaitable view of one :class:`~repro.serve.admission.AdmissionDecision`.

    ``await decision`` (or ``await decision.result()``) suspends until the
    dispatch worker delivers the request's output array; a shed decision
    raises :class:`~repro.serve.admission.RequestShedError` immediately, the
    same exception the sync path raises.  The wrapped typed decision stays
    available as :attr:`decision` for structured logging/HTTP mapping.
    """

    __slots__ = ("decision", "_future")

    def __init__(self, decision: AdmissionDecision, future: "asyncio.Future | None"):
        self.decision = decision
        self._future = future

    @property
    def status(self) -> str:
        return self.decision.status

    @property
    def accepted(self) -> bool:
        return self.decision.accepted

    @property
    def request_id(self) -> int:
        return self.decision.request_id

    @property
    def model_name(self) -> str:
        return self.decision.model_name

    @property
    def reason(self) -> str:
        return self.decision.reason

    def as_dict(self) -> dict:
        """JSON-ready representation (forwards to the sync decision)."""
        return self.decision.as_dict()

    def done(self) -> bool:
        """Whether a result (or the shed rejection) is already available."""
        return True if self._future is None else self._future.done()

    async def result(self, timeout: float | None = None) -> np.ndarray:
        """The request's output array; raises ``RequestShedError`` if shed.

        Cancellation (or a ``timeout``) abandons only this ``await``: the
        request stays in flight server-side and the decision may be awaited
        again later.
        """
        if self._future is None:
            raise self.decision.shed_error()
        if timeout is None:
            return await asyncio.shield(self._future)
        return await asyncio.wait_for(asyncio.shield(self._future), timeout)

    def __await__(self):
        return self.result().__await__()


class AsyncInferenceServer:
    """``async``/``await`` facade over an :class:`InferenceServer`.

    Accepts either the :class:`InferenceServer` constructor arguments (the
    common case -- the facade owns the server) or a prebuilt ``server=`` to
    wrap, e.g. one shared with sync callers.  ``async with`` starts and
    stops the underlying server; the blocking drain in ``stop`` runs in a
    thread-pool executor so the event loop never stalls on shutdown.

    ``max_inflight`` bounds the number of admitted-but-unfinished requests
    seen through this facade.  ``submit`` awaits a slot before admission, so
    overload suspends producers (cheap coroutines) rather than growing the
    server queue without bound; completions release slots from the event
    loop as results bridge back.
    """

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        policy: BatchingPolicy | None = None,
        max_workers: int = 2,
        telemetry: TelemetryCollector | None = None,
        slo_scheduling: bool = True,
        admission: AdmissionController | None = None,
        tracer: Tracer | None = None,
        *,
        server: InferenceServer | None = None,
        max_inflight: int | None = None,
    ):
        if server is None:
            if registry is None:
                raise ValueError(
                    "AsyncInferenceServer needs a registry (or a prebuilt server=)"
                )
            server = InferenceServer(
                registry,
                policy,
                max_workers=max_workers,
                telemetry=telemetry,
                slo_scheduling=slo_scheduling,
                admission=admission,
                tracer=tracer,
            )
        elif registry is not None:
            raise ValueError("pass either a registry or a prebuilt server, not both")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        self._server = server
        self._max_inflight = max_inflight
        self._capacity = (
            asyncio.Semaphore(max_inflight) if max_inflight is not None else None
        )
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    @property
    def server(self) -> InferenceServer:
        """The wrapped synchronous server (shared admission/telemetry/stats)."""
        return self._server

    @property
    def registry(self) -> ModelRegistry:
        return self._server.registry

    @property
    def telemetry(self) -> TelemetryCollector | None:
        return self._server.telemetry

    @property
    def max_inflight(self) -> int | None:
        return self._max_inflight

    @property
    def inflight(self) -> int:
        """Admitted requests whose results have not yet bridged back."""
        with self._inflight_lock:
            return self._inflight

    def statistics(self) -> ServerStatistics:
        """Snapshot of the wrapped server's counters."""
        return self._server.statistics()

    def backlog_by_model(self) -> dict[str, int]:
        """In-flight (queued + dispatched) samples per model."""
        return self._server.backlog_by_model()

    async def start(self) -> "AsyncInferenceServer":
        """Start the underlying server's workers."""
        self._server.start()
        return self

    async def stop(self) -> None:
        """Drain pending requests and stop the server, off the event loop.

        The sync ``stop`` joins the worker threads after the queue drains;
        running it in the default executor keeps completion bridging live
        (the loop keeps spinning) while the drain happens, so every future
        submitted before ``stop`` still resolves.
        """
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._server.stop)

    async def __aenter__(self) -> "AsyncInferenceServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def submit(
        self,
        model_name: str,
        inputs: np.ndarray,
        priority: int = 0,
        deadline_s: float | None = None,
    ) -> AsyncAdmissionDecision:
        """Admit one request; returns an awaitable admission decision.

        Suspends only for ``max_inflight`` backpressure.  The admission
        decision itself is made synchronously on the loop (it is an O(us)
        arithmetic check by design), so shed feedback is immediate: the
        returned decision for a shed request raises
        :class:`~repro.serve.admission.RequestShedError` when awaited,
        without a round-trip through the scheduler.
        """
        loop = asyncio.get_running_loop()
        if self._capacity is not None:
            await self._capacity.acquire()
        try:
            decision = self._server.submit(
                model_name, inputs, priority=priority, deadline_s=deadline_s
            )
        except BaseException:
            if self._capacity is not None:
                self._capacity.release()
            raise
        sync_future = decision.future
        if sync_future is None:  # shed: nothing in flight, free the slot now
            if self._capacity is not None:
                self._capacity.release()
            return AsyncAdmissionDecision(decision, None)
        async_future = loop.create_future()
        with self._inflight_lock:
            self._inflight += 1
        # Traced requests get a loop-side completion span: the request's
        # trace closes in the dispatch worker, so the asyncio bridge records
        # its hop as a standalone span attached to the same trace_id.
        trace_id = getattr(decision, "trace_id", None)
        sync_future.add_done_callback(
            functools.partial(self._bridge, loop, async_future, trace_id=trace_id)
        )
        return AsyncAdmissionDecision(decision, async_future)

    async def infer(
        self,
        model_name: str,
        inputs: np.ndarray,
        timeout: float | None = None,
        priority: int = 0,
        deadline_s: float | None = None,
    ) -> np.ndarray:
        """Submit and await one request's outputs (sheds raise immediately)."""
        decision = await self.submit(
            model_name, inputs, priority=priority, deadline_s=deadline_s
        )
        return await decision.result(timeout)

    def _bridge(
        self,
        loop: asyncio.AbstractEventLoop,
        async_future: asyncio.Future,
        sync_future: InferenceFuture,
        trace_id: str | None = None,
    ) -> None:
        """Hop one completed request onto the event loop (dispatch thread)."""
        with self._inflight_lock:
            self._inflight -= 1
        bridge_start = time.monotonic() if trace_id is not None else 0.0
        try:
            loop.call_soon_threadsafe(
                self._resolve, async_future, sync_future, trace_id, bridge_start
            )
        except RuntimeError:
            # The loop already closed (shutdown with batches still in
            # flight).  The sync future has resolved -- anyone holding it
            # still gets the result -- and no coroutine on a closed loop can
            # await the asyncio future, so there is nothing left to wake.
            pass

    def _resolve(
        self,
        async_future: asyncio.Future,
        sync_future: InferenceFuture,
        trace_id: str | None = None,
        bridge_start: float = 0.0,
    ) -> None:
        """Deliver one bridged completion (event-loop thread)."""
        if self._capacity is not None:
            self._capacity.release()
        if not async_future.done():  # done() means the awaiter was cancelled
            error = sync_future.exception()
            if error is not None:
                async_future.set_exception(error)
            else:
                async_future.set_result(sync_future.result())
        tracer = self._server.tracer
        if trace_id is not None and tracer is not None:
            tracer.record_span(
                "loop_complete", trace_id, bridge_start, time.monotonic()
            )
