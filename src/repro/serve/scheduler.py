"""Dynamic micro-batching: request futures, batching policy, request queue.

The serving layer coalesces concurrent requests *per model* into one engine
call.  :class:`BatchingPolicy` sets the two knobs of the classic dynamic
batcher: a batch-size target and a latency budget.  :class:`RequestQueue`
holds pending :class:`InferenceRequest` objects per model and hands an idle
worker the next batch that may start -- by default the model whose oldest
request has waited longest, as soon as that model's engine has no batch in
flight, its batch is full, or its oldest request exhausts the latency
budget.  Batching is work-conserving: an idle engine never waits, because
requests that arrive while its batch runs join the next batch anyway, so the
latency budget only holds back a batch whose engine already runs one and
could start another (a replica pool with spare dispatch width).  The batch
is formed at that moment, so requests that arrive while every worker is busy
still join it.  Models whose engine is already running as many batches as it
can (the caller's placement function says so) are skipped, and the queue
counts each popped batch's samples as in flight until the worker releases
it.

Requests may optionally carry a *priority* and a *deadline*.  While any such
request is pending (and the queue's SLO mode is on), model selection switches
from FIFO-by-age to SLO-aware dispatch: higher priority classes go first, and
within a class the model whose next dispatchable batch has the least *slack*
-- ``deadline - now - predicted batch latency`` over the requests that batch
would contain, with the prediction supplied by a
:class:`~repro.telemetry.cost.CostModel`-backed estimator -- wins.  A model
whose slack has run out dispatches immediately, even with a partial batch.
An aging rule bounds starvation: heads older than
:attr:`BatchingPolicy.starvation_limit_s` are promoted into the top pending
priority class, so best-effort work survives a saturated high-priority
stream.  :func:`most_urgent` is that order, written once and ranked only
here.  With no priorities, no deadlines, or SLO mode off, the scheduling
decisions are exactly the FIFO ones.

Requests never split across batches: a batch is a whole number of requests, so
splitting engine outputs back per request is a plain ``np.split`` at request
boundaries.  A single request larger than the batch-size target forms its own
batch (the engine's micro-batching bounds the working set downstream).
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BatchingPolicy",
    "FormedBatch",
    "InferenceFuture",
    "InferenceRequest",
    "RequestQueue",
    "most_urgent",
]

#: Estimator signature: (model_name, queued_samples) -> predicted batch
#: latency in seconds, or None when the model has no prediction.
LatencyEstimator = Callable[[str, int], "float | None"]

#: Placement signature: (model_name, batch_samples, batch_deadline_s) ->
#: ``(engine_key, route)`` when the batch may start now, or ``None`` while
#: its engine key already runs as many batches as it can.  ``route`` is
#: opaque to the queue and rides the popped :class:`FormedBatch`.
Placer = Callable[[str, int, "float | None"], "tuple[str, object] | None"]


@dataclass(frozen=True)
class BatchingPolicy:
    """Coalescing knobs of the dynamic micro-batching scheduler.

    Parameters
    ----------
    max_batch_size:
        Sample-count target per coalesced engine call; a batch closes as soon
        as adding the next whole request would exceed it (a single oversized
        request still runs, alone).
    max_delay_s:
        Co-batching budget: the longest a partial batch may wait for more
        requests while its engine key already runs a batch and has spare
        dispatch width (a replica pool with ``dispatch_width > 1``).  A
        batch whose engine key is idle dispatches at once, whatever this
        budget; requests arriving while a batch runs join the next one.
    starvation_limit_s:
        The aging rule bounding priority starvation: a model whose oldest
        pending request has waited longer than this is promoted into the
        top pending priority class, competing there on slack/deadline like
        everything else -- so a saturated stream of high-priority work
        cannot delay a best-effort request without a deadline forever, while
        genuinely urgent deadlines still dispatch first.  Must be positive; it only
        matters under SLO-aware scheduling (the FIFO path is oldest-first
        already).
    """

    max_batch_size: int = 32
    max_delay_s: float = 0.002
    starvation_limit_s: float = 0.25

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if self.max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        if self.starvation_limit_s <= 0:
            raise ValueError("starvation_limit_s must be positive")


def most_urgent(candidates: list[tuple], now: float, starvation_limit_s: float) -> str:
    """The name of the most urgent candidate under the one urgency order.

    ``candidates`` is a non-empty list of ``(name, priority, enqueued_at,
    secondary, tiebreak)`` tuples, one per model competing for a dispatch.
    The order is:

    1. the highest priority class -- where a candidate whose head has waited
       longer than ``starvation_limit_s`` (``now - enqueued_at``) is promoted
       into the top pending class, the aging rule that keeps a saturated
       high-priority stream from starving best-effort work forever;
    2. then the smallest ``secondary`` key;
    3. then the smallest ``tiebreak``.

    Exact ties keep the earliest candidate.  :class:`RequestQueue` is the
    only caller: it keys each model on its next batch's slack and then the
    head request's enqueue time.
    """
    top_priority = max(candidate[1] for candidate in candidates)
    best_key, best_name = None, None
    for name, priority, enqueued_at, secondary, tiebreak in candidates:
        if now - enqueued_at > starvation_limit_s:
            priority = top_priority
        key = (-priority, secondary, tiebreak)
        if best_key is None or key < best_key:
            best_key, best_name = key, name
    return best_name


class InferenceFuture:
    """Handle to the result of one submitted request.

    Completion callbacks (:meth:`add_done_callback`) fire on whichever
    thread delivers the result -- a server dispatch worker, usually -- so
    they must be cheap and non-blocking.  The asyncio facade
    (:class:`~repro.serve.aio.AsyncInferenceServer`) uses them to hand
    completions to an event loop via ``call_soon_threadsafe``.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: np.ndarray | None = None
        self._error: BaseException | None = None
        self._lock = threading.Lock()
        self._callbacks: list[Callable[[InferenceFuture], None]] = []

    def done(self) -> bool:
        """Whether a result or error has been delivered."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until the request completes; re-raises server-side errors."""
        if not self._event.wait(timeout):
            raise TimeoutError("inference request did not complete in time")
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block until completion; return the server-side error, if any."""
        if not self._event.wait(timeout):
            raise TimeoutError("inference request did not complete in time")
        return self._error

    def add_done_callback(self, callback: Callable[[InferenceFuture], None]) -> None:
        """Invoke ``callback(self)`` once the request completes.

        If the future is already done the callback runs immediately on the
        calling thread; otherwise it runs on the thread that delivers the
        result.  Callback exceptions are logged and swallowed -- a misbehaving
        observer must not corrupt the dispatch worker's batch accounting.
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        self._invoke(callback)

    def _invoke(self, callback: Callable[[InferenceFuture], None]) -> None:
        try:
            callback(self)
        except Exception:
            logging.getLogger(__name__).exception(
                "InferenceFuture done-callback raised"
            )

    def _finish(self) -> None:
        with self._lock:
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self._invoke(callback)

    def _set_result(self, value: np.ndarray) -> None:
        self._result = value
        self._finish()

    def _set_error(self, error: BaseException) -> None:
        self._error = error
        self._finish()


@dataclass
class InferenceRequest:
    """One pending request: a model name, an input batch, and its future.

    ``priority`` and ``deadline_s`` are the optional SLO fields: higher
    priorities dispatch first, and ``deadline_s`` (an *absolute*
    ``time.monotonic()`` instant) marks when the result stops being useful.
    Requests with neither keep the scheduler on its FIFO path.
    """

    model_name: str
    inputs: np.ndarray
    future: InferenceFuture
    enqueued_at: float
    priority: int = 0
    deadline_s: float | None = None
    request_id: int = 0
    #: Distributed-trace handle of a sampled request
    #: (:class:`repro.telemetry.tracing.TraceHandle`; duck-typed here so the
    #: scheduler stays import-free of the telemetry package).  ``None`` for
    #: unsampled requests -- the common case -- and the whole tracing path
    #: is skipped.
    trace: object | None = None

    @property
    def n_samples(self) -> int:
        """Number of samples the request contributes to a batch."""
        return self.inputs.shape[0]

    @property
    def has_slo(self) -> bool:
        """Whether the request carries any SLO hint (priority or deadline)."""
        return self.priority != 0 or self.deadline_s is not None


@dataclass(eq=False)
class FormedBatch:
    """One batch :meth:`RequestQueue.next_batch` popped for a worker.

    ``key`` is the engine key its samples count under while in flight: the
    model name, or the variant a fleet batch was routed to.  ``route`` is
    whatever the placement function returned with the key (the fleet's
    :class:`~repro.serve.fleet.RouteDecision`, else ``None``), and
    ``formed_s`` the instant the batch was popped.  The samples stay in
    :meth:`RequestQueue.backlog_by_model` until :meth:`RequestQueue.release`.
    """

    requests: list[InferenceRequest]
    key: str
    route: object | None
    samples: int
    formed_s: float
    released: bool = False


class RequestQueue:
    """Per-model FIFO queues with batch-forming pop, shared by all submitters.

    Any number of threads may ``submit``; any number of worker threads may
    block in ``next_batch`` at once.  Each pop is one step under the queue
    lock: the placement check, the pop and the in-flight mark, so a batch
    never starts on an engine key that is already at capacity.

    Parameters
    ----------
    latency_estimator:
        Optional ``(model_name, queued_samples) -> seconds`` predictor of a
        batch's execution latency (the server's: :meth:`TelemetryCollector
        .predicted_batch_latency_s
        <repro.telemetry.collector.TelemetryCollector.predicted_batch_latency_s>`
        over the registry's cost tables for the name), subtracted from deadlines when computing slack.  Without one,
        predicted latency is zero and SLO dispatch degenerates to earliest
        deadline first.
    slo_mode:
        When ``False``, priority/deadline hints are ignored for scheduling
        (they are still recorded downstream) and dispatch stays strictly
        FIFO-by-age -- the baseline the SLO benchmarks compare against.
    """

    def __init__(
        self,
        latency_estimator: LatencyEstimator | None = None,
        slo_mode: bool = True,
    ) -> None:
        self._pending: OrderedDict[str, deque[InferenceRequest]] = OrderedDict()
        # Reentrant, so a placement function running inside next_batch may
        # read in_flight_batches() and backlog_by_model().
        self._condition = threading.Condition(threading.RLock())
        self._closed = False
        self._latency_estimator = latency_estimator
        self._slo_mode = slo_mode
        self._slo_pending = 0
        # Engine key -> (batches, samples) popped but not yet released.
        self._in_flight: dict[str, tuple[int, int]] = {}

    def submit(self, request: InferenceRequest) -> None:
        """Enqueue a request and wake the waiting workers."""
        with self._condition:
            if self._closed:
                raise RuntimeError("request queue is closed")
            self._pending.setdefault(request.model_name, deque()).append(request)
            if request.has_slo:
                self._slo_pending += 1
            self._condition.notify_all()

    def close(self) -> None:
        """Refuse new requests; ``next_batch`` drains what remains, then ends."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        with self._condition:
            return self._closed

    def __len__(self) -> int:
        with self._condition:
            return sum(len(q) for q in self._pending.values())

    def in_flight_batches(self, key: str) -> int:
        """Batches popped onto engine key ``key`` and not yet released."""
        with self._condition:
            return self._in_flight.get(key, (0, 0))[0]

    def backlog_by_model(self) -> dict[str, int]:
        """Queued plus in-flight samples per key, for admission and routing.

        Queued samples count under the submitted name, in-flight ones under
        the engine key they were placed on (a routed fleet batch counts
        under its variant).  A consistent snapshot under the queue lock;
        keys with nothing queued or in flight are omitted.  The scan is
        O(pending requests) -- admission control calls this once per
        submit, which stays far below the microsecond budget for realistic
        queue depths.
        """
        with self._condition:
            backlog = {
                name: sum(r.n_samples for r in requests)
                for name, requests in self._pending.items()
            }
            for key, (_batches, samples) in self._in_flight.items():
                backlog[key] = backlog.get(key, 0) + samples
            return backlog

    def release(self, batch: FormedBatch) -> None:
        """Retire a popped batch from the in-flight counts, exactly once.

        Wakes the waiting workers: the batch's engine key may have dropped
        below its capacity.
        """
        with self._condition:
            if batch.released:
                return
            batch.released = True
            batches, samples = self._in_flight[batch.key]
            if batches == 1:
                del self._in_flight[batch.key]
            else:
                self._in_flight[batch.key] = (batches - 1, samples - batch.samples)
            self._condition.notify_all()

    def _batch_preview(
        self, requests: deque[InferenceRequest], policy: BatchingPolicy
    ) -> tuple[int, int, float | None, bool]:
        """Stats of the batch :meth:`_pop_batch` would form right now.

        Returns ``(samples, max priority, min deadline, full)`` over exactly
        the whole-request prefix a dispatch would take, so urgency is judged
        on the requests that would actually ride the batch (a tight deadline
        deeper in the queue cannot boost a batch that will not contain it --
        it counts once earlier batches drain).  The scan is bounded by the
        batch size, not the backlog, keeping deep-queue drains linear.
        ``full`` means dispatching now loses no co-batching: the target is
        reached, or the next whole request would not fit.
        """
        samples = 0
        priority = 0
        min_deadline: float | None = None
        for index, request in enumerate(requests):
            if index and samples + request.n_samples > policy.max_batch_size:
                return samples, priority, min_deadline, True
            samples += request.n_samples
            priority = max(priority, request.priority)
            if request.deadline_s is not None:
                min_deadline = (
                    request.deadline_s
                    if min_deadline is None
                    else min(min_deadline, request.deadline_s)
                )
        return samples, priority, min_deadline, samples >= policy.max_batch_size

    def _predicted_latency(self, name: str, samples: int) -> float:
        if self._latency_estimator is None:
            return 0.0
        # A failing user-supplied estimator must degrade to "no
        # prediction", not kill the worker thread.
        try:
            estimate = self._latency_estimator(name, samples)
        except Exception:
            estimate = None
        return 0.0 if estimate is None else estimate

    def _pick(
        self, policy: BatchingPolicy, place: Placer, now: float
    ) -> tuple[str | None, tuple | None, float | None]:
        """``(model, placement, due_in)``: the batch to pop now, if any.

        Only models ``place`` accepts compete; one at capacity is skipped
        until a release wakes the workers.  A model is *ready* when the
        engine key ``place`` returns for it has no batch in flight, its next
        batch (:meth:`_batch_preview`) is full, its slack -- tightest
        ``deadline - now - predicted batch latency`` within the batch, or
        the remaining co-batching budget when the batch carries no deadline
        -- has run out, or the queue is closed.  Idleness is judged on the
        placed key, not the submitted name: a fleet batch is idle only when
        its routed variant is.  An idle key dispatches at once, because
        whatever arrives while its batch runs joins the next batch anyway;
        the co-batching budget only holds back a batch whose key already
        runs one and still has spare dispatch width (a replica pool with
        ``dispatch_width > 1``).  With nothing to pop, ``due_in`` tells the
        caller how long it may sleep before the earliest placeable model
        comes due (``None``: until woken).

        Once *any* placeable model is ready, a dispatch is going to happen
        -- so the most urgent placeable model wins under
        :func:`most_urgent`, even with a partial batch: delaying it behind a
        less urgent full batch would invert the order, and the engine has
        work either way.  On the FIFO path (no SLO hints pending, or SLO
        mode off) every model ranks in one priority class on its remaining
        budget, so the placeable model whose head request has waited longest
        goes.  On the SLO path the order is highest priority class first,
        then least slack, then oldest head request.

        The one exception is the aging rule
        (:attr:`BatchingPolicy.starvation_limit_s`): a model whose head
        request has waited longer than the starvation limit is promoted into
        the *top pending priority class* (slack order still applies within
        it), so a continuous high-priority stream cannot starve a
        best-effort model forever -- without this, a deadline-free
        priority-0 request would lose the ``-priority`` comparison on every
        single dispatch decision.  A starved deadline-free head's slack is
        its (long exhausted) delay budget, which keeps falling with age, so
        it eventually undercuts any stream of fresh arrivals.
        """
        slo = self._slo_mode and self._slo_pending > 0
        entries, placements = [], {}
        min_due, any_ready = None, False
        for name, requests in self._pending.items():
            samples, priority, min_deadline, full = self._batch_preview(
                requests, policy
            )
            placement = place(name, samples, min_deadline)
            if placement is None:
                continue
            head = requests[0]
            slack = budget_left = policy.max_delay_s - (now - head.enqueued_at)
            if not slo:
                priority = 0
            elif min_deadline is not None:
                slack = min_deadline - now - self._predicted_latency(name, samples)
            due_in = min(budget_left, slack)
            idle = placement[0] not in self._in_flight
            any_ready = any_ready or idle or full or due_in <= 0 or self._closed
            min_due = due_in if min_due is None else min(min_due, due_in)
            placements[name] = placement
            entries.append((name, priority, head.enqueued_at, slack, head.enqueued_at))
        if not any_ready:
            return None, None, min_due
        name = most_urgent(entries, now, policy.starvation_limit_s)
        return name, placements[name], None

    def _pop_batch(
        self, name: str, placement: tuple, policy: BatchingPolicy, now: float
    ) -> FormedBatch:
        requests = self._pending[name]
        batch = [requests.popleft()]
        total = batch[0].n_samples
        while requests and total + requests[0].n_samples <= policy.max_batch_size:
            total += requests[0].n_samples
            batch.append(requests.popleft())
        if not requests:
            del self._pending[name]
        self._slo_pending -= sum(1 for request in batch if request.has_slo)
        key, route = placement
        batches, samples = self._in_flight.get(key, (0, 0))
        self._in_flight[key] = (batches + 1, samples + total)
        return FormedBatch(batch, key, route, total, now)

    def next_batch(self, policy: BatchingPolicy, place: Placer) -> FormedBatch | None:
        """Block until a batch may start; ``None`` once closed and drained.

        ``place(name, samples, deadline_s)`` is called under the queue lock
        for each model competing for this pop, with the stats of the batch
        that model would form; it returns ``(engine_key, route)`` or
        ``None`` when that engine key is at capacity (see :data:`Placer`).
        Once any placeable model is ready -- its key idle, its batch full,
        or its budget or slack spent -- the most urgent placeable model (the
        oldest on the FIFO path; see :meth:`_pick`) is popped, and its
        samples count as in flight under its engine key until
        :meth:`release`.  A closed queue still pending at capacity waits for
        a release; workers get ``None`` only once it is closed and empty.
        """
        with self._condition:
            while True:
                now = time.monotonic()
                name, placement, due_in = self._pick(policy, place, now)
                if name is not None:
                    return self._pop_batch(name, placement, policy, now)
                if self._closed and not self._pending:
                    return None
                self._condition.wait(
                    timeout=None if due_in is None else max(due_in, 0.0)
                )
