"""Admission control: typed accept/shed/downgrade decisions at submit time.

PR 3 taught the scheduler to *order* work by priority and deadline slack, but
under overload every request was still accepted: a doomed request (deadline
already unmeetable given the backlog) would queue, consume engine time, and
delay feasible work behind it.  This module adds the standard serving-systems
discipline -- bounded queues plus early rejection beat unbounded queues at
every utilization level:

* :class:`AdmissionController` evaluates every :meth:`InferenceServer.submit
  <repro.serve.server.InferenceServer.submit>` against the calibrated latency
  predictions (:meth:`TelemetryCollector.predicted_batch_latency_s
  <repro.telemetry.collector.TelemetryCollector.predicted_batch_latency_s>`)
  and the live queue depth, and returns a typed :class:`AdmissionDecision`
  -- ``"accepted"``, ``"shed"`` or ``"downgraded"`` -- carrying the evidence
  (predicted slack, queue depths, overload state) instead of silently
  enqueueing.
* :class:`AdmissionPolicy` sets per-model and per-tenant queue-depth caps,
  predicted inflight-cost caps, the unmeetable-deadline policy (shed, or
  downgrade to best-effort), and the overload state machine thresholds.
* :class:`OverloadState` is that state machine: ``ACCEPTING`` ->
  ``SHED_BEST_EFFORT`` (predicted backlog beyond the overload threshold:
  best-effort requests are rejected outright) -> ``SHED_ALL_BUT_TOP``
  (backlog beyond the critical threshold: only requests at or above the
  configured top priority are admitted), with hysteresis on the way back
  down so the state does not flap at a threshold.

Every decision is pure dictionary lookups and float arithmetic -- O(hosted
models), no locks beyond the controller's own counter lock, and never an
engine call -- so a shed costs microseconds (``benchmarks/bench_admission.py``
pins this).
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Mapping

from repro.serve.scheduler import InferenceFuture, LatencyEstimator

__all__ = [
    "AdmissionController",
    "AdmissionCounters",
    "AdmissionDecision",
    "AdmissionPolicy",
    "OverloadState",
    "RequestShedError",
]

#: ``AdmissionDecision.status`` values.
ACCEPTED = "accepted"
DOWNGRADED = "downgraded"
SHED = "shed"


class OverloadState(enum.Enum):
    """The admission controller's overload state machine.

    States escalate with the *total predicted backlog* (seconds of modeled
    engine work queued or inflight across all models, via the calibrated
    latency predictor) and de-escalate with hysteresis
    (:attr:`AdmissionPolicy.overload_exit_fraction`).
    """

    ACCEPTING = "accepting"
    SHED_BEST_EFFORT = "shed_best_effort"
    SHED_ALL_BUT_TOP = "shed_all_but_top"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs of the admission controller.

    Every cap is optional (``None`` disables it); the default policy only
    sheds requests whose deadline is provably unmeetable, and only once a
    latency prediction exists for their model.

    Caps are evaluated against a point-in-time backlog snapshot and are not
    atomic with the enqueue: N submitter threads racing through admission
    can overshoot a cap by up to N-1 requests (making the check atomic
    would serialise every submit behind one lock).  Caps bound backlog
    growth; they are not an exact invariant under concurrency.

    Parameters
    ----------
    max_queue_samples_per_model:
        Cap on one model's backlog (queued + executing samples).  A
        request that would push the model past the cap is shed.
    max_queue_samples_per_tenant:
        The same cap summed over every model registered to the request's
        tenant (:meth:`ModelRegistry.register
        <repro.serve.registry.ModelRegistry.register>` ``tenant=``).
    max_inflight_cost_s:
        Cap on one model's *predicted* backlog in seconds -- the calibrated
        latency prediction for the model's backlog including the candidate
        request.  Ignored while the model has no prediction.
    max_tenant_inflight_cost_s:
        The predicted-seconds cap summed across the tenant's models.
    deadline_policy:
        What to do with a request whose predicted slack is negative:
        ``"shed"`` rejects it, ``"downgrade"`` strips its SLO fields and
        admits it as best-effort work (unless the overload state is already
        shedding best-effort, in which case it is shed after all).
    slack_margin_s:
        Safety margin subtracted from predicted slack before the
        unmeetable-deadline test, absorbing prediction noise.
    overload_enter_backlog_s:
        Total predicted backlog (seconds, all models) beyond which the state
        machine enters :attr:`OverloadState.SHED_BEST_EFFORT`.
    critical_enter_backlog_s:
        Backlog beyond which it enters :attr:`OverloadState.SHED_ALL_BUT_TOP`.
    overload_exit_fraction:
        Hysteresis: a state is left only once the backlog drops below
        ``fraction * its entry threshold``, so the state cannot flap across
        a threshold on every submit.
    critical_priority:
        Minimum request priority still admitted in
        :attr:`OverloadState.SHED_ALL_BUT_TOP`.
    """

    max_queue_samples_per_model: int | None = None
    max_queue_samples_per_tenant: int | None = None
    max_inflight_cost_s: float | None = None
    max_tenant_inflight_cost_s: float | None = None
    deadline_policy: str = "shed"
    slack_margin_s: float = 0.0
    overload_enter_backlog_s: float | None = None
    critical_enter_backlog_s: float | None = None
    overload_exit_fraction: float = 0.5
    critical_priority: int = 1

    def __post_init__(self) -> None:
        for name in (
            "max_queue_samples_per_model",
            "max_queue_samples_per_tenant",
            "max_inflight_cost_s",
            "max_tenant_inflight_cost_s",
            "overload_enter_backlog_s",
            "critical_enter_backlog_s",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set")
        if self.deadline_policy not in ("shed", "downgrade"):
            raise ValueError("deadline_policy must be 'shed' or 'downgrade'")
        if self.slack_margin_s < 0:
            raise ValueError("slack_margin_s must be non-negative")
        if not 0.0 < self.overload_exit_fraction <= 1.0:
            raise ValueError("overload_exit_fraction must be in (0, 1]")
        if (
            self.overload_enter_backlog_s is not None
            and self.critical_enter_backlog_s is not None
            and self.critical_enter_backlog_s < self.overload_enter_backlog_s
        ):
            raise ValueError(
                "critical_enter_backlog_s must be >= overload_enter_backlog_s"
            )


@dataclass
class AdmissionDecision:
    """The typed outcome of one :meth:`InferenceServer.submit` call.

    ``status`` is one of ``"accepted"``, ``"downgraded"`` (admitted, but with
    its priority and deadline stripped) or ``"shed"`` (rejected: no work was
    enqueued and :attr:`future` is ``None``).  The remaining fields are the
    evidence the decision rests on: queue depths at decision time, the
    calibrated latency prediction, the resulting deadline slack, and the
    overload state.

    The decision is also a drop-in result handle: :meth:`result` and
    :meth:`done` forward to the underlying
    :class:`~repro.serve.scheduler.InferenceFuture`, so
    ``server.submit(...).result()`` keeps working -- a shed request raises
    :class:`RequestShedError` instead of blocking forever.
    """

    status: str
    request_id: int
    model_name: str
    tenant: str
    reason: str
    overload_state: OverloadState
    queue_depth_samples: int | None = None
    tenant_depth_samples: int | None = None
    predicted_latency_s: float | None = None
    predicted_slack_s: float | None = None
    future: InferenceFuture | None = None
    #: Distributed-trace id of a sampled request (set by the server when a
    #: tracer is attached); the gateway echoes it in ``/v1/infer`` replies
    #: so clients can look their request up in the flight recorder.
    trace_id: str | None = None

    @property
    def accepted(self) -> bool:
        """Whether the request was enqueued (``accepted`` or ``downgraded``)."""
        return self.status != SHED

    def done(self) -> bool:
        """Whether a result (or the shed rejection) is already available."""
        return True if self.future is None else self.future.done()

    def result(self, timeout: float | None = None):
        """The request's output array; raises :class:`RequestShedError` if shed."""
        if self.future is None:
            raise self.shed_error()
        return self.future.result(timeout)

    def shed_error(self) -> RequestShedError:
        """The rejection this decision stands for, ready to raise.

        Shared by the sync :meth:`result` path and the asyncio facade
        (:class:`~repro.serve.aio.AsyncAdmissionDecision`), so both surface
        the identical exception object shape for a shed request.
        """
        return RequestShedError(self)

    def as_dict(self) -> dict:
        """JSON-ready representation (without the live future handle)."""
        return {
            "status": self.status,
            "request_id": self.request_id,
            "model": self.model_name,
            "tenant": self.tenant,
            "reason": self.reason,
            "overload_state": self.overload_state.value,
            "queue_depth_samples": self.queue_depth_samples,
            "tenant_depth_samples": self.tenant_depth_samples,
            "predicted_latency_s": self.predicted_latency_s,
            "predicted_slack_s": self.predicted_slack_s,
            "trace_id": self.trace_id,
        }


class RequestShedError(RuntimeError):
    """Raised when the result of a shed request is demanded."""

    def __init__(self, decision: AdmissionDecision):
        self.decision = decision
        super().__init__(
            f"request {decision.request_id} for model "
            f"{decision.model_name!r} was shed: {decision.reason}"
        )


@dataclass
class AdmissionCounters:
    """Cumulative controller-level decision counts (snapshot, not live)."""

    accepted: int = 0
    downgraded: int = 0
    shed: int = 0
    state_transitions: int = 0

    @property
    def decisions(self) -> int:
        """Total decisions taken."""
        return self.accepted + self.downgraded + self.shed


class AdmissionController:
    """Computes accept/shed/downgrade decisions for an inference server.

    Thread-safe: any number of submitter threads may call :meth:`decide`
    concurrently (the state machine and counters sit behind one lock; the
    arithmetic is lock-free).  One controller guards one server -- its
    overload state reflects that server's backlog.

    Parameters
    ----------
    policy:
        Caps and thresholds; defaults to :class:`AdmissionPolicy`'s
        deadline-only shedding.
    latency_predictor:
        Optional ``(model_name, n_samples) -> seconds | None`` override.
        When ``None`` the server wires in its telemetry collector's
        calibrated :meth:`predicted_batch_latency_s
        <repro.telemetry.collector.TelemetryCollector.predicted_batch_latency_s>`
        *with the observed queue-wait EMA folded in*
        (``include_queue_wait=True``), so every rule below prices
        cross-model worker contention -- time this model's batches spend
        queued behind co-hosted tenants' -- on top of the modeled execution
        time.  Without any predictor, deadline and inflight-cost rules are
        inert (nothing can be *proven* unmeetable) and only the sample-count
        caps apply.
    """

    def __init__(
        self,
        policy: AdmissionPolicy | None = None,
        latency_predictor: LatencyEstimator | None = None,
    ):
        self.policy = policy or AdmissionPolicy()
        self.latency_predictor = latency_predictor
        self._state = OverloadState.ACCEPTING
        self._counters = AdmissionCounters()
        self._lock = threading.Lock()

    @property
    def state(self) -> OverloadState:
        """The current overload state."""
        with self._lock:
            return self._state

    def counters(self) -> AdmissionCounters:
        """A snapshot of the cumulative decision counters."""
        with self._lock:
            return AdmissionCounters(**vars(self._counters))

    # -- the decision ----------------------------------------------------------

    def decide(
        self,
        request_id: int,
        model_name: str,
        tenant: str,
        n_samples: int,
        priority: int,
        deadline_s: float | None,
        backlog_samples: Mapping[str, int],
        tenants: Mapping[str, str],
        predictor: LatencyEstimator | None = None,
        replica_counts: Mapping[str, int] | None = None,
    ) -> AdmissionDecision:
        """Evaluate one candidate request against backlog and policy.

        ``replica_counts`` maps model names to their healthy replica count
        (the server passes each pool's ``dispatch_width``); predictions for
        those models are divided by it, because a backlog spread over N
        replicas drains ~N times faster than the per-engine calibration
        assumes.  The scaling applies uniformly -- deadline test, inflight
        cost caps, tenant cost and the overload state machine -- so every
        rule sees the same effective drain rate.  Missing names default
        to 1 (a single engine).

        ``deadline_s`` is *relative* (seconds from now, as passed to
        ``submit``); ``backlog_samples`` maps every model to its queued plus
        executing samples, and ``tenants`` maps model names
        to tenant labels.  Rules apply in order:

        1. overload state (critical sheds below ``critical_priority``,
           overload sheds best-effort work),
        2. queue-depth caps (per model, then per tenant),
        3. predicted inflight-cost caps (per model, then per tenant),
        4. the unmeetable-deadline test: predicted completion is the
           calibrated latency of the model's backlog *including* this
           request (per-model execution serialises, so that is the expected
           finish time); negative slack sheds or downgrades per policy.

        The returned decision carries no future yet -- the server attaches
        one if it enqueues the request.
        """
        policy = self.policy
        predictor = self.latency_predictor or predictor
        # One prediction per (model, samples) per decision: the candidate
        # check, the tenant-cost cap and the state machine all share this
        # memo, so a decision costs O(hosted models) predictor calls total
        # (each takes the telemetry collector's lock) instead of ~2x that.
        memo: dict[tuple[str, int], float | None] = {}

        def predict(name: str, samples: int) -> float | None:
            key = (name, samples)
            if key not in memo:
                value = self._predict(predictor, name, samples)
                if value is not None and replica_counts:
                    value /= max(1, replica_counts.get(name, 1))
                memo[key] = value
            return memo[key]

        model_depth = backlog_samples.get(model_name, 0)
        tenant_depth = 0
        for name, samples in backlog_samples.items():
            if tenants.get(name, name) == tenant:
                tenant_depth += samples
        predicted = predict(model_name, model_depth + n_samples)
        slack = None
        if deadline_s is not None and predicted is not None:
            slack = deadline_s - predicted - policy.slack_margin_s
        state = self._update_state(backlog_samples, predict)

        def decision(status: str, reason: str) -> AdmissionDecision:
            self._count(status)
            return AdmissionDecision(
                status=status,
                request_id=request_id,
                model_name=model_name,
                tenant=tenant,
                reason=reason,
                overload_state=state,
                queue_depth_samples=model_depth,
                tenant_depth_samples=tenant_depth,
                predicted_latency_s=predicted,
                predicted_slack_s=slack,
            )

        best_effort = priority <= 0 and deadline_s is None
        if (
            state is OverloadState.SHED_ALL_BUT_TOP
            and priority < policy.critical_priority
        ):
            return decision(
                SHED,
                f"overload critical: only priority >= "
                f"{policy.critical_priority} admitted (got {priority})",
            )
        if state is OverloadState.SHED_BEST_EFFORT and best_effort:
            return decision(
                SHED, "overload: shedding best-effort (no priority, no deadline)"
            )
        cap = policy.max_queue_samples_per_model
        if cap is not None and model_depth + n_samples > cap:
            return decision(
                SHED,
                f"model queue depth cap: {model_depth} queued + "
                f"{n_samples} requested > {cap}",
            )
        cap = policy.max_queue_samples_per_tenant
        if cap is not None and tenant_depth + n_samples > cap:
            return decision(
                SHED,
                f"tenant queue depth cap: {tenant_depth} queued + "
                f"{n_samples} requested > {cap}",
            )
        if policy.max_inflight_cost_s is not None and predicted is not None:
            if predicted > policy.max_inflight_cost_s:
                return decision(
                    SHED,
                    f"model inflight cost cap: predicted {predicted:.4f}s "
                    f"> {policy.max_inflight_cost_s:.4f}s",
                )
        if policy.max_tenant_inflight_cost_s is not None and predictor is not None:
            tenant_cost = self._tenant_cost(
                predict, tenant, backlog_samples, tenants, model_name, n_samples
            )
            if (
                tenant_cost is not None
                and tenant_cost > policy.max_tenant_inflight_cost_s
            ):
                return decision(
                    SHED,
                    f"tenant inflight cost cap: predicted {tenant_cost:.4f}s "
                    f"> {policy.max_tenant_inflight_cost_s:.4f}s",
                )
        if slack is not None and slack < 0.0:
            if policy.deadline_policy == "downgrade":
                if state is OverloadState.ACCEPTING:
                    return decision(
                        DOWNGRADED,
                        f"deadline unmeetable (predicted slack {slack:.4f}s); "
                        "downgraded to best-effort",
                    )
                return decision(
                    SHED,
                    f"deadline unmeetable (predicted slack {slack:.4f}s) and "
                    "overload is shedding best-effort",
                )
            return decision(
                SHED,
                f"deadline unmeetable: predicted slack {slack:.4f}s < 0 "
                f"(deadline {deadline_s:.4f}s, predicted {predicted:.4f}s)",
            )
        return decision(ACCEPTED, "within caps and predicted slack")

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _predict(
        predictor: LatencyEstimator | None, model_name: str, n_samples: int
    ) -> float | None:
        """One guarded predictor call (a failing estimator must not shed)."""
        if predictor is None or n_samples <= 0:
            return None
        try:
            return predictor(model_name, n_samples)
        except Exception:
            return None

    @staticmethod
    def _tenant_cost(
        predict: LatencyEstimator,
        tenant: str,
        backlog_samples: Mapping[str, int],
        tenants: Mapping[str, str],
        model_name: str,
        n_samples: int,
    ) -> float | None:
        """Predicted seconds of backlog across the tenant's models.

        ``predict`` is the caller's memoised per-decision predictor.
        """
        extra = {model_name: n_samples}
        total, any_prediction = 0.0, False
        names = set(backlog_samples) | {model_name}
        for name in names:
            if tenants.get(name, name) != tenant:
                continue
            samples = backlog_samples.get(name, 0) + extra.get(name, 0)
            predicted = predict(name, samples)
            if predicted is not None:
                total += predicted
                any_prediction = True
        return total if any_prediction else None

    def _update_state(
        self,
        backlog_samples: Mapping[str, int],
        predict: LatencyEstimator,
    ) -> OverloadState:
        """Advance the overload state machine from the current backlog.

        ``predict`` is the caller's memoised per-decision predictor.
        """
        policy = self.policy
        if (
            policy.overload_enter_backlog_s is None
            and policy.critical_enter_backlog_s is None
        ):
            return OverloadState.ACCEPTING
        backlog_s = 0.0
        for name, samples in backlog_samples.items():
            predicted = predict(name, samples)
            if predicted is not None:
                backlog_s += predicted
        with self._lock:
            state = self._state
            enter_overload = policy.overload_enter_backlog_s
            enter_critical = policy.critical_enter_backlog_s
            exit_fraction = policy.overload_exit_fraction
            if enter_critical is not None and backlog_s >= enter_critical:
                state = OverloadState.SHED_ALL_BUT_TOP
            elif state is OverloadState.SHED_ALL_BUT_TOP:
                # De-escalate only once safely below the critical threshold,
                # and land in SHED_BEST_EFFORT while the backlog still sits
                # above the overload state's own exit level.
                if enter_critical is None or backlog_s < exit_fraction * enter_critical:
                    state = (
                        OverloadState.SHED_BEST_EFFORT
                        if enter_overload is not None
                        and backlog_s >= exit_fraction * enter_overload
                        else OverloadState.ACCEPTING
                    )
            if state in (OverloadState.ACCEPTING, OverloadState.SHED_BEST_EFFORT):
                if enter_overload is not None and backlog_s >= enter_overload:
                    state = OverloadState.SHED_BEST_EFFORT
                elif state is OverloadState.SHED_BEST_EFFORT and (
                    enter_overload is None
                    or backlog_s < exit_fraction * enter_overload
                ):
                    state = OverloadState.ACCEPTING
            if state is not self._state:
                self._counters.state_transitions += 1
                self._state = state
            return state

    def _count(self, status: str) -> None:
        with self._lock:
            if status == ACCEPTED:
                self._counters.accepted += 1
            elif status == DOWNGRADED:
                self._counters.downgraded += 1
            else:
                self._counters.shed += 1

    def retract(self, decision: AdmissionDecision) -> None:
        """Undo one decision's counter after its request failed to enqueue.

        The server calls this when ``stop()`` closes the queue between the
        admission decision and the enqueue: the request never entered the
        system, so it must not appear in the decision counters.  The
        overload state is left alone -- it is recomputed from the live
        backlog on the next decision.
        """
        with self._lock:
            if decision.status == ACCEPTED:
                self._counters.accepted -= 1
            elif decision.status == DOWNGRADED:
                self._counters.downgraded -= 1
            else:
                self._counters.shed -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counters = self.counters()
        return (
            f"AdmissionController(state={self.state.value!r}, "
            f"accepted={counters.accepted}, downgraded={counters.downgraded}, "
            f"shed={counters.shed})"
        )
