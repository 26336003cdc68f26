"""Thread-safe serve-time telemetry: request traces and rolling aggregates.

:class:`TelemetryCollector` is the account book of the serving stack.  The
:class:`~repro.serve.server.InferenceServer` feeds it one
:meth:`~TelemetryCollector.record_batch` call per completed coalesced batch:
the batch's requests (each becomes a :class:`RequestTrace`: queue wait,
coalesced batch size, engine wall time, modeled energy/latency derived from
the model's :class:`~repro.telemetry.cost.CostModel`), its engine-run
records, its replica pool's health and its fleet route, all merged under
one lock acquisition.  Engine-run records come from ``run_timed``
(:meth:`NetworkEngine.run_timed <repro.runtime.engine.NetworkEngine.run_timed>`
or :meth:`ReplicaPool.run_timed <repro.runtime.procpool.ReplicaPool.run_timed>`);
code that drives an engine outside the server feeds them through the same
call as a batch with no requests.  Everything is exportable as JSON
(:meth:`export_json`) and Prometheus text format (:meth:`to_prometheus`).

Queue wait has one definition everywhere: enqueue to batch formation (the
``queue_wait`` span of :mod:`repro.telemetry.tracing`).  Formation to
dispatch is the ``dispatch_wait`` span only.

Each hosted model name is a tenant, so the per-model aggregates double as the
per-tenant accounting the multi-tenant registry needs.

The collector also bridges *modeled* time to *wall* time: the cost model
predicts batch latency in simulated-hardware microseconds, while deadlines at
the serving layer live on the wall clock of this NumPy simulator.  An
exponential moving average of ``observed engine seconds / modeled batch
seconds`` per model calibrates :meth:`predicted_batch_latency_s`, which the
SLO-aware scheduler subtracts from request deadlines to compute slack.  The
collector keeps only that calibration state (plus a queue-wait EMA); it holds
no cost tables.  Callers pass the model's
:class:`~repro.telemetry.cost.CostModel` -- the one the
:class:`~repro.serve.registry.ModelRegistry` serves -- to
:meth:`record_batch` and :meth:`predicted_batch_latency_s`.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.telemetry.cost import CostModel

__all__ = [
    "FleetAggregate",
    "LatencyHistogram",
    "RequestTrace",
    "ModelAggregate",
    "TelemetryCollector",
]

#: EMA smoothing for the wall-time-per-modeled-time calibration factor.
_CALIBRATION_ALPHA = 0.2

#: Default log-bucketed histogram bounds: powers of two from ~1 microsecond
#: (2**-20 s) to 64 seconds.  27 buckets span six decades of latency with a
#: constant ~41% relative resolution, which is what makes p99 readings
#: meaningful from microsecond queue waits to multi-second engine runs.
_DEFAULT_BOUNDS = tuple(2.0**exponent for exponent in range(-20, 7))


class LatencyHistogram:
    """A log-bucketed latency histogram with quantile estimation.

    Buckets follow the Prometheus convention: bucket ``i`` counts
    observations ``<= bounds[i]``, plus one implicit ``+Inf`` bucket, so
    :meth:`cumulative_counts` maps one-to-one onto ``_bucket{le=...}``
    samples.  Not thread-safe on its own -- the owning
    :class:`TelemetryCollector` serialises access under its lock.
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: tuple[float, ...] = _DEFAULT_BOUNDS):
        if not bounds or any(b <= 0 for b in bounds):
            raise ValueError("histogram bounds must be positive")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # last slot = +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation (negative values clamp into the first bucket)."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def cumulative_counts(self) -> list[int]:
        """Cumulative counts per bound plus the final ``+Inf`` bucket."""
        cumulative, running = [], 0
        for count in self.counts:
            running += count
            cumulative.append(running)
        return cumulative

    def quantile(self, p: float) -> float | None:
        """Estimated ``p``-quantile via linear interpolation within a bucket.

        Mirrors PromQL's ``histogram_quantile``: the target rank is located
        in the cumulative distribution and interpolated between the bucket's
        bounds (the first bucket interpolates from zero; ranks landing in
        the ``+Inf`` bucket return the highest finite bound).  ``None``
        before any observation.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError("quantile p must be within [0, 1]")
        if self.count == 0:
            return None
        rank = p * self.count
        cumulative_before = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative = cumulative_before + bucket_count
            if cumulative >= rank and bucket_count > 0:
                if index >= len(self.bounds):  # +Inf bucket
                    return self.bounds[-1]
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                fraction = (rank - cumulative_before) / bucket_count
                return lower + (upper - lower) * max(0.0, min(1.0, fraction))
            cumulative_before = cumulative
        return self.bounds[-1]  # pragma: no cover - rank <= count always hits

    def as_dict(self) -> dict:
        """JSON-ready summary: count, sum and headline quantiles."""
        return {
            "count": self.count,
            "sum_s": self.sum,
            "p50_s": self.quantile(0.50),
            "p90_s": self.quantile(0.90),
            "p99_s": self.quantile(0.99),
        }

    def snapshot(self) -> "LatencyHistogram":
        """An independent copy (the collector hands these out under lock)."""
        copy = LatencyHistogram(self.bounds)
        copy.counts = list(self.counts)
        copy.count = self.count
        copy.sum = self.sum
        return copy


@dataclass(frozen=True, slots=True)
class RequestTrace:
    """The full serving record of one completed request.

    Timestamps are ``time.monotonic()`` values: ``formed_at`` is the instant
    a worker formed the request's batch, so :attr:`queue_wait_s` is enqueue
    to batch formation.  ``engine_time_s`` is the wall time of the *whole
    coalesced batch* the request rode in (use :attr:`engine_share_s` for a
    per-request attribution).

    The modeled figures are derived from ``cost`` (the model's
    :class:`~repro.telemetry.cost.CostModel`, ``None`` when the model has no
    cost tables) and the sample counts, since modeled energy is linear in
    the sample count: :attr:`modeled_energy_pj` is the accelerator energy
    of the request's own samples, :attr:`modeled_energy_components_pj` its
    DAC/ADC/crossbar/digital split (:meth:`CostModel.energy_split_pj
    <repro.telemetry.cost.CostModel.energy_split_pj>`), and
    :attr:`modeled_latency_us` its sample-weighted share of the batch's
    modeled latency (the pipeline fill is paid once per batch, so
    per-request shares sum to the batch total).

    ``trace_id`` / ``spans`` tie the record to the distributed trace of the
    same request (:mod:`repro.telemetry.tracing`): ``spans`` holds the
    JSON-ready span dicts (:meth:`SpanRecord.as_dict
    <repro.telemetry.tracing.SpanRecord.as_dict>`), so ``export_json``
    consumers see the same per-stage timings the flight recorder dumps.
    Both stay empty for unsampled requests or servers without a tracer.
    """

    request_id: int
    model_name: str
    n_samples: int
    priority: int
    deadline_s: float | None
    enqueued_at: float
    formed_at: float
    completed_at: float
    batch_size: int
    engine_time_s: float
    cost: CostModel | None = field(default=None, repr=False)
    trace_id: str | None = None
    spans: tuple[dict, ...] = ()

    @property
    def queue_wait_s(self) -> float:
        """Time the request waited before a worker formed its batch."""
        return self.formed_at - self.enqueued_at

    @property
    def modeled_energy_pj(self) -> float | None:
        """Modeled accelerator energy of the request's samples (pJ)."""
        return None if self.cost is None else self.cost.energy_pj(self.n_samples)

    @property
    def modeled_energy_components_pj(self) -> dict[str, float] | None:
        """Per-component split of :attr:`modeled_energy_pj` (pJ)."""
        if self.cost is None:
            return None
        return self.cost.energy_split_pj(self.n_samples)

    @property
    def modeled_latency_us(self) -> float | None:
        """The request's sample-weighted share of its batch's modeled latency."""
        if self.cost is None:
            return None
        batch_us = self.cost.batch_latency_us(self.batch_size)
        return batch_us * self.n_samples / self.batch_size

    @property
    def latency_s(self) -> float:
        """End-to-end serving latency (enqueue to completion)."""
        return self.completed_at - self.enqueued_at

    @property
    def engine_share_s(self) -> float:
        """The request's sample-weighted share of its batch's engine time."""
        if self.batch_size <= 0:
            return 0.0
        return self.engine_time_s * self.n_samples / self.batch_size

    @property
    def deadline_missed(self) -> bool:
        """Whether the request completed after its deadline (False if none)."""
        return self.deadline_s is not None and self.completed_at > self.deadline_s

    def as_dict(self) -> dict:
        """JSON-ready representation including the derived fields."""
        return {
            "request_id": self.request_id,
            "model": self.model_name,
            "n_samples": self.n_samples,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "queue_wait_s": self.queue_wait_s,
            "latency_s": self.latency_s,
            "batch_size": self.batch_size,
            "engine_time_s": self.engine_time_s,
            "engine_share_s": self.engine_share_s,
            "modeled_energy_pj": self.modeled_energy_pj,
            "modeled_energy_components_pj": self.modeled_energy_components_pj,
            "modeled_latency_us": self.modeled_latency_us,
            "deadline_missed": self.deadline_missed,
            "trace_id": self.trace_id,
            "spans": [dict(span) for span in self.spans],
        }


@dataclass
class ModelAggregate:
    """Rolling per-model (= per-tenant) serving totals.

    ``admitted_requests`` / ``downgraded_requests`` / ``shed_requests`` count
    admission-control outcomes (recorded at *submit* time, so they lead the
    completion counters); ``modeled_energy_components_pj`` accumulates the
    per-request DAC/ADC/crossbar/digital attribution.

    Models hosted on a :class:`~repro.runtime.ReplicaPool` additionally
    report replica health: ``replicas_healthy`` / ``replicas_total`` are the
    latest pool snapshot, ``worker_restarts`` the pool's lifetime restart
    total, and ``replica_engine_runs`` maps each replica label to its own
    ``{"runs", "samples", "seconds"}`` engine-run totals (all zero/empty for
    single-engine models).
    """

    model_name: str
    requests: int = 0
    samples: int = 0
    queue_wait_s: float = 0.0
    engine_share_s: float = 0.0
    modeled_energy_pj: float = 0.0
    modeled_latency_us: float = 0.0
    modeled_energy_components_pj: dict[str, float] = field(default_factory=dict)
    max_batch_size: int = 0
    deadline_requests: int = 0
    deadline_misses: int = 0
    engine_runs: int = 0
    engine_run_samples: int = 0
    engine_run_s: float = 0.0
    admitted_requests: int = 0
    downgraded_requests: int = 0
    shed_requests: int = 0
    worker_restarts: int = 0
    replicas_healthy: int = 0
    replicas_total: int = 0
    replica_engine_runs: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def mean_queue_wait_s(self) -> float:
        """Average wait per request, enqueue to batch formation."""
        return self.queue_wait_s / self.requests if self.requests else 0.0

    @property
    def modeled_energy_uj(self) -> float:
        """Total modeled energy attributed to this model (uJ)."""
        return self.modeled_energy_pj / 1e6

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of deadline-carrying requests that missed."""
        if self.deadline_requests == 0:
            return 0.0
        return self.deadline_misses / self.deadline_requests

    def as_dict(self) -> dict:
        """JSON-ready representation including the derived fields."""
        return {
            "model": self.model_name,
            "requests": self.requests,
            "samples": self.samples,
            "queue_wait_s": self.queue_wait_s,
            "mean_queue_wait_s": self.mean_queue_wait_s,
            "engine_share_s": self.engine_share_s,
            "modeled_energy_pj": self.modeled_energy_pj,
            "modeled_energy_uj": self.modeled_energy_uj,
            "modeled_energy_components_pj": dict(self.modeled_energy_components_pj),
            "modeled_latency_us": self.modeled_latency_us,
            "max_batch_size": self.max_batch_size,
            "deadline_requests": self.deadline_requests,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": self.deadline_miss_rate,
            "engine_runs": self.engine_runs,
            "engine_run_samples": self.engine_run_samples,
            "engine_run_s": self.engine_run_s,
            "admitted_requests": self.admitted_requests,
            "downgraded_requests": self.downgraded_requests,
            "shed_requests": self.shed_requests,
            "worker_restarts": self.worker_restarts,
            "replicas_healthy": self.replicas_healthy,
            "replicas_total": self.replicas_total,
            "replica_engine_runs": {
                replica: dict(totals)
                for replica, totals in self.replica_engine_runs.items()
            },
        }


@dataclass
class FleetAggregate:
    """Cumulative routing totals for one heterogeneous fleet.

    Fed by the server's :class:`~repro.serve.fleet.FleetRouter` decisions
    (duck-typed ``RouteDecision`` objects -- the serve layer imports
    telemetry, not the other way around).  ``batches_routed`` /
    ``samples_routed`` count decisions at batch formation;
    ``executed_batches_by_variant`` / ``executed_samples_by_variant`` count
    where batches actually ran (they differ from ``decisions_by_variant``
    only when a variant was unregistered mid-flight and its batches were
    re-routed -- counted in ``reroutes``).

    The energy figures compare the chosen placements against the
    always-fastest baseline variant of each decision: ``predicted_*`` sums
    decision-time modeled energy, ``realised_*`` sums the same figures for
    the placement that finally executed, so predicted-vs-realised savings
    diverge exactly when re-routing (or a baseline shift) moved work after
    the decision.
    """

    fleet: str
    batches_routed: int = 0
    samples_routed: int = 0
    reroutes: int = 0
    decisions_by_variant: dict[str, int] = field(default_factory=dict)
    executed_batches_by_variant: dict[str, int] = field(default_factory=dict)
    executed_samples_by_variant: dict[str, int] = field(default_factory=dict)
    predicted_energy_pj: float = 0.0
    predicted_baseline_pj: float = 0.0
    realised_energy_pj: float = 0.0
    realised_baseline_pj: float = 0.0

    @property
    def predicted_saved_pj(self) -> float:
        """Decision-time modeled energy saved vs always-fastest placement."""
        return self.predicted_baseline_pj - self.predicted_energy_pj

    @property
    def realised_saved_pj(self) -> float:
        """Modeled energy saved by the placements that actually executed."""
        return self.realised_baseline_pj - self.realised_energy_pj

    @property
    def realised_saved_fraction(self) -> float:
        """Realised savings as a fraction of the always-fastest baseline."""
        if self.realised_baseline_pj <= 0.0:
            return 0.0
        return self.realised_saved_pj / self.realised_baseline_pj

    def as_dict(self) -> dict:
        """JSON-ready representation including the derived fields."""
        return {
            "fleet": self.fleet,
            "batches_routed": self.batches_routed,
            "samples_routed": self.samples_routed,
            "reroutes": self.reroutes,
            "decisions_by_variant": dict(self.decisions_by_variant),
            "executed_batches_by_variant": dict(self.executed_batches_by_variant),
            "executed_samples_by_variant": dict(self.executed_samples_by_variant),
            "predicted_energy_pj": self.predicted_energy_pj,
            "predicted_baseline_pj": self.predicted_baseline_pj,
            "predicted_saved_pj": self.predicted_saved_pj,
            "realised_energy_pj": self.realised_energy_pj,
            "realised_baseline_pj": self.realised_baseline_pj,
            "realised_saved_pj": self.realised_saved_pj,
            "realised_saved_fraction": self.realised_saved_fraction,
        }


#: (metric suffix, help text, ModelAggregate attribute) for the text export.
#: Content-Type a scrape endpoint must declare when serving
#: :meth:`TelemetryCollector.to_prometheus` output (the Prometheus text
#: exposition format, version 0.0.4 -- what prometheus scrapers negotiate).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_PROMETHEUS_GAUGES = (
    ("requests_total", "Completed requests per model.", "requests"),
    ("samples_total", "Input samples served per model.", "samples"),
    ("queue_wait_seconds_total", "Cumulative wait for batching.", "queue_wait_s"),
    (
        "engine_seconds_total",
        "Cumulative attributed engine wall time.",
        "engine_share_s",
    ),
    (
        "modeled_energy_picojoules_total",
        "Cumulative modeled accelerator energy.",
        "modeled_energy_pj",
    ),
    (
        "deadline_requests_total",
        "Requests that carried a deadline.",
        "deadline_requests",
    ),
    (
        "deadline_misses_total",
        "Requests completed after their deadline.",
        "deadline_misses",
    ),
    ("engine_runs_total", "Engine batch executions observed.", "engine_runs"),
    (
        "admission_admitted_total",
        "Requests admitted by admission control.",
        "admitted_requests",
    ),
    (
        "admission_downgraded_total",
        "Requests downgraded to best-effort at admission.",
        "downgraded_requests",
    ),
    ("admission_shed_total", "Requests shed by admission control.", "shed_requests"),
    (
        "worker_restarts_total",
        "Replica worker processes restarted after a crash.",
        "worker_restarts",
    ),
)

#: (metric suffix, help text, histogram key) for the text export.  Each is a
#: per-model Prometheus *histogram* family: ``<name>_bucket{le=...}`` with a
#: ``+Inf`` bucket, plus ``<name>_sum`` / ``<name>_count``.
_PROMETHEUS_HISTOGRAMS = (
    (
        "request_latency_seconds",
        "End-to-end request latency (enqueue to completion).",
        "latency",
    ),
    (
        "request_queue_wait_seconds",
        "Time requests waited before a worker formed their batch.",
        "queue_wait",
    ),
    (
        "engine_run_seconds",
        "Engine wall time per coalesced batch execution.",
        "engine",
    ),
)

#: Valid ``metric`` arguments of :meth:`TelemetryCollector.quantile`.
_HISTOGRAM_KEYS = tuple(key for _suffix, _help, key in _PROMETHEUS_HISTOGRAMS)

#: Overload state string -> numeric gauge level for the Prometheus export.
#: Lists the states of repro.serve.admission.OverloadState in escalation
#: order (the serve layer imports telemetry, so telemetry cannot import the
#: enum back).
_OVERLOAD_SEVERITY = {
    "accepting": 0,
    "shed_best_effort": 1,
    "shed_all_but_top": 2,
}


class TelemetryCollector:
    """Thread-safe request traces, per-model aggregates and exports.

    Parameters
    ----------
    max_traces:
        Size of the rolling per-request trace window (aggregates are
        cumulative and unaffected by trace eviction).
    """

    def __init__(self, max_traces: int = 1024):
        if max_traces < 1:
            raise ValueError("max_traces must be positive")
        self._traces: deque[RequestTrace] = deque(maxlen=max_traces)
        self._aggregates: dict[str, ModelAggregate] = {}
        self._fleets: dict[str, FleetAggregate] = {}
        # Per-(model, metric) log-bucketed histograms; metric is one of
        # _HISTOGRAM_KEYS ("latency"/"queue_wait" per request, "engine" per
        # engine-run record; all fed by record_batch()).
        self._histograms: dict[tuple[str, str], LatencyHistogram] = {}
        self._wall_per_modeled: dict[str, float] = {}
        # Per-model queue-wait EMA (seconds, enqueue to batch formation),
        # updated from every completed request.  This is the cross-model contention signal:
        # co-hosted tenants inflate each other's queue waits even when their
        # own backlog is empty, and admission opts into seeing that via
        # ``predicted_batch_latency_s(..., include_queue_wait=True)``.
        self._queue_wait_ema: dict[str, float] = {}
        # Latest admission-control overload state string (None until a
        # decision is recorded); see repro.serve.admission.OverloadState.
        self._overload_state: str | None = None
        self._lock = threading.Lock()

    # -- prediction ------------------------------------------------------------

    def predicted_batch_latency_s(
        self,
        model_name: str,
        n_samples: int,
        cost: CostModel | None,
        include_queue_wait: bool = False,
    ) -> float | None:
        """Predicted wall-clock latency of a batch, for SLO slack computation.

        Starts from ``cost``'s modeled batch latency (the model's tables, as
        the registry serves them) and scales it by the observed
        wall-per-modeled calibration EMA once engine runs have been recorded.
        ``None`` when the model has no cost tables (the scheduler then
        treats predicted latency as zero).

        ``include_queue_wait=True`` adds the model's observed queue-wait EMA
        (0.0 before any trace) on top: the admission controller uses
        this variant so its deadline feasibility check prices *cross-model
        worker contention* -- time batches of co-hosted tenants spend ahead
        of this model's -- not just the modeled execution time.  The
        scheduler's own slack estimator deliberately does **not** opt in
        (a queued request's remaining wait is already measured directly;
        adding the EMA there would double-count it).
        """
        if cost is None:
            return None
        with self._lock:
            scale = self._wall_per_modeled.get(model_name, 1.0)
            queue_wait = (
                self._queue_wait_ema.get(model_name, 0.0)
                if include_queue_wait
                else 0.0
            )
        return cost.batch_latency_s(n_samples) * scale + queue_wait

    # -- recording -------------------------------------------------------------

    def _aggregate_locked(self, model_name: str) -> ModelAggregate:
        aggregate = self._aggregates.get(model_name)
        if aggregate is None:
            aggregate = self._aggregates[model_name] = ModelAggregate(model_name)
        return aggregate

    def _histogram_locked(self, model_name: str, metric: str) -> LatencyHistogram:
        histogram = self._histograms.get((model_name, metric))
        if histogram is None:
            histogram = self._histograms[(model_name, metric)] = LatencyHistogram()
        return histogram

    def record_batch(
        self,
        model_name: str,
        requests: Sequence = (),
        *,
        formed_at: float = 0.0,
        completed_at: float = 0.0,
        engine_time_s: float = 0.0,
        engine_records: Sequence[tuple] = (),
        cost: CostModel | None = None,
        pool_health: dict | None = None,
        route=None,
    ) -> None:
        """Record one completed batch under a single lock acquisition.

        ``requests`` are duck-typed like
        :class:`~repro.serve.scheduler.InferenceRequest`; each becomes a
        :class:`RequestTrace` referencing ``cost``.  ``engine_records`` are
        the ``(n_samples, elapsed_s, replica)`` records ``run_timed``
        returned (``replica``, a :class:`~repro.runtime.ReplicaPool` slot
        label or ``None``, gets its own totals; with ``cost``, each record
        calibrates prediction).  ``pool_health`` is a
        :meth:`~repro.runtime.ReplicaPool.pool_health` snapshot and
        ``route`` the fleet batch's final, duck-typed
        :class:`~repro.serve.fleet.RouteDecision`.  A batch with no requests
        only merges its engine records (calibration priming).  Modeled
        aggregates are added once per batch, since they are linear in its
        sample count.
        """
        batch_size = sum(request.n_samples for request in requests)
        traces = []
        for request in requests:
            handle = request.trace
            spans = () if handle is None else tuple(s.as_dict() for s in handle.spans())
            traces.append(
                RequestTrace(
                    request_id=request.request_id,
                    model_name=model_name,
                    n_samples=request.n_samples,
                    priority=request.priority,
                    deadline_s=request.deadline_s,
                    enqueued_at=request.enqueued_at,
                    formed_at=formed_at,
                    completed_at=completed_at,
                    batch_size=batch_size,
                    engine_time_s=engine_time_s,
                    cost=cost,
                    trace_id=None if handle is None else handle.trace_id,
                    spans=spans,
                )
            )
        with self._lock:
            aggregate = self._aggregate_locked(model_name)
            if route is not None:
                fleet = self._fleet_locked(route.fleet)
                batches = fleet.executed_batches_by_variant
                batches[route.variant] = batches.get(route.variant, 0) + 1
                samples = fleet.executed_samples_by_variant
                samples[route.variant] = samples.get(route.variant, 0) + route.n_samples
                if route.energy_pj is not None:
                    fleet.realised_energy_pj += route.energy_pj
                if route.baseline_energy_pj is not None:
                    fleet.realised_baseline_pj += route.baseline_energy_pj
            if engine_records:
                histogram = self._histogram_locked(model_name, "engine")
            for n_samples, elapsed_s, replica in engine_records:
                aggregate.engine_runs += 1
                aggregate.engine_run_samples += n_samples
                aggregate.engine_run_s += elapsed_s
                histogram.observe(elapsed_s)
                if replica is not None:
                    totals = aggregate.replica_engine_runs.setdefault(
                        replica, {"runs": 0, "samples": 0, "seconds": 0.0}
                    )
                    totals["runs"] += 1
                    totals["samples"] += n_samples
                    totals["seconds"] += elapsed_s
                if cost is None or n_samples <= 0:
                    continue
                modeled = cost.batch_latency_s(n_samples)
                if modeled > 0.0:
                    ratio = elapsed_s / modeled
                    previous = self._wall_per_modeled.get(model_name)
                    self._wall_per_modeled[model_name] = (
                        ratio
                        if previous is None
                        else previous + _CALIBRATION_ALPHA * (ratio - previous)
                    )
            if pool_health is not None:
                aggregate.replicas_healthy = pool_health["healthy"]
                aggregate.replicas_total = pool_health["replicas"]
                # A lifetime total: folded in monotonically, so a stale
                # snapshot racing a fresh one never rolls it back.
                aggregate.worker_restarts = max(
                    aggregate.worker_restarts, pool_health["restarts"]
                )
            if not traces:
                return
            self._traces.extend(traces)
            latency = self._histogram_locked(model_name, "latency")
            queue_wait = self._histogram_locked(model_name, "queue_wait")
            ema = self._queue_wait_ema.get(model_name)
            for trace in traces:
                wait = trace.queue_wait_s
                latency.observe(trace.latency_s)
                queue_wait.observe(wait)
                ema = wait if ema is None else ema + _CALIBRATION_ALPHA * (wait - ema)
                aggregate.queue_wait_s += wait
                if trace.deadline_s is not None:
                    aggregate.deadline_requests += 1
                    aggregate.deadline_misses += int(trace.deadline_missed)
            self._queue_wait_ema[model_name] = ema
            aggregate.requests += len(traces)
            aggregate.samples += batch_size
            aggregate.engine_share_s += engine_time_s
            aggregate.max_batch_size = max(aggregate.max_batch_size, batch_size)
            if cost is not None:
                aggregate.modeled_energy_pj += cost.energy_pj(batch_size)
                aggregate.modeled_latency_us += cost.batch_latency_us(batch_size)
                components = aggregate.modeled_energy_components_pj
                for key, value in cost.energy_split_pj(batch_size).items():
                    components[key] = components.get(key, 0.0) + value

    def record_admission(self, decision) -> None:
        """Record one admission-control outcome (accepted/downgraded/shed).

        ``decision`` is an :class:`~repro.serve.admission.AdmissionDecision`
        (duck-typed here -- the serve layer imports telemetry, not the other
        way around): its status feeds the per-model admission counters and
        its overload state becomes the exported overload gauge.
        """
        with self._lock:
            aggregate = self._aggregate_locked(decision.model_name)
            if decision.status == "shed":
                aggregate.shed_requests += 1
            elif decision.status == "downgraded":
                aggregate.downgraded_requests += 1
            else:
                aggregate.admitted_requests += 1
            self._overload_state = decision.overload_state.value

    @property
    def overload_state(self) -> str | None:
        """Latest recorded overload state (``None`` before any decision)."""
        with self._lock:
            return self._overload_state

    def record_route(self, decision, *, reroute: bool = False) -> None:
        """Record one fleet routing decision at batch formation.

        ``decision`` is a :class:`~repro.serve.fleet.RouteDecision`
        (duck-typed: ``fleet``, ``variant``, ``n_samples``, ``energy_pj``,
        ``baseline_energy_pj``).  ``reroute=True`` marks the mid-flight
        drain path (the chosen variant was unregistered under a dispatched
        batch): the hop bumps ``reroutes`` and the per-variant decision
        counter, but not the one-per-batch routed totals or the
        decision-time energy sums, which the original decision already
        counted.
        """
        with self._lock:
            aggregate = self._fleet_locked(decision.fleet)
            decisions = aggregate.decisions_by_variant
            decisions[decision.variant] = decisions.get(decision.variant, 0) + 1
            if reroute:
                aggregate.reroutes += 1
                return
            aggregate.batches_routed += 1
            aggregate.samples_routed += decision.n_samples
            if decision.energy_pj is not None:
                aggregate.predicted_energy_pj += decision.energy_pj
            if decision.baseline_energy_pj is not None:
                aggregate.predicted_baseline_pj += decision.baseline_energy_pj

    def _fleet_locked(self, fleet: str) -> FleetAggregate:
        aggregate = self._fleets.get(fleet)
        if aggregate is None:
            aggregate = self._fleets[fleet] = FleetAggregate(fleet)
        return aggregate

    # -- snapshots -------------------------------------------------------------

    def histogram(self, model_name: str, metric: str) -> LatencyHistogram | None:
        """A snapshot of one model's histogram, or ``None`` before any data.

        ``metric`` is ``"latency"`` (end-to-end), ``"queue_wait"`` or
        ``"engine"`` (per coalesced batch execution).
        """
        if metric not in _HISTOGRAM_KEYS:
            raise ValueError(f"metric must be one of {_HISTOGRAM_KEYS}, not {metric!r}")
        with self._lock:
            histogram = self._histograms.get((model_name, metric))
            return None if histogram is None else histogram.snapshot()

    def quantile(self, model_name: str, p: float, metric: str = "latency"):
        """Estimated ``p``-quantile of one model's latency histogram.

        E.g. ``collector.quantile("mlp", 0.99)`` is the end-to-end p99 in
        seconds.  ``None`` before any observation.  See :meth:`histogram`
        for the ``metric`` choices and
        :meth:`LatencyHistogram.quantile` for the estimator.
        """
        histogram = self.histogram(model_name, metric)
        return None if histogram is None else histogram.quantile(p)

    def traces(self, model_name: str | None = None) -> list[RequestTrace]:
        """A snapshot of the rolling trace window (optionally one model's)."""
        with self._lock:
            if model_name is None:
                return list(self._traces)
            return [t for t in self._traces if t.model_name == model_name]

    @staticmethod
    def _copy_aggregate(aggregate: ModelAggregate) -> ModelAggregate:
        """An independent snapshot (the component dict must not be shared)."""
        snapshot = ModelAggregate(**vars(aggregate))
        snapshot.modeled_energy_components_pj = dict(
            aggregate.modeled_energy_components_pj
        )
        snapshot.replica_engine_runs = {
            replica: dict(totals)
            for replica, totals in aggregate.replica_engine_runs.items()
        }
        return snapshot

    @staticmethod
    def _copy_fleet(aggregate: FleetAggregate) -> FleetAggregate:
        snapshot = FleetAggregate(**vars(aggregate))
        snapshot.decisions_by_variant = dict(aggregate.decisions_by_variant)
        snapshot.executed_batches_by_variant = dict(
            aggregate.executed_batches_by_variant
        )
        snapshot.executed_samples_by_variant = dict(
            aggregate.executed_samples_by_variant
        )
        return snapshot

    def fleet_aggregate(self, fleet: str) -> FleetAggregate:
        """A snapshot of one fleet's cumulative routing totals."""
        with self._lock:
            aggregate = self._fleets.get(fleet)
            if aggregate is None:
                return FleetAggregate(fleet)
            return self._copy_fleet(aggregate)

    def _copy_fleets_locked(self) -> dict[str, FleetAggregate]:
        return {
            name: self._copy_fleet(aggregate)
            for name, aggregate in self._fleets.items()
        }

    def fleet_aggregates(self) -> dict[str, FleetAggregate]:
        """Snapshots of every fleet's cumulative routing totals."""
        with self._lock:
            return self._copy_fleets_locked()

    def aggregate(self, model_name: str) -> ModelAggregate:
        """A snapshot of one model's cumulative aggregate."""
        with self._lock:
            aggregate = self._aggregates.get(model_name)
            if aggregate is None:
                return ModelAggregate(model_name)
            return self._copy_aggregate(aggregate)

    def _copy_aggregates_locked(self) -> dict[str, ModelAggregate]:
        return {
            name: self._copy_aggregate(aggregate)
            for name, aggregate in self._aggregates.items()
        }

    def aggregates(self) -> dict[str, ModelAggregate]:
        """Snapshots of every model's cumulative aggregate."""
        with self._lock:
            return self._copy_aggregates_locked()

    # -- exports ---------------------------------------------------------------

    def export_json(
        self, include_traces: bool = True, indent: int | None = None
    ) -> str:
        """Serialise aggregates (and optionally the trace window) to JSON."""
        with self._lock:
            payload = {
                "models": {
                    name: aggregate.as_dict()
                    for name, aggregate in self._aggregates.items()
                },
            }
            for name, model_payload in payload["models"].items():
                model_payload["histograms"] = {
                    metric: self._histograms[(name, metric)].as_dict()
                    for metric in _HISTOGRAM_KEYS
                    if (name, metric) in self._histograms
                }
            if self._fleets:
                payload["fleets"] = {
                    name: aggregate.as_dict()
                    for name, aggregate in self._fleets.items()
                }
            if self._overload_state is not None:
                payload["overload_state"] = self._overload_state
            if include_traces:
                payload["traces"] = [trace.as_dict() for trace in self._traces]
        return json.dumps(payload, indent=indent)

    @staticmethod
    def _escape_label(value: str) -> str:
        """Escape a label value per the Prometheus exposition format."""
        return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")

    @staticmethod
    def _format_bound(bound: float) -> str:
        """A ``le`` label value that round-trips through ``float()``."""
        return format(bound, ".12g")

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Render the aggregates in the Prometheus text exposition format.

        Every series comes from one snapshot taken under one lock
        acquisition, so a scrape never mixes two states of the collector
        (``requests_total`` always equals ``request_latency_seconds_count``).
        """
        with self._lock:
            aggregates = self._copy_aggregates_locked()
            histograms = {
                key: histogram.snapshot()
                for key, histogram in self._histograms.items()
            }
            fleets = self._copy_fleets_locked()
            overload_state = self._overload_state
        lines: list[str] = []
        for suffix, help_text, attribute in _PROMETHEUS_GAUGES:
            metric = f"{prefix}_{suffix}"
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} counter")
            for name in sorted(aggregates):
                value = getattr(aggregates[name], attribute)
                label = self._escape_label(name)
                lines.append(f'{metric}{{model="{label}"}} {value}')
        for suffix, help_text, key in _PROMETHEUS_HISTOGRAMS:
            named = sorted(n for n, metric_key in histograms if metric_key == key)
            if not named:
                continue
            metric = f"{prefix}_{suffix}"
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} histogram")
            for name in named:
                histogram = histograms[(name, key)]
                label = self._escape_label(name)
                cumulative = histogram.cumulative_counts()
                for bound, running in zip(histogram.bounds, cumulative):
                    le = self._format_bound(bound)
                    lines.append(
                        f'{metric}_bucket{{model="{label}",le="{le}"}} {running}'
                    )
                lines.append(
                    f'{metric}_bucket{{model="{label}",le="+Inf"}} '
                    f"{histogram.count}"
                )
                lines.append(f'{metric}_sum{{model="{label}"}} {histogram.sum}')
                lines.append(f'{metric}_count{{model="{label}"}} {histogram.count}')
        metric = f"{prefix}_modeled_energy_component_picojoules_total"
        lines.append(
            f"# HELP {metric} Cumulative modeled energy per hardware component."
        )
        lines.append(f"# TYPE {metric} counter")
        for name in sorted(aggregates):
            label = self._escape_label(name)
            components = aggregates[name].modeled_energy_components_pj
            for component in sorted(components):
                value = components[component]
                lines.append(
                    f'{metric}{{model="{label}",component="{component}"}} {value}'
                )
        pooled = {name for name in aggregates if aggregates[name].replicas_total > 0}
        for suffix, help_text, attribute in (
            ("replicas_healthy", "Healthy replicas in the pool.", "replicas_healthy"),
            ("replicas_total", "Replica slots in the pool.", "replicas_total"),
        ):
            metric = f"{prefix}_{suffix}"
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} gauge")
            for name in sorted(pooled):
                value = getattr(aggregates[name], attribute)
                label = self._escape_label(name)
                lines.append(f'{metric}{{model="{label}"}} {value}')
        for suffix, help_text, key in (
            ("replica_engine_runs_total", "Engine runs per replica.", "runs"),
            (
                "replica_engine_samples_total",
                "Samples executed per replica.",
                "samples",
            ),
            (
                "replica_engine_seconds_total",
                "Engine wall seconds per replica.",
                "seconds",
            ),
        ):
            metric = f"{prefix}_{suffix}"
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} counter")
            for name in sorted(aggregates):
                label = self._escape_label(name)
                runs = aggregates[name].replica_engine_runs
                for replica in sorted(runs):
                    value = runs[replica][key]
                    replica_label = self._escape_label(replica)
                    lines.append(
                        f'{metric}{{model="{label}",replica="{replica_label}"}} '
                        f"{value}"
                    )
        if fleets:
            for suffix, help_text, attribute in (
                (
                    "fleet_routed_batches_total",
                    "Routed fleet batches executed per variant.",
                    "executed_batches_by_variant",
                ),
                (
                    "fleet_routed_samples_total",
                    "Routed fleet samples executed per variant.",
                    "executed_samples_by_variant",
                ),
                (
                    "fleet_route_decisions_total",
                    "Routing decisions per variant (including re-routes).",
                    "decisions_by_variant",
                ),
            ):
                metric = f"{prefix}_{suffix}"
                lines.append(f"# HELP {metric} {help_text}")
                lines.append(f"# TYPE {metric} counter")
                for name in sorted(fleets):
                    label = self._escape_label(name)
                    by_variant = getattr(fleets[name], attribute)
                    for variant in sorted(by_variant):
                        variant_label = self._escape_label(variant)
                        lines.append(
                            f'{metric}{{fleet="{label}",variant="{variant_label}"}} '
                            f"{by_variant[variant]}"
                        )
            metric = f"{prefix}_fleet_reroutes_total"
            lines.append(
                f"# HELP {metric} Mid-flight re-routes after a variant "
                "was unregistered."
            )
            lines.append(f"# TYPE {metric} counter")
            for name in sorted(fleets):
                label = self._escape_label(name)
                lines.append(f'{metric}{{fleet="{label}"}} {fleets[name].reroutes}')
            # Savings can go negative (a pinned placement costlier than the
            # fastest variant), so these are gauges, not counters.
            for suffix, help_text, attribute in (
                (
                    "fleet_predicted_energy_saved_picojoules",
                    "Decision-time modeled energy saved vs always-fastest "
                    "placement.",
                    "predicted_saved_pj",
                ),
                (
                    "fleet_realised_energy_saved_picojoules",
                    "Modeled energy saved by the placements that executed.",
                    "realised_saved_pj",
                ),
                (
                    "fleet_realised_energy_saved_ratio",
                    "Realised energy savings as a fraction of the "
                    "always-fastest baseline.",
                    "realised_saved_fraction",
                ),
            ):
                metric = f"{prefix}_{suffix}"
                lines.append(f"# HELP {metric} {help_text}")
                lines.append(f"# TYPE {metric} gauge")
                for name in sorted(fleets):
                    label = self._escape_label(name)
                    value = getattr(fleets[name], attribute)
                    lines.append(f'{metric}{{fleet="{label}"}} {value}')
        if overload_state is not None:
            metric = f"{prefix}_overload_state"
            level = _OVERLOAD_SEVERITY.get(overload_state, -1)
            lines.append(
                f"# HELP {metric} Admission overload state "
                "(0 accepting, 1 shedding best-effort, 2 shedding all but top)."
            )
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {level}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"TelemetryCollector(models={sorted(self._aggregates)}, "
                f"traces={len(self._traces)})"
            )
