"""Energy-aware routing across heterogeneous architecture variants.

The paper's headline results are energy/throughput trade-offs across
architecture configurations (Fig. 12/13): the same network mapped onto a
low-power RAELLA-style substrate or a high-throughput ISAAC-style one costs
very different picojoules per sample.  This module turns those calibrated
trade-offs into a *live placement decision*: a :class:`FleetRouter` serves
one logical model across several registered variants (grouped by
:meth:`ModelRegistry.register_fleet
<repro.serve.registry.ModelRegistry.register_fleet>`), picking the variant
per batch from

* each variant's modeled energy for the batch
  (:meth:`CostModel.energy_pj <repro.telemetry.cost.CostModel.energy_pj>`),
* each variant's *calibrated* wall-latency prediction including its current
  backlog (:meth:`TelemetryCollector.predicted_batch_latency_s
  <repro.telemetry.collector.TelemetryCollector.predicted_batch_latency_s>`
  over the variant's tables, read from the registry), so a saturated fast
  variant's prediction rises and work spills to the low-power one,
* the batch's deadline slack.

The decision path touches no engine: it is dictionary lookups and float
comparisons over precomputed tables, so routing costs microseconds.  The
policy is pluggable via :class:`RoutingObjective`:

* :class:`MinimizeEnergy` (the default) -- cheapest variant that still meets
  the deadline; least-late variant when none can.
* :class:`MinimizeLatency` -- fastest variant, optionally subject to a
  per-sample energy budget.
* :class:`PinVariant` -- a fixed placement (the always-fastest baseline the
  benchmarks compare against; also what makes routed serving bit-identical
  to single-variant serving for any fixed decision).

Every decision is returned as a frozen :class:`RouteDecision` carrying the
chosen variant, the rejected alternatives with their evidence
(:class:`VariantSnapshot`), and the energy of the fastest variant as the
savings baseline -- the server records these into the telemetry collector's
fleet counters and the per-request ``route`` span.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # imported lazily to keep module import light and acyclic
    from repro.serve.registry import ModelRegistry
    from repro.telemetry import TelemetryCollector

__all__ = [
    "FleetRouter",
    "MinimizeEnergy",
    "MinimizeLatency",
    "PinVariant",
    "RouteDecision",
    "RoutingObjective",
]


@dataclass(frozen=True)
class VariantSnapshot:
    """One variant's evidence at decision time.

    ``predicted_latency_s`` is the calibrated wall-clock estimate for this
    batch *behind the variant's current backlog* (``None`` when the variant
    has no cost tables);
    ``idle_latency_s`` is the same estimate at zero backlog;
    ``modeled_latency_s`` is the raw (uncalibrated) cost-table latency -- a
    stable hardware property defining which variant counts as "fastest" for
    the savings baseline, unaffected by what wall-clock calibration learns;
    ``energy_pj`` is the modeled energy of this batch's samples on the
    variant's architecture.
    """

    name: str
    n_samples: int
    backlog_samples: int
    predicted_latency_s: float | None
    idle_latency_s: float | None
    energy_pj: float | None
    modeled_latency_s: float | None = None

    @property
    def energy_per_sample_pj(self) -> float | None:
        """Modeled energy per sample on this variant (``None`` without tables)."""
        if self.energy_pj is None or self.n_samples <= 0:
            return None
        return self.energy_pj / self.n_samples

    def meets(self, slack_s: float | None) -> bool:
        """Whether the variant provably fits the deadline slack.

        Mirrors admission-control semantics: no deadline or no prediction
        means the deadline cannot be proven unmeetable, so the variant
        stays eligible.
        """
        if slack_s is None or self.predicted_latency_s is None:
            return True
        return self.predicted_latency_s <= slack_s


@dataclass(frozen=True)
class RouteDecision:
    """The outcome of one routing decision (also the savings evidence).

    ``baseline_variant`` / ``baseline_energy_pj`` describe the
    always-fastest placement (lowest *modeled* latency, a stable hardware
    property) the energy-savings gauges compare against; ``energy_pj`` is
    the chosen variant's modeled energy for the batch.
    """

    fleet: str
    variant: str
    objective: str
    reason: str
    n_samples: int
    deadline_slack_s: float | None
    candidates: tuple[VariantSnapshot, ...]
    baseline_variant: str
    baseline_energy_pj: float | None
    energy_pj: float | None

    @property
    def rejected(self) -> tuple[str, ...]:
        """The variants considered and not chosen, in candidate order."""
        return tuple(c.name for c in self.candidates if c.name != self.variant)


class RoutingObjective:
    """Strategy choosing one variant from the candidate snapshots.

    Subclasses implement :meth:`choose`; candidates arrive in fleet
    registration order and are never empty.  Ties must break
    deterministically (the built-ins order by the objective's figure of
    merit, then name) so a fixed fleet state always routes identically.
    """

    name = "objective"

    def choose(
        self, candidates: Sequence[VariantSnapshot], slack_s: float | None
    ) -> tuple[VariantSnapshot, str]:
        """Return ``(chosen, reason)`` for one batch."""
        raise NotImplementedError


def _latency_key(candidate: VariantSnapshot) -> tuple[float, str]:
    latency = candidate.predicted_latency_s
    return (math.inf if latency is None else latency, candidate.name)


def _energy_key(candidate: VariantSnapshot) -> tuple[float, float, str]:
    energy = candidate.energy_pj
    latency = candidate.predicted_latency_s
    return (
        math.inf if energy is None else energy,
        math.inf if latency is None else latency,
        candidate.name,
    )


class MinimizeEnergy(RoutingObjective):
    """Cheapest variant that still meets the deadline (the default).

    Deadline-free batches simply take the lowest modeled energy.  When no
    variant provably meets the slack, the least-late variant is chosen --
    matching the serving layer's best-effort deadline semantics (a late
    admitted request still completes).
    """

    name = "min_energy"

    def choose(
        self, candidates: Sequence[VariantSnapshot], slack_s: float | None
    ) -> tuple[VariantSnapshot, str]:
        feasible = [c for c in candidates if c.meets(slack_s)]
        if not feasible:
            return min(candidates, key=_latency_key), "no variant meets slack"
        chosen = min(feasible, key=_energy_key)
        if slack_s is None:
            return chosen, "min energy (no deadline)"
        return chosen, f"min energy of {len(feasible)} feasible"


class MinimizeLatency(RoutingObjective):
    """Fastest variant, optionally within a per-sample energy budget.

    ``energy_budget_pj_per_sample`` excludes variants whose modeled energy
    per sample exceeds it (variants without cost tables are never excluded:
    the budget cannot be proven violated).  When every variant busts the
    budget, the cheapest one is chosen instead.
    """

    name = "min_latency"

    def __init__(self, energy_budget_pj_per_sample: float | None = None):
        if (
            energy_budget_pj_per_sample is not None
            and energy_budget_pj_per_sample <= 0
        ):
            raise ValueError("energy_budget_pj_per_sample must be positive")
        self.energy_budget_pj_per_sample = energy_budget_pj_per_sample

    def _within_budget(self, candidate: VariantSnapshot) -> bool:
        budget = self.energy_budget_pj_per_sample
        per_sample = candidate.energy_per_sample_pj
        if budget is None or per_sample is None:
            return True
        return per_sample <= budget

    def choose(
        self, candidates: Sequence[VariantSnapshot], slack_s: float | None
    ) -> tuple[VariantSnapshot, str]:
        eligible = [c for c in candidates if self._within_budget(c)]
        if not eligible:
            return min(candidates, key=_energy_key), "no variant within budget"
        return min(eligible, key=_latency_key), "min predicted latency"


class PinVariant(RoutingObjective):
    """Route every batch to one fixed variant (while it exists).

    This is the bit-identity anchor -- a routed server pinned to variant
    ``v`` behaves exactly like serving ``v`` directly -- and the
    always-fastest baseline of ``benchmarks/bench_fleet.py``.  If the
    pinned variant leaves the fleet (unregistered mid-flight), the fastest
    remaining variant takes over instead of failing the batch.
    """

    name = "pin"

    def __init__(self, variant: str):
        self.variant = variant

    def choose(
        self, candidates: Sequence[VariantSnapshot], slack_s: float | None
    ) -> tuple[VariantSnapshot, str]:
        for candidate in candidates:
            if candidate.name == self.variant:
                return candidate, "pinned"
        return min(candidates, key=_latency_key), "pinned variant unavailable"


class FleetRouter:
    """Per-batch placement over a fleet's registered architecture variants.

    Parameters
    ----------
    registry:
        Source of truth for fleet membership and per-variant cost tables.
    telemetry:
        Optional collector calibrating the tables' latency to wall time.
        Without one, predictions are the raw modeled batch latency
        (uncalibrated but still proportional between variants).
    objective:
        The routing policy; :class:`MinimizeEnergy` when omitted.

    :meth:`route` touches no engine: per variant it reads one precomputed
    cost table and one calibration scalar, so a decision is O(variants)
    dictionary lookups and float math -- microseconds, on the batch
    formation path.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        telemetry: TelemetryCollector | None = None,
        objective: RoutingObjective | None = None,
    ):
        self.registry = registry
        self.telemetry = telemetry
        self.objective = objective or MinimizeEnergy()

    def _predicted(self, variant: str, n_samples: int, cost) -> float | None:
        if self.telemetry is not None:
            return self.telemetry.predicted_batch_latency_s(variant, n_samples, cost)
        return None if cost is None else cost.batch_latency_s(n_samples)

    def snapshot(
        self,
        fleet: str,
        n_samples: int,
        backlog: Mapping[str, int] | None = None,
    ) -> tuple[VariantSnapshot, ...]:
        """Evidence for every live variant (raises ``KeyError`` for non-fleets)."""
        variants = self.registry.fleet_variants(fleet)
        if variants is None:
            raise KeyError(f"no fleet registered under {fleet!r}")
        backlog = backlog or {}
        candidates = []
        for variant in variants:
            try:
                cost = self.registry.cost_model(variant)
            except KeyError:  # unregistered concurrently; skip this variant
                continue
            queued = int(backlog.get(variant, 0))
            idle = self._predicted(variant, n_samples, cost)
            loaded = (
                idle
                if queued == 0
                else self._predicted(variant, queued + n_samples, cost)
            )
            candidates.append(
                VariantSnapshot(
                    name=variant,
                    n_samples=n_samples,
                    backlog_samples=queued,
                    predicted_latency_s=loaded,
                    idle_latency_s=idle,
                    energy_pj=None if cost is None else cost.energy_pj(n_samples),
                    modeled_latency_s=(
                        None if cost is None else cost.batch_latency_s(n_samples)
                    ),
                )
            )
        return tuple(candidates)

    def route(
        self,
        fleet: str,
        n_samples: int,
        deadline_s: float | None = None,
        now: float | None = None,
        backlog: Mapping[str, int] | None = None,
    ) -> RouteDecision:
        """Choose a variant for one batch of ``n_samples`` samples.

        ``deadline_s`` is the batch's *absolute* deadline on the
        ``time.monotonic()`` clock (as carried by dispatched batches) and
        ``now`` the decision instant; their difference is the slack handed
        to the objective.  ``backlog`` maps variant name to its
        queued-plus-dispatched sample count (the per-variant feedback that
        makes a saturated fast variant spill work to the low-power one).

        Raises ``KeyError`` when ``fleet`` is unknown and ``LookupError``
        when every variant has been unregistered.
        """
        candidates = self.snapshot(fleet, n_samples, backlog)
        if not candidates:
            raise LookupError(f"fleet {fleet!r} has no live variants")
        slack_s = None
        if deadline_s is not None:
            slack_s = deadline_s - (time.monotonic() if now is None else now)
        objective = self.objective
        chosen, reason = objective.choose(candidates, slack_s)
        # The savings baseline is the *modeled*-fastest variant: a stable
        # hardware property, unlike calibrated wall latency, which can tie
        # across variants whose host-side execution speed is identical.
        baseline = min(
            candidates,
            key=lambda c: (
                math.inf if c.modeled_latency_s is None else c.modeled_latency_s,
                math.inf if c.idle_latency_s is None else c.idle_latency_s,
                c.name,
            ),
        )
        return RouteDecision(
            fleet=fleet,
            variant=chosen.name,
            objective=objective.name,
            reason=reason,
            n_samples=n_samples,
            deadline_slack_s=slack_s,
            candidates=candidates,
            baseline_variant=baseline.name,
            baseline_energy_pj=baseline.energy_pj,
            energy_pj=chosen.energy_pj,
        )
