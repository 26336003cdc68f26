"""Energy-aware heterogeneous fleet routing (`repro.serve.fleet`).

Covers the registry's fleet grouping, the routing objectives, the
:class:`FleetRouter`'s decision evidence (including backlog spill and the
no-engine-on-the-decision-path guarantee), the server integration
(bit-identical outputs, deadline-aware placement, telemetry counters and
``route`` spans), and the zero-loss drain when a variant is unregistered
with batches in flight on it.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.hw import ISAAC_ARCH, RAELLA_ARCH
from repro.serve import (
    BatchingPolicy,
    FleetRouter,
    InferenceServer,
    MinimizeEnergy,
    MinimizeLatency,
    ModelRegistry,
    PinVariant,
)
from repro.serve.fleet import VariantSnapshot
from repro.telemetry import TelemetryCollector, Tracer

FAST, CHEAP = "mlp-fast", "mlp-lowpower"


@pytest.fixture
def fleet_registry(tiny_mlp_model):
    """Two architecture variants of one calibrated model, grouped as "mlp".

    ISAAC is the fast/expensive variant, RAELLA the slow/cheap one (about
    55% less modeled energy per sample) -- the same trade-off the paper's
    fig. 12/13 quantify.
    """
    registry = ModelRegistry()
    registry.register(FAST, tiny_mlp_model, arch=ISAAC_ARCH)
    registry.register(CHEAP, tiny_mlp_model, arch=RAELLA_ARCH)
    registry.register_fleet("mlp", [FAST, CHEAP])
    yield registry
    registry.close()


def snapshot(name, *, energy=None, latency=None, idle=None, n=4, backlog=0):
    return VariantSnapshot(
        name=name,
        n_samples=n,
        backlog_samples=backlog,
        predicted_latency_s=latency,
        idle_latency_s=latency if idle is None else idle,
        energy_pj=energy,
    )


class TestRegistryFleets:
    def test_register_and_lookup(self, fleet_registry):
        assert fleet_registry.is_fleet("mlp")
        assert not fleet_registry.is_fleet(FAST)
        assert fleet_registry.fleet_variants("mlp") == (FAST, CHEAP)
        assert fleet_registry.fleet_variants(FAST) is None
        assert fleet_registry.fleets() == {"mlp": (FAST, CHEAP)}
        # The fleet resolves to a servable model but hosts no engine.
        assert fleet_registry.model("mlp") is fleet_registry.model(FAST)
        assert "mlp" not in fleet_registry
        assert "mlp" not in fleet_registry.names()
        with pytest.raises(KeyError):
            fleet_registry.engine("mlp")

    def test_tenant_labels(self, fleet_registry, tiny_mlp_model):
        assert fleet_registry.tenant("mlp") == "mlp"
        fleet_registry.register(
            "mlp-extra", tiny_mlp_model, arch=RAELLA_ARCH, tenant="acme"
        )
        fleet_registry.register_fleet("mlp2", ["mlp-extra"], tenant="acme")
        assert fleet_registry.tenant("mlp2") == "acme"
        assert fleet_registry.tenants()["mlp2"] == "acme"

    def test_validation(self, fleet_registry, tiny_conv_model):
        with pytest.raises(ValueError, match="at least one variant"):
            fleet_registry.register_fleet("empty", [])
        with pytest.raises(ValueError, match="duplicate"):
            fleet_registry.register_fleet("dup", [FAST, FAST])
        with pytest.raises(ValueError, match="already registered"):
            fleet_registry.register_fleet(FAST, [CHEAP])
        with pytest.raises(ValueError, match="already registered"):
            fleet_registry.register_fleet("mlp", [FAST])
        with pytest.raises(ValueError, match="no model registered"):
            fleet_registry.register_fleet("ghost", ["missing"])
        with pytest.raises(ValueError, match="do not nest"):
            fleet_registry.register_fleet("nested", ["mlp"])
        fleet_registry.register("conv", tiny_conv_model)
        with pytest.raises(ValueError, match="input shape"):
            fleet_registry.register_fleet("mixed", [FAST, "conv"])

    def test_unregister_fleet_name_keeps_variants(self, fleet_registry):
        assert fleet_registry.unregister("mlp") is True
        assert not fleet_registry.is_fleet("mlp")
        assert FAST in fleet_registry and CHEAP in fleet_registry
        assert fleet_registry.unregister("mlp") is False

    def test_unregister_variant_prunes_fleet(self, fleet_registry):
        assert fleet_registry.unregister(FAST) is True
        assert fleet_registry.fleet_variants("mlp") == (CHEAP,)
        # The last variant takes the emptied fleet with it.
        assert fleet_registry.unregister(CHEAP) is True
        assert not fleet_registry.is_fleet("mlp")
        assert fleet_registry.fleets() == {}

    def test_close_drops_fleets(self, tiny_mlp_model):
        registry = ModelRegistry()
        registry.register(FAST, tiny_mlp_model)
        registry.register_fleet("mlp", [FAST])
        registry.close()
        assert registry.fleets() == {}


class TestRoutingObjectives:
    def test_snapshot_meets_semantics(self):
        candidate = snapshot("a", latency=0.5)
        assert candidate.meets(None)  # no deadline: nothing to violate
        assert candidate.meets(1.0)
        assert not candidate.meets(0.1)
        # No prediction: cannot be proven unmeetable, stays eligible.
        assert snapshot("b").meets(0.1)
        assert snapshot("a", energy=8.0, n=4).energy_per_sample_pj == 2.0
        assert snapshot("a", n=4).energy_per_sample_pj is None

    def test_minimize_energy_prefers_cheapest_feasible(self):
        fast = snapshot("fast", energy=100.0, latency=0.01)
        cheap = snapshot("cheap", energy=40.0, latency=0.05)
        chosen, reason = MinimizeEnergy().choose([fast, cheap], 1.0)
        assert chosen is cheap and "feasible" in reason
        # Tight slack excludes the cheap variant.
        chosen, _reason = MinimizeEnergy().choose([fast, cheap], 0.02)
        assert chosen is fast
        # No deadline: cheapest outright.
        chosen, reason = MinimizeEnergy().choose([fast, cheap], None)
        assert chosen is cheap and "no deadline" in reason

    def test_minimize_energy_least_late_fallback_and_ties(self):
        fast = snapshot("fast", energy=100.0, latency=0.01)
        cheap = snapshot("cheap", energy=40.0, latency=0.05)
        chosen, reason = MinimizeEnergy().choose([fast, cheap], 0.001)
        assert chosen is fast and "no variant" in reason
        # Equal energy ties break on latency, then name -- deterministic.
        a = snapshot("a", energy=40.0, latency=0.05)
        b = snapshot("b", energy=40.0, latency=0.05)
        assert MinimizeEnergy().choose([b, a], None)[0] is a

    def test_minimize_latency_budget(self):
        fast = snapshot("fast", energy=400.0, latency=0.01)  # 100 pJ/sample
        cheap = snapshot("cheap", energy=40.0, latency=0.05)  # 10 pJ/sample
        assert MinimizeLatency().choose([fast, cheap], None)[0] is fast
        budgeted = MinimizeLatency(energy_budget_pj_per_sample=50.0)
        assert budgeted.choose([fast, cheap], None)[0] is cheap
        # Every variant over budget: cheapest wins instead.
        strict = MinimizeLatency(energy_budget_pj_per_sample=1.0)
        chosen, reason = strict.choose([fast, cheap], None)
        assert chosen is cheap and "budget" in reason
        with pytest.raises(ValueError):
            MinimizeLatency(energy_budget_pj_per_sample=0.0)

    def test_pin_variant_and_fallback(self):
        fast = snapshot("fast", energy=100.0, latency=0.01)
        cheap = snapshot("cheap", energy=40.0, latency=0.05)
        assert PinVariant("cheap").choose([fast, cheap], None)[0] is cheap
        chosen, reason = PinVariant("gone").choose([fast, cheap], None)
        assert chosen is fast and "unavailable" in reason


class TestFleetRouter:
    def test_route_decision_evidence(self, fleet_registry):
        router = FleetRouter(fleet_registry)
        decision = router.route("mlp", 8)
        assert decision.fleet == "mlp"
        assert decision.variant == CHEAP  # cheapest, no deadline
        assert decision.baseline_variant == FAST  # lowest idle latency
        assert decision.rejected == (FAST,)
        assert decision.baseline_energy_pj - decision.energy_pj > 0
        assert {c.name for c in decision.candidates} == {FAST, CHEAP}
        assert decision.objective == "min_energy"

    def test_backlog_spills_to_other_variant(self, fleet_registry):
        """A saturated cheap variant spills work to the fast one."""
        router = FleetRouter(fleet_registry)
        cost = fleet_registry.cost_model(CHEAP)
        # Slack that fits the cheap variant idle but not behind a backlog.
        slack = cost.batch_latency_s(8) * 2
        now = time.monotonic()
        idle = router.route("mlp", 8, deadline_s=now + slack, now=now)
        assert idle.variant == CHEAP
        loaded = router.route(
            "mlp", 8, deadline_s=now + slack, now=now, backlog={CHEAP: 10_000}
        )
        assert loaded.variant == FAST
        by_name = {c.name: c for c in loaded.candidates}
        assert by_name[CHEAP].backlog_samples == 10_000
        assert by_name[CHEAP].predicted_latency_s > slack

    def test_unmeetable_deadline_takes_least_late(self, fleet_registry):
        router = FleetRouter(fleet_registry)
        now = time.monotonic()
        decision = router.route("mlp", 8, deadline_s=now - 1.0, now=now)
        assert decision.variant == FAST
        assert "no variant meets" in decision.reason

    def test_route_touches_no_engine(self, fleet_registry, monkeypatch):
        """The decision path is table lookups only -- O(us), engine-free."""

        def boom(name):
            raise AssertionError("engine touched on the routing decision path")

        monkeypatch.setattr(fleet_registry, "engine", boom)
        decision = FleetRouter(fleet_registry).route("mlp", 8)
        assert decision.variant == CHEAP

    def test_unknown_and_emptied_fleet(self, fleet_registry, monkeypatch):
        router = FleetRouter(fleet_registry)
        with pytest.raises(KeyError):
            router.route("nope", 4)
        # Simulate the unregister race: the fleet tuple still names a
        # variant whose engine (and cost tables) are already gone.
        monkeypatch.setattr(fleet_registry, "fleet_variants", lambda name: ("ghost",))
        with pytest.raises(LookupError):
            router.route("mlp", 4)

    def test_calibrated_predictions_preferred(self, fleet_registry):
        telemetry = TelemetryCollector()
        # Observed wall time is 1000x the modeled time on the fast variant:
        # its calibrated prediction must reflect that.
        fast_cost = fleet_registry.cost_model(FAST)
        modeled = fast_cost.batch_latency_s(8)
        telemetry.record_batch(
            FAST, engine_records=[(8, modeled * 1000, None)], cost=fast_cost
        )
        router = FleetRouter(fleet_registry, telemetry)
        by_name = {c.name: c for c in router.snapshot("mlp", 8)}
        assert by_name[FAST].predicted_latency_s == pytest.approx(modeled * 1000)
        assert by_name[CHEAP].predicted_latency_s == pytest.approx(
            fleet_registry.cost_model(CHEAP).batch_latency_s(8)
        )


class TestFleetServing:
    def drain(self, server, submits):
        """Submit everything first, then start: deterministic batching."""
        decisions = [server.submit(*args, **kwargs) for args, kwargs in submits]
        with server:
            results = [d.result(timeout=10.0) for d in decisions]
        return results

    def test_routed_outputs_bit_identical(self, fleet_registry, rng):
        telemetry = TelemetryCollector()
        server = InferenceServer(
            fleet_registry,
            BatchingPolicy(max_batch_size=8, max_delay_s=0.001),
            telemetry=telemetry,
        )
        inputs = rng.normal(0.0, 1.0, size=(4, 16))
        results = self.drain(server, [(("mlp", inputs), {}) for _ in range(4)])
        reference = fleet_registry.engine(CHEAP).run(inputs)
        for result in results:
            np.testing.assert_array_equal(result, reference)
        aggregate = telemetry.fleet_aggregate("mlp")
        assert aggregate.batches_routed > 0
        assert aggregate.samples_routed == 16
        assert set(aggregate.executed_batches_by_variant) == {CHEAP}
        assert aggregate.realised_saved_pj > 0
        assert 0.0 < aggregate.realised_saved_fraction < 1.0

    def test_deadline_places_on_fast_variant(self, fleet_registry, rng):
        """Slackless work lands on the fast variant, loose work on the cheap one."""
        server = InferenceServer(
            fleet_registry,
            BatchingPolicy(max_batch_size=4, max_delay_s=0.0),
            telemetry=TelemetryCollector(),
        )
        inputs = rng.normal(0.0, 1.0, size=(4, 16))
        with server:
            # 1us of slack is long gone by formation time: least-late = fast.
            tight = server.submit("mlp", inputs, deadline_s=1e-6)
            tight.result(timeout=10.0)
            loose = server.submit("mlp", inputs, deadline_s=30.0)
            loose.result(timeout=10.0)
        per_model = server.statistics().batches_per_model
        assert per_model.get(FAST, 0) >= 1
        assert per_model.get(CHEAP, 0) >= 1

    def test_pinned_fleet_matches_direct_serving(self, fleet_registry, rng):
        """Any fixed routing decision is bit-identical to single-variant serving."""
        inputs = [rng.normal(0.0, 1.0, size=(n, 16)) for n in (1, 3, 2, 4)]
        policy = BatchingPolicy(max_batch_size=8, max_delay_s=0.001)
        routed_server = InferenceServer(
            fleet_registry, policy, routing=PinVariant(FAST)
        )
        routed = self.drain(routed_server, [(("mlp", x), {}) for x in inputs])
        direct_server = InferenceServer(fleet_registry, policy)
        direct = self.drain(direct_server, [((FAST, x), {}) for x in inputs])
        for routed_out, direct_out in zip(routed, direct):
            np.testing.assert_array_equal(routed_out, direct_out)

    def test_route_span_records_choice_and_alternatives(self, fleet_registry, rng):
        telemetry = TelemetryCollector()
        tracer = Tracer(sample_rate=1.0)
        server = InferenceServer(
            fleet_registry,
            BatchingPolicy(max_batch_size=4, max_delay_s=0.001),
            telemetry=telemetry,
            tracer=tracer,
        )
        inputs = rng.normal(0.0, 1.0, size=(2, 16))
        self.drain(server, [(("mlp", inputs), {})])
        (trace,) = telemetry.traces()
        (route_span,) = [s for s in trace.spans if s["name"] == "route"]
        assert route_span["attrs"]["variant"] == CHEAP
        assert route_span["attrs"]["rejected"] == [FAST]
        assert route_span["attrs"]["objective"] == "min_energy"
        assert route_span["attrs"]["rerouted"] is False

    def test_fleet_aware_latency_predictor(self, fleet_registry):
        telemetry = TelemetryCollector()
        server = InferenceServer(fleet_registry, telemetry=telemetry)
        predictor = server._latency_predictor()
        fast, cheap = (
            telemetry.predicted_batch_latency_s(
                name, 8, fleet_registry.cost_model(name)
            )
            for name in (FAST, CHEAP)
        )
        assert predictor("mlp", 8) == pytest.approx(min(fast, cheap))
        assert predictor(FAST, 8) == pytest.approx(fast)

    def test_fleet_submit_validates_shape(self, fleet_registry, rng):
        with InferenceServer(fleet_registry) as server:
            with pytest.raises(ValueError, match="shape"):
                server.submit("mlp", rng.normal(0.0, 1.0, size=(2, 7)))

    def test_prometheus_fleet_families(self, fleet_registry, rng):
        telemetry = TelemetryCollector()
        server = InferenceServer(
            fleet_registry,
            BatchingPolicy(max_batch_size=8, max_delay_s=0.001),
            telemetry=telemetry,
        )
        inputs = rng.normal(0.0, 1.0, size=(2, 16))
        self.drain(server, [(("mlp", inputs), {}) for _ in range(2)])
        text = telemetry.to_prometheus()
        assert "# TYPE repro_fleet_routed_batches_total counter" in text
        sample = f'repro_fleet_routed_batches_total{{fleet="mlp",variant="{CHEAP}"}}'
        assert sample in text
        assert "# TYPE repro_fleet_realised_energy_saved_ratio gauge" in text
        exported = telemetry.export_json()
        assert '"fleets"' in exported


class TestUnregisterVariantMidFlight:
    def test_inflight_batches_drain_to_remaining_variant(self, fleet_registry, rng):
        """Unregistering a variant with batches in flight loses zero requests.

        Mirrors the replica-pool SIGKILL tests: all traffic is pinned onto
        the fast variant, its engine is blocked mid-batch with a follow-up
        request queued behind it, then the variant is unregistered and the
        blocked run fails the way a closed process pool does.  The running
        batch re-routes onto the surviving variant; the queued request is
        routed there when the worker forms its batch.  Every future must
        deliver bit-identical outputs.
        """
        telemetry = TelemetryCollector()
        engine = fleet_registry.engine(FAST)
        original_run = engine.run
        first_run_started = threading.Event()
        release = threading.Event()
        calls = []

        def gated_run(inputs, **kwargs):
            calls.append(len(inputs))
            if len(calls) == 1:
                first_run_started.set()
                assert release.wait(timeout=10.0)
                raise RuntimeError("replica pool closed")
            return original_run(inputs, **kwargs)

        engine.run = gated_run
        inputs = rng.normal(0.0, 1.0, size=(4, 16))
        reference = original_run(inputs)
        server = InferenceServer(
            fleet_registry,
            BatchingPolicy(max_batch_size=4, max_delay_s=0.0),
            max_workers=1,
            telemetry=telemetry,
            routing=PinVariant(FAST),
        )
        with server:
            first = server.submit("mlp", inputs)
            assert first_run_started.wait(timeout=10.0)
            # The single worker is blocked inside the fast engine, so this
            # request waits in the queue, not yet formed or routed.
            second = server.submit("mlp", inputs)
            assert len(server._queue) == 1
            assert telemetry.fleet_aggregate("mlp").batches_routed == 1
            assert fleet_registry.unregister(FAST) is True
            assert fleet_registry.fleet_variants("mlp") == (CHEAP,)
            release.set()
            np.testing.assert_array_equal(first.result(timeout=10.0), reference)
            np.testing.assert_array_equal(second.result(timeout=10.0), reference)
        stats = server.statistics()
        assert stats.requests_failed == 0
        assert stats.requests_completed == 2
        aggregate = telemetry.fleet_aggregate("mlp")
        assert aggregate.reroutes == 1
        assert aggregate.executed_batches_by_variant.get(FAST) is None
        assert aggregate.executed_batches_by_variant.get(CHEAP) == 2
        # Decision-time placement chose the fast variant once; execution
        # realised both batches on the cheap one -- the predicted-vs-realised
        # split the savings gauges expose.
        assert aggregate.decisions_by_variant[FAST] == 1
        assert aggregate.decisions_by_variant[CHEAP] == 2

    def test_emptied_fleet_fails_requests_without_hanging(self, tiny_mlp_model, rng):
        """With every variant gone the batch fails cleanly (no silent hang)."""
        registry = ModelRegistry()
        engine = registry.register("only", tiny_mlp_model, arch=RAELLA_ARCH)
        registry.register_fleet("mlp", ["only"])
        original_run = engine.run
        run_started = threading.Event()
        release = threading.Event()
        calls = []

        def gated_run(inputs, **kwargs):
            calls.append(len(inputs))
            if len(calls) == 1:
                run_started.set()
                assert release.wait(timeout=10.0)
            return original_run(inputs, **kwargs)

        engine.run = gated_run
        inputs = rng.normal(0.0, 1.0, size=(2, 16))
        server = InferenceServer(
            registry,
            BatchingPolicy(max_batch_size=2, max_delay_s=0.0),
            max_workers=1,
        )
        with server:
            first = server.submit("mlp", inputs)
            assert run_started.wait(timeout=10.0)
            second = server.submit("mlp", inputs)
            assert len(server._queue) == 1  # queued behind the busy worker
            registry.unregister("only")
            release.set()
            np.testing.assert_array_equal(
                first.result(timeout=10.0), original_run(inputs)
            )
            with pytest.raises(KeyError):
                second.result(timeout=10.0)
        registry.close()
