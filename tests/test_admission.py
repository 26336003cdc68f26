"""Tests for :mod:`repro.serve.admission` and priority-aware worker dispatch.

The contract under test:

* :class:`AdmissionController` decisions follow the documented rule order
  (overload state, depth caps, inflight-cost caps, unmeetable deadline) and
  carry their evidence (queue depths, predicted latency, predicted slack);
* the overload state machine escalates with predicted backlog and
  de-escalates with hysteresis;
* a shed request never touches an engine, and its typed decision raises
  :class:`RequestShedError` when a result is demanded;
* admission outcomes and the DAC/ADC/crossbar/digital energy split flow into
  the telemetry exports;
* an idle worker forms the globally most urgent batch among the models
  below capacity (priority, then least slack, then arrival, with aged heads
  promoted) instead of FIFO-draining one model.
"""

import threading
import time

import numpy as np
import pytest

from repro.hw import RAELLA_ARCH
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    BatchingPolicy,
    InferenceServer,
    ModelRegistry,
    OverloadState,
    RequestShedError,
    ServerStoppedError,
)
from repro.serve.scheduler import InferenceFuture, InferenceRequest, RequestQueue


def per_sample_predictor(seconds_per_sample):
    """A deterministic latency predictor: n_samples * seconds_per_sample."""

    def predictor(model_name, n_samples):
        return n_samples * seconds_per_sample

    return predictor


def decide(
    controller,
    model_name="m",
    tenant=None,
    n_samples=1,
    priority=0,
    deadline_s=None,
    backlog=None,
    tenants=None,
    predictor=None,
):
    return controller.decide(
        request_id=0,
        model_name=model_name,
        tenant=tenant if tenant is not None else model_name,
        n_samples=n_samples,
        priority=priority,
        deadline_s=deadline_s,
        backlog_samples=backlog or {},
        tenants=tenants or {},
        predictor=predictor,
    )


class TestAdmissionPolicyValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="max_queue_samples_per_model"):
            AdmissionPolicy(max_queue_samples_per_model=0)
        with pytest.raises(ValueError, match="deadline_policy"):
            AdmissionPolicy(deadline_policy="drop")
        with pytest.raises(ValueError, match="slack_margin_s"):
            AdmissionPolicy(slack_margin_s=-0.1)
        with pytest.raises(ValueError, match="overload_exit_fraction"):
            AdmissionPolicy(overload_exit_fraction=0.0)
        with pytest.raises(ValueError, match="critical_enter_backlog_s"):
            AdmissionPolicy(overload_enter_backlog_s=2.0, critical_enter_backlog_s=1.0)


class TestControllerRules:
    def test_unloaded_request_accepted_with_evidence(self):
        controller = AdmissionController(AdmissionPolicy(max_queue_samples_per_model=8))
        decision = decide(
            controller,
            n_samples=2,
            deadline_s=1.0,
            predictor=per_sample_predictor(0.01),
        )
        assert decision.status == "accepted"
        assert decision.accepted
        assert decision.queue_depth_samples == 0
        assert decision.predicted_latency_s == pytest.approx(0.02)
        assert decision.predicted_slack_s == pytest.approx(0.98)
        assert decision.overload_state is OverloadState.ACCEPTING

    def test_model_depth_cap_sheds(self):
        controller = AdmissionController(AdmissionPolicy(max_queue_samples_per_model=8))
        decision = decide(controller, n_samples=4, backlog={"m": 6})
        assert decision.status == "shed"
        assert not decision.accepted
        assert decision.queue_depth_samples == 6
        assert "queue depth cap" in decision.reason

    def test_tenant_depth_cap_sums_models(self):
        controller = AdmissionController(
            AdmissionPolicy(max_queue_samples_per_tenant=10)
        )
        tenants = {"a": "acme", "b": "acme", "c": "other"}
        decision = decide(
            controller,
            model_name="a",
            tenant="acme",
            n_samples=4,
            backlog={"a": 3, "b": 5, "c": 50},
            tenants=tenants,
        )
        assert decision.status == "shed"
        assert decision.tenant_depth_samples == 8  # c's backlog not counted
        assert "tenant queue depth cap" in decision.reason
        # The same submit against a lighter tenant is admitted.
        decision = decide(
            controller,
            model_name="c",
            tenant="other",
            n_samples=4,
            backlog={"a": 3, "b": 5, "c": 5},
            tenants=tenants,
        )
        assert decision.status == "accepted"

    def test_inflight_cost_caps(self):
        policy = AdmissionPolicy(max_inflight_cost_s=0.5)
        controller = AdmissionController(policy)
        decision = decide(
            controller,
            n_samples=10,
            backlog={"m": 50},
            predictor=per_sample_predictor(0.01),
        )
        assert decision.status == "shed"
        assert "model inflight cost cap" in decision.reason
        # Without a predictor the cost cap is inert (nothing provable).
        assert decide(controller, n_samples=10, backlog={"m": 50}).accepted

    def test_tenant_inflight_cost_cap(self):
        controller = AdmissionController(
            AdmissionPolicy(max_tenant_inflight_cost_s=0.5)
        )
        tenants = {"a": "acme", "b": "acme"}
        decision = decide(
            controller,
            model_name="a",
            tenant="acme",
            n_samples=10,
            backlog={"a": 10, "b": 40},
            tenants=tenants,
            predictor=per_sample_predictor(0.01),
        )
        assert decision.status == "shed"
        assert "tenant inflight cost cap" in decision.reason

    def test_unmeetable_deadline_sheds_with_slack_evidence(self):
        controller = AdmissionController()
        decision = decide(
            controller,
            n_samples=2,
            deadline_s=0.05,
            backlog={"m": 8},
            predictor=per_sample_predictor(0.01),
        )
        assert decision.status == "shed"
        assert decision.predicted_latency_s == pytest.approx(0.10)
        assert decision.predicted_slack_s == pytest.approx(-0.05)
        assert "deadline unmeetable" in decision.reason

    def test_slack_margin_tightens_the_test(self):
        loose = AdmissionController(AdmissionPolicy())
        tight = AdmissionController(AdmissionPolicy(slack_margin_s=0.5))
        kwargs = dict(n_samples=1, deadline_s=0.3, predictor=per_sample_predictor(0.01))
        assert decide(loose, **kwargs).accepted
        assert decide(tight, **kwargs).status == "shed"

    def test_downgrade_policy_strips_slo(self):
        controller = AdmissionController(AdmissionPolicy(deadline_policy="downgrade"))
        decision = decide(
            controller,
            n_samples=2,
            deadline_s=0.01,
            backlog={"m": 50},
            predictor=per_sample_predictor(0.01),
        )
        assert decision.status == "downgraded"
        assert decision.accepted

    def test_no_deadline_no_predictor_accepts(self):
        controller = AdmissionController()
        assert decide(controller, n_samples=4, backlog={"m": 10**6}).accepted

    def test_failing_predictor_degrades_to_accept(self):
        def broken(name, n):
            raise RuntimeError("estimator died")

        controller = AdmissionController()
        decision = decide(
            controller,
            n_samples=1,
            deadline_s=0.001,
            backlog={"m": 10**6},
            predictor=broken,
        )
        assert decision.accepted
        assert decision.predicted_latency_s is None

    def test_counters_accumulate(self):
        controller = AdmissionController(AdmissionPolicy(max_queue_samples_per_model=2))
        decide(controller, n_samples=1)
        decide(controller, n_samples=1)
        decide(controller, n_samples=4)  # over the cap
        counters = controller.counters()
        assert counters.accepted == 2
        assert counters.shed == 1
        assert counters.decisions == 3


class TestOverloadStateMachine:
    def controller(self):
        return AdmissionController(
            AdmissionPolicy(
                overload_enter_backlog_s=1.0,
                critical_enter_backlog_s=2.0,
                overload_exit_fraction=0.5,
                critical_priority=2,
            )
        )

    def test_escalates_and_sheds_by_class(self):
        controller = self.controller()
        predictor = per_sample_predictor(0.01)
        # Backlog 1.5s: shed best-effort, keep SLO-tagged work.
        best_effort = decide(
            controller, n_samples=1, backlog={"m": 150}, predictor=predictor
        )
        assert controller.state is OverloadState.SHED_BEST_EFFORT
        assert best_effort.status == "shed"
        assert "best-effort" in best_effort.reason
        tagged = decide(
            controller,
            n_samples=1,
            priority=1,
            backlog={"m": 150},
            predictor=predictor,
        )
        assert tagged.accepted
        # Backlog 3s: critical, only priority >= 2 admitted.
        low = decide(
            controller,
            n_samples=1,
            priority=1,
            backlog={"m": 300},
            predictor=predictor,
        )
        assert controller.state is OverloadState.SHED_ALL_BUT_TOP
        assert low.status == "shed"
        assert "critical" in low.reason
        top = decide(
            controller,
            n_samples=1,
            priority=2,
            backlog={"m": 300},
            predictor=predictor,
        )
        assert top.accepted

    def test_hysteresis_on_the_way_down(self):
        controller = self.controller()
        predictor = per_sample_predictor(0.01)
        decide(controller, n_samples=1, backlog={"m": 300}, predictor=predictor)
        assert controller.state is OverloadState.SHED_ALL_BUT_TOP
        # 1.5s is below the 2s critical threshold but above its 1s exit
        # level (0.5 * 2s): the state must hold.
        decide(controller, n_samples=1, backlog={"m": 150}, predictor=predictor)
        assert controller.state is OverloadState.SHED_ALL_BUT_TOP
        # 0.9s: below the critical exit level, still above the overload
        # exit level (0.5 * 1s) -> de-escalate one step only.
        decide(controller, n_samples=1, backlog={"m": 90}, predictor=predictor)
        assert controller.state is OverloadState.SHED_BEST_EFFORT
        # 0.4s: fully recovered.
        decide(controller, n_samples=1, backlog={"m": 40}, predictor=predictor)
        assert controller.state is OverloadState.ACCEPTING
        assert controller.counters().state_transitions == 3

    def test_downgrade_is_shed_while_overloaded(self):
        controller = AdmissionController(
            AdmissionPolicy(deadline_policy="downgrade", overload_enter_backlog_s=1.0)
        )
        predictor = per_sample_predictor(0.01)
        decision = decide(
            controller,
            n_samples=1,
            priority=1,
            deadline_s=0.01,
            backlog={"m": 150},
            predictor=predictor,
        )
        # Slack is negative and the controller is shedding best-effort:
        # downgrading would admit work it is simultaneously rejecting.
        assert decision.status == "shed"


class TestRetract:
    """``retract`` undoes exactly one decision's counter -- the contract the
    server's stop/submit race handling leans on."""

    def test_retract_rolls_back_each_status(self):
        policy = AdmissionPolicy(
            max_queue_samples_per_model=4, deadline_policy="downgrade"
        )
        controller = AdmissionController(policy)
        accepted = decide(controller, n_samples=1)
        downgraded = decide(
            controller,
            n_samples=1,
            deadline_s=0.0001,
            predictor=per_sample_predictor(1.0),
        )
        shed = decide(controller, n_samples=1, backlog={"m": 4})
        statuses = [d.status for d in (accepted, downgraded, shed)]
        assert statuses == ["accepted", "downgraded", "shed"]
        before = controller.counters()
        assert (before.accepted, before.downgraded, before.shed) == (1, 1, 1)
        for decision in (accepted, downgraded, shed):
            controller.retract(decision)
        after = controller.counters()
        assert (after.accepted, after.downgraded, after.shed) == (0, 0, 0)
        # State transitions are deliberately untouched by retract.
        assert after.state_transitions == before.state_transitions

    def test_concurrent_decide_retract_storm_conserves_counters(self):
        """Counters stay exact when many threads decide and retract at once
        (the controller-level shape of the stop/submit race)."""
        controller = AdmissionController(AdmissionPolicy())
        retracted = threading.Barrier(4)
        kept_per_thread = 25

        def worker():
            retracted.wait()
            for i in range(100):
                decision = decide(controller, n_samples=1)
                if i % 4:  # 75 of 100 "failed to enqueue" and roll back
                    controller.retract(decision)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        counters = controller.counters()
        assert counters.accepted == 4 * kept_per_thread
        assert counters.shed == 0

    def test_stop_submit_race_never_leaks_a_count(self, tiny_mlp_model, rng):
        """Hammer submit from several threads while the server stops and
        restarts: every ServerStoppedError must leave no admission count,
        so accepted decisions equal requests actually enqueued."""
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model)
        admission = AdmissionController(AdmissionPolicy())
        server = InferenceServer(registry, admission=admission)
        inputs = np.abs(rng.normal(0, 1, size=(1, 16)))
        done = threading.Event()
        attempts, rejected = 0, 0
        tally = threading.Lock()

        def submitter():
            nonlocal attempts, rejected
            while not done.is_set():
                try:
                    server.submit("mlp", inputs)
                    with tally:
                        attempts += 1
                except ServerStoppedError:
                    with tally:
                        attempts += 1
                        rejected += 1

        server.start()
        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(8):  # keep closing the queue under the submitters
            time.sleep(0.002)
            server.stop()
            server.start()
        done.set()
        for thread in threads:
            thread.join()
        server.stop()
        stats = server.statistics()
        counters = admission.counters()
        assert rejected > 0, "the race never fired; tighten the schedule"
        assert counters.accepted == stats.requests_submitted
        assert counters.accepted + rejected == attempts


@pytest.fixture
def serving_registry(tiny_mlp_model):
    registry = ModelRegistry()
    registry.register("mlp", tiny_mlp_model, arch=RAELLA_ARCH)
    return registry


class TestServerIntegration:
    def test_submit_returns_accepted_decision_and_result(self, serving_registry, rng):
        server = InferenceServer(serving_registry)
        inputs = np.abs(rng.normal(0, 1, size=(3, 16)))
        decision = server.submit("mlp", inputs)
        assert decision.status == "accepted"
        assert decision.reason == "admission control disabled"
        with server:
            result = decision.result(timeout=30)
        direct = serving_registry.engine("mlp").run(inputs)
        assert np.array_equal(result, direct)

    def test_depth_cap_sheds_without_touching_an_engine(
        self, serving_registry, rng, tiny_mlp_model
    ):
        from repro.telemetry import TelemetryCollector

        telemetry = TelemetryCollector()
        controller = AdmissionController(AdmissionPolicy(max_queue_samples_per_model=4))
        server = InferenceServer(
            serving_registry, telemetry=telemetry, admission=controller
        )
        admitted = server.submit("mlp", np.abs(rng.normal(0, 1, size=(4, 16))))
        shed = server.submit("mlp", np.abs(rng.normal(0, 1, size=(4, 16))))
        assert admitted.status == "accepted"
        assert shed.status == "shed"
        assert shed.future is None
        assert shed.done()
        with pytest.raises(RequestShedError) as excinfo:
            shed.result()
        assert excinfo.value.decision is shed
        # Nothing executed: the shed decision was pure queue arithmetic.
        assert server.statistics().batches_executed == 0
        assert server.statistics().requests_shed == 1
        # Admission outcomes reached the collector.
        aggregate = telemetry.aggregate("mlp")
        assert aggregate.admitted_requests == 1
        assert aggregate.shed_requests == 1
        assert telemetry.overload_state == "accepting"
        assert "repro_admission_shed_total" in telemetry.to_prometheus()
        assert '"overload_state": "accepting"' in telemetry.export_json(
            include_traces=False
        )
        with server:
            admitted.result(timeout=30)

    def test_downgraded_request_completes_as_best_effort(self, serving_registry, rng):
        controller = AdmissionController(
            AdmissionPolicy(deadline_policy="downgrade"),
            latency_predictor=per_sample_predictor(10.0),
        )
        server = InferenceServer(serving_registry, admission=controller)
        decision = server.submit(
            "mlp", np.abs(rng.normal(0, 1, size=(2, 16))), deadline_s=0.01
        )
        assert decision.status == "downgraded"
        with server:
            result = decision.result(timeout=30)
        assert result.shape == (2, 4)
        stats = server.statistics()
        assert stats.requests_downgraded == 1
        assert stats.requests_submitted == 1

    def test_infer_raises_on_shed(self, serving_registry, rng):
        controller = AdmissionController(AdmissionPolicy(max_queue_samples_per_model=1))
        server = InferenceServer(serving_registry, admission=controller)
        with pytest.raises(RequestShedError, match="queue depth cap"):
            server.submit("mlp", np.abs(rng.normal(0, 1, size=(1, 16))))
            server.infer("mlp", np.abs(rng.normal(0, 1, size=(1, 16))))

    def test_registry_tenants(self, tiny_mlp_model, tiny_conv_model):
        registry = ModelRegistry()
        registry.register("a", tiny_mlp_model, tenant="acme")
        registry.register("b", tiny_conv_model)
        assert registry.tenant("a") == "acme"
        assert registry.tenant("b") == "b"
        assert registry.tenants() == {"a": "acme", "b": "b"}
        registry.unregister("a")
        with pytest.raises(KeyError):
            registry.tenant("a")

    def test_energy_split_sums_to_total(self, serving_registry, rng):
        from repro.telemetry import TelemetryCollector

        telemetry = TelemetryCollector()
        server = InferenceServer(serving_registry, telemetry=telemetry)
        with server:
            server.infer("mlp", np.abs(rng.normal(0, 1, size=(3, 16))))
        trace = telemetry.traces("mlp")[0]
        split = trace.modeled_energy_components_pj
        assert set(split) == {"adc", "dac", "crossbar", "digital"}
        assert sum(split.values()) == pytest.approx(trace.modeled_energy_pj, rel=1e-9)
        # The split also matches the cost model's full component breakdown.
        cost = serving_registry.cost_model("mlp")
        breakdown = cost.energy_breakdown().components_pj
        for key in ("adc", "dac", "crossbar"):
            assert split[key] == pytest.approx(breakdown[key] * 3, rel=1e-9)
        aggregate = telemetry.aggregate("mlp")
        assert aggregate.modeled_energy_components_pj["adc"] == pytest.approx(
            split["adc"]
        )
        assert "component=\"digital\"" in telemetry.to_prometheus()


def make_request(index, priority=0, deadline_s=None, age_s=0.0, samples=1):
    now = time.monotonic()
    return InferenceRequest(
        model_name=f"m{index}",
        inputs=np.zeros((samples, 2)),
        future=InferenceFuture(),
        enqueued_at=now - age_s,
        priority=priority,
        deadline_s=None if deadline_s is None else now + deadline_s,
    )


class TestDispatchUrgency:
    """White-box tests of the queue's pick for an idle worker.

    The queue is closed (drain mode), so every model is ready and only the
    urgency order and the models' capacity decide.  A 10 s delay budget is
    the slack of a deadline-free batch, so it ranks behind the deadlines
    used here.
    """

    POLICY = BatchingPolicy(max_delay_s=10.0, starvation_limit_s=0.5)

    def select(self, requests, busy=(), slo_mode=True):
        queue = RequestQueue(slo_mode=slo_mode)
        for request in requests:
            queue.submit(request)
        queue.close()

        def place(name, samples, deadline_s):
            return None if name in busy else (name, None)

        return queue.next_batch(self.POLICY, place).requests[0].model_name

    def test_priority_beats_formation_order(self):
        chosen = self.select([make_request(0, priority=0), make_request(1, priority=3)])
        assert chosen == "m1"

    def test_edf_within_a_priority_class(self):
        chosen = self.select(
            [
                make_request(0),  # no deadline: its 10 s budget ranks last
                make_request(1, deadline_s=5.0),
                make_request(2, deadline_s=0.5),
            ]
        )
        assert chosen == "m2"

    def test_formation_order_breaks_ties(self):
        chosen = self.select([make_request(0, priority=1), make_request(1, priority=1)])
        assert chosen == "m0"

    def test_active_model_is_skipped(self):
        chosen = self.select(
            [make_request(0, priority=3), make_request(1)], busy=("m0",)
        )
        assert chosen == "m1"

    def test_fifo_mode_dispatches_in_formation_order(self):
        # slo_scheduling=False is the benchmarks' FIFO baseline: dispatch
        # must ignore priorities/deadlines end to end.
        chosen = self.select(
            [make_request(0), make_request(1, priority=3)], slo_mode=False
        )
        assert chosen == "m0"

    def test_starved_batch_promoted_over_priority(self):
        chosen = self.select([make_request(0, age_s=1.0), make_request(1, priority=3)])
        assert chosen == "m0"  # older than the 0.5s limit -> top class, less slack

    def test_workers_jump_to_urgent_model(self, tiny_mlp_model, rng):
        """End to end: a high-priority batch overtakes a busy model's queue.

        One worker serialises execution and model "slow" gets an artificial
        engine delay, so its requests pile up; a later high-priority "fast"
        request must dispatch before the backlog drains (a FIFO-by-age
        dispatcher would drain all of "slow" first).
        """
        from repro.telemetry import TelemetryCollector

        registry = ModelRegistry()
        registry.register("slow", tiny_mlp_model)
        fast_model = tiny_mlp_model  # same weights, separate hosted name
        registry.register("fast", fast_model)
        engine = registry.engine("slow")
        original_run = engine.run

        def delayed_run(inputs, **kwargs):
            time.sleep(0.03)
            return original_run(inputs, **kwargs)

        engine.run = delayed_run
        try:
            telemetry = TelemetryCollector()
            server = InferenceServer(
                registry,
                BatchingPolicy(max_batch_size=1, max_delay_s=0.0),
                max_workers=1,
                telemetry=telemetry,
            )
            slow_inputs = [np.abs(rng.normal(0, 1, size=(1, 16))) for _ in range(6)]
            slow = [server.submit("slow", x) for x in slow_inputs]
            with server:
                time.sleep(0.02)  # let the first slow batch start executing
                fast = server.submit(
                    "fast", np.abs(rng.normal(0, 1, size=(1, 16))), priority=5
                )
                fast.result(timeout=30)
                for decision in slow:
                    decision.result(timeout=30)
            fast_trace = telemetry.traces("fast")[0]
            slow_formations = sorted(t.formed_at for t in telemetry.traces("slow"))
            # The high-priority batch must not run last: at least one slow
            # batch was still waiting when it was formed.
            assert fast_trace.formed_at < slow_formations[-1]
        finally:
            engine.run = original_run
