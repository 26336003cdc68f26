"""Tests for N-way replica pools and their self-healing behaviour.

The pool contract extends the process-engine contract: hosting a model on N
replicas is a pure scheduling change, so outputs (including seeded noise
draws, which pin dispatch to one replica) stay *bit-identical* to the
in-process :class:`~repro.runtime.NetworkEngine` -- and a replica crash is
invisible to callers: the in-flight batch is requeued onto a sibling and the
dead worker restarted in the background.
"""

import multiprocessing
import os
import signal
import sys
import threading
import time
from multiprocessing import get_all_start_methods

import numpy as np
import pytest

from repro.analog.noise import GaussianColumnNoise
from repro.core.center_offset import CenterOffsetEncoder
from repro.core.executor import PimLayerConfig
from repro.runtime import (
    EncodedWeightCache,
    NetworkEngine,
    ReplicaPool,
    WorkerStartupError,
    compile_model_plan,
    procpool,
    vectorized,
)
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    BatchingPolicy,
    InferenceServer,
    ModelRegistry,
)
from repro.telemetry import TelemetryCollector
from tests.test_procpool import launch_pool, reference_engine
from tests.test_runtime_engine import assert_stats_equal


def wait_until(predicate, timeout_s=30.0, interval_s=0.02):
    """Poll ``predicate`` until true or the deadline passes."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


class ExplodingOnUnpickle:
    """A noise model that pickles fine here but detonates worker-side.

    ``__setstate__`` runs while the worker rebuilds the spec, before the
    boot handshake -- exactly the window :class:`WorkerStartupError` and its
    stderr tail exist to diagnose.
    """

    def __init__(self):
        self.armed = True

    def apply(self, positive_sums, negative_sums):  # pragma: no cover
        return positive_sums - negative_sums

    def __setstate__(self, state):
        print("synthetic worker boot failure", file=sys.stderr, flush=True)
        os._exit(7)


class UnpicklableNoise:
    """A noise model that cannot cross a process boundary at all."""

    def apply(self, positive_sums, negative_sums):  # pragma: no cover
        return positive_sums - negative_sums

    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


class HangingOnUnpickle:
    """A noise model whose worker-side rebuild never finishes."""

    def __init__(self):
        self.armed = True

    def apply(self, positive_sums, negative_sums):  # pragma: no cover
        return positive_sums - negative_sums

    def __setstate__(self, state):  # pragma: no cover - runs in the worker
        time.sleep(60)


class TestReplicaPoolParity:
    def test_noiseless_outputs_bit_identical(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(7, 16)))
        reference = reference_engine(tiny_mlp_model)
        with launch_pool(tiny_mlp_model, replicas=2) as pool:
            assert pool.replicas == 2
            assert pool.healthy_replicas == 2
            assert pool.dispatch_width == 2
            for _ in range(3):
                assert np.array_equal(reference.run(inputs), pool.run(inputs))
            assert np.array_equal(reference.predict(inputs), pool.predict(inputs))

    def test_seeded_noise_pins_dispatch_and_draws_identically(
        self, tiny_mlp_model, rng
    ):
        # A stateful noise RNG cannot be split across replicas without
        # changing the draw order, so dispatch degrades to one replica and
        # the draw sequence must match the in-process engine exactly.
        inputs = np.abs(rng.normal(0, 1, size=(9, 16)))
        reference = reference_engine(
            tiny_mlp_model, noise=GaussianColumnNoise(level=0.08, seed=5)
        )
        with launch_pool(
            tiny_mlp_model,
            noise=GaussianColumnNoise(level=0.08, seed=5),
            replicas=2,
        ) as pool:
            assert pool.dispatch_width == 1
            for _ in range(2):
                assert np.array_equal(reference.run(inputs), pool.run(inputs))

    def test_run_timed_records_carry_replica_index(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(5, 16)))
        with launch_pool(tiny_mlp_model, replicas=2) as pool:
            _outputs, elapsed, records = pool.run_timed(inputs)
            assert elapsed > 0
            assert len(records) == 1
            n_samples, seconds, replica = records[0]
            assert n_samples == 5
            assert seconds > 0
            assert replica in ("0", "1")

    def test_layer_statistics_merge_across_replicas(self, tiny_mlp_model, rng):
        first = np.abs(rng.normal(0, 1, size=(4, 16)))
        second = np.abs(rng.normal(0, 1, size=(6, 16)))
        reference = reference_engine(tiny_mlp_model)
        reference.run(first)
        reference.run(second)
        with launch_pool(tiny_mlp_model, replicas=2) as pool:
            h0, _h1 = pool._handles
            pool.run(first)  # idle pool: least-loaded picks replica 0
            h0.inflight += 1  # force the next batch onto replica 1
            try:
                pool.run(second)
            finally:
                h0.inflight -= 1
            remote = pool.layer_statistics()
            for name, stats in reference.layer_statistics().items():
                assert_stats_equal(stats, remote[name])
            assert_stats_equal(
                reference.network_statistics(), pool.network_statistics()
            )
            pool.reset_statistics()
            assert pool.network_statistics().n_inputs == 0

    def test_least_loaded_dispatch(self, tiny_mlp_model):
        with launch_pool(tiny_mlp_model, replicas=2) as pool:
            h0, h1 = pool._handles
            handle, _worker = pool._acquire()
            assert handle is h0  # idle pool: ties break by index
            inner, _worker = pool._acquire()
            assert inner is h1  # replica 0 busy: load steers to replica 1
            pool._release(inner)
            pool._release(handle)


class TestSelfHealing:
    def test_sigkill_mid_batch_requeues_onto_sibling(self, tiny_mlp_model, rng):
        # The batch riding the killed replica must complete bit-identically
        # on a sibling with zero caller-visible failures, and the dead slot
        # must come back healthy with a fresh process.
        inputs = np.abs(rng.normal(0, 1, size=(4096, 16)))
        expected = reference_engine(tiny_mlp_model).run(inputs)
        with launch_pool(tiny_mlp_model, replicas=2, probe_interval_s=0.05) as pool:
            results = {}
            import threading

            def run():
                results["outputs"] = pool.run(inputs)

            runner = threading.Thread(target=run)
            runner.start()
            busy = None

            def find_busy():
                nonlocal busy
                for handle in pool._handles:
                    if handle.inflight > 0:
                        busy = handle.pid
                        return True
                return False

            assert wait_until(find_busy)
            os.kill(busy, signal.SIGKILL)
            runner.join(timeout=60)
            assert not runner.is_alive()
            assert np.array_equal(results["outputs"], expected)
            assert wait_until(
                lambda: pool.restart_count >= 1 and pool.healthy_replicas == 2
            )
            assert busy not in pool.replica_pids()

    def test_idle_crash_detected_by_prober_and_restarted(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(4, 16)))
        expected = reference_engine(tiny_mlp_model).run(inputs)
        with launch_pool(tiny_mlp_model, replicas=2, probe_interval_s=0.05) as pool:
            victim = pool.replica_pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert wait_until(
                lambda: pool.restart_count >= 1 and pool.healthy_replicas == 2
            )
            health = pool.pool_health()
            assert health["healthy"] == 2
            assert health["replicas"] == 2
            assert health["restarts"] >= 1
            assert victim not in pool.replica_pids()
            assert np.array_equal(pool.run(inputs), expected)

    def test_each_spec_is_pickled_once_for_all_its_workers(
        self, tiny_mlp_model, rng, monkeypatch
    ):
        # Launch, crash-restarts and a rolling replace boot every worker of
        # one spec from the bytes checked when the spec was made.
        pickles = []
        original = procpool._pickle_spec

        def counting_pickle(spec):
            pickles.append(spec)
            return original(spec)

        monkeypatch.setattr(procpool, "_pickle_spec", counting_pickle)
        inputs = np.abs(rng.normal(0, 1, size=(4, 16)))
        expected = reference_engine(tiny_mlp_model).run(inputs)
        with launch_pool(tiny_mlp_model, replicas=2, probe_interval_s=0.05) as pool:
            assert len(pickles) == 1
            os.kill(pool.replica_pids()[0], signal.SIGKILL)
            assert wait_until(
                lambda: pool.restart_count >= 1 and pool.healthy_replicas == 2
            )
            assert len(pickles) == 1
            pool.replace(tiny_mlp_model, compile_model_plan(tiny_mlp_model), replicas=3)
            assert len(pickles) == 2
            assert pool.healthy_replicas == 3
            assert np.array_equal(pool.run(inputs), expected)

    def test_startup_crash_raises_typed_error_with_stderr_tail(self, tiny_mlp_model):
        with pytest.raises(WorkerStartupError, match="failed to start") as info:
            launch_pool(tiny_mlp_model, noise=ExplodingOnUnpickle(), replicas=1)
        assert "synthetic worker boot failure" in info.value.stderr_tail
        assert "synthetic worker boot failure" in str(info.value)

    def test_startup_timeout_raises_typed_error(self, tiny_mlp_model):
        with pytest.raises(WorkerStartupError, match="failed to start"):
            launch_pool(
                tiny_mlp_model,
                noise=HangingOnUnpickle(),
                replicas=1,
                start_timeout_s=0.2,
                shutdown_timeout_s=0.5,
            )

    def test_timeouts_and_replica_counts_validated(self, tiny_mlp_model):
        with pytest.raises(ValueError, match="timeout"):
            launch_pool(tiny_mlp_model, start_timeout_s=0.0)
        with pytest.raises(ValueError, match="replicas"):
            launch_pool(tiny_mlp_model, replicas=0)
        with pytest.raises(ValueError, match="blas_threads"):
            launch_pool(tiny_mlp_model, blas_threads=0)


class TestOneMaintenanceThread:
    """The prober is the pool's only thread, and the only code that restarts."""

    def test_close_waits_for_a_restart_in_progress(self, tiny_mlp_model):
        # The prober starts booting a replacement, and the boot only goes on
        # once close() has begun: close() must not return before it ends.
        booting, booted = threading.Event(), threading.Event()
        with launch_pool(tiny_mlp_model, replicas=1, probe_interval_s=0.05) as pool:
            spawn = pool._spawn

            def spawn_during_close(handle):
                booting.set()
                assert wait_until(lambda: pool.closed)
                try:
                    return spawn(handle)
                finally:
                    booted.set()

            pool._spawn = spawn_during_close
            os.kill(pool.replica_pids()[0], signal.SIGKILL)
            assert booting.wait(timeout=30)
        assert booted.is_set()
        assert not pool._prober.is_alive()
        assert pool.restart_count == 0  # the late boot was discarded

    def test_restart_after_close_boots_nothing(self, tiny_mlp_model):
        pool = launch_pool(tiny_mlp_model, replicas=1)
        handle = pool._handles[0]
        pool.close()
        spawns = []
        pool._spawn = spawns.append
        handle.state = procpool._DEAD  # even a slot marked dead stays empty
        pool._restart(handle)
        assert spawns == []
        assert handle.pid is None

    def test_pool_heals_from_losing_every_replica(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(4, 16)))
        expected = reference_engine(tiny_mlp_model).run(inputs)
        peak = 0

        with launch_pool(tiny_mlp_model, replicas=2, probe_interval_s=0.05) as pool:

            def healed():
                nonlocal peak
                threads = [
                    t
                    for t in threading.enumerate()
                    if t.name.startswith("replica-") and tiny_mlp_model.name in t.name
                ]
                peak = max(peak, len(threads))
                return pool.restart_count >= 2 and pool.healthy_replicas == 2

            victims = pool.replica_pids()
            for pid in victims:
                os.kill(pid, signal.SIGKILL)
            assert wait_until(healed, interval_s=0.005)
            assert peak == 1
            assert not set(victims) & set(pool.replica_pids())
            assert np.array_equal(pool.run(inputs), expected)


class TestEngineIsItsPlan:
    """A pool is described by its model, its compiled plan and its noise."""

    @pytest.mark.parametrize(
        "case", ["noiseless", "seeded_noise", "plan_micro_batch", "replace"]
    )
    def test_outputs_and_counters_match_the_in_process_engine(
        self, tiny_mlp_model, case, rng
    ):
        def noise():
            if case == "seeded_noise":
                return GaussianColumnNoise(level=0.08, seed=5)
            return None

        micro_batch = 4 if case == "plan_micro_batch" else None
        config = PimLayerConfig(adc_bits=5) if case == "replace" else None
        inputs = np.abs(rng.normal(0, 1, size=(9, 16)))
        reference = reference_engine(
            tiny_mlp_model, config=config, noise=noise(), micro_batch=micro_batch
        )
        with launch_pool(
            tiny_mlp_model, noise=noise(), micro_batch=micro_batch, replicas=2
        ) as pool:
            if case == "replace":
                plan = compile_model_plan(tiny_mlp_model, config)
                assert plan.config != PimLayerConfig()
                pool.replace(tiny_mlp_model, plan)
            for _ in range(2):
                assert pool.run(inputs).tobytes() == reference.run(inputs).tobytes()
            remote = pool.layer_statistics()
            for name, stats in reference.layer_statistics().items():
                assert_stats_equal(stats, remote[name])

    def test_workers_never_encode_weights(self, tiny_mlp_model, rng, monkeypatch):
        # The plan is compiled here; forked workers inherit the patches
        # below, so a worker (or a crash restart) that encoded weights or
        # even consulted the encoded-weight cache would fail to boot.
        if "fork" not in get_all_start_methods():
            pytest.skip("fork start method unavailable")
        inputs = np.abs(rng.normal(0, 1, size=(6, 16)))
        reference = reference_engine(tiny_mlp_model)
        expected = reference.run(inputs)
        plan = compile_model_plan(tiny_mlp_model)

        def refuse(*args, **kwargs):
            raise AssertionError("a worker encoded weights")

        monkeypatch.setattr(CenterOffsetEncoder, "encode", refuse)
        monkeypatch.setattr(EncodedWeightCache, "encoded_chunks", refuse)
        with ReplicaPool.launch(
            tiny_mlp_model,
            plan,
            replicas=1,
            start_method="fork",
            probe_interval_s=0.05,
        ) as pool:
            assert pool.run(inputs).tobytes() == expected.tobytes()
            assert_stats_equal(
                reference.network_statistics(), pool.network_statistics()
            )
            os.kill(pool.replica_pids()[0], signal.SIGKILL)
            assert wait_until(
                lambda: pool.restart_count >= 1 and pool.healthy_replicas == 1
            )
            assert pool.run(inputs).tobytes() == expected.tobytes()

    def test_a_plan_of_another_model_is_rejected_before_boot(
        self, tiny_mlp_model, tiny_conv_model
    ):
        with pytest.raises(ValueError, match="not compiled for layer"):
            ReplicaPool.launch(tiny_conv_model, compile_model_plan(tiny_mlp_model))
        assert not multiprocessing.active_children()


class TestBlasPinning:
    def test_workers_report_pinned_thread_counts(self, tiny_mlp_model):
        with launch_pool(tiny_mlp_model, replicas=2, blas_threads=2) as pool:
            metas = [handle.worker.ping() for handle in pool._handles]
            assert {meta["blas_threads"] for meta in metas} == {"2"}
            assert len({meta["pid"] for meta in metas}) == 2

    def test_default_is_one_thread_per_worker(self, tiny_mlp_model):
        with launch_pool(tiny_mlp_model, replicas=1) as pool:
            meta = pool._handles[0].worker.ping()
            assert meta["blas_threads"] == "1"

    def test_forked_replicas_resize_an_unpinned_parents_blas_pool(self, tiny_mlp_model):
        """A forked worker inherits its parent's started BLAS pool, which no
        longer reads the pin variables; the live resize must still pin it."""
        if "fork" not in get_all_start_methods():
            pytest.skip("fork start method unavailable")
        controls = procpool._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS loaded in this process")
        get_threads, set_threads = controls[0]
        saved = get_threads()
        set_threads(2)  # an unpinned parent on a two-core host
        try:
            assert procpool._blas_pool_threads() == 2
            with launch_pool(tiny_mlp_model, replicas=2, start_method="fork") as pool:
                metas = [handle.worker.ping() for handle in pool._handles]
            assert [meta["blas_pool_threads"] for meta in metas] == [1, 1]
            with launch_pool(
                tiny_mlp_model, replicas=1, blas_threads=None, start_method="fork"
            ) as pool:  # unpinned workers keep the parent's pool
                assert pool._handles[0].worker.ping()["blas_pool_threads"] == 2
        finally:
            set_threads(saved)

    def test_missing_blas_setter_is_reported(self, monkeypatch):
        monkeypatch.setattr(procpool, "_openblas_thread_controls", lambda: [])
        for var in vectorized.BLAS_ENV_VARS:  # restored after the test
            monkeypatch.setenv(var, "2")
        monkeypatch.setattr(vectorized, "TILE_WORKERS", vectorized.TILE_WORKERS)
        with pytest.warns(RuntimeWarning, match="BLAS"):
            procpool._limit_blas_threads(1)
        assert procpool._blas_pool_threads() is None


class TestRegistryReplicas:
    def test_register_with_replicas(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(4, 16)))
        with ModelRegistry() as registry:
            engine = registry.register(
                "mlp", tiny_mlp_model, backend="process", replicas=2
            )
            assert isinstance(engine, ReplicaPool)
            assert engine.replicas == 2
            assert np.array_equal(
                reference_engine(tiny_mlp_model, float32=True).run(inputs),
                engine.run(inputs),
            )

    def test_replicas_require_process_backend(self, tiny_mlp_model):
        registry = ModelRegistry()
        with pytest.raises(ValueError, match="replicas"):
            registry.register("a", tiny_mlp_model, replicas=2)
        with pytest.raises(ValueError, match="replicas"):
            registry.register("b", tiny_mlp_model, backend="process", replicas=0)

    def test_rolling_replace_keeps_pool_and_resizes(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(4, 16)))
        expected = reference_engine(tiny_mlp_model, float32=True).run(inputs)
        with ModelRegistry() as registry:
            engine = registry.register(
                "mlp", tiny_mlp_model, backend="process", replicas=2
            )
            old_pids = set(engine.replica_pids())
            rolled = registry.register(
                "mlp",
                tiny_mlp_model,
                backend="process",
                replicas=3,
                replace=True,
            )
            # The pool object survives the roll: in-flight dispatches keep a
            # valid engine reference while every worker is replaced.
            assert rolled is engine
            assert engine.replicas == 3
            assert engine.healthy_replicas == 3
            assert not old_pids & set(engine.replica_pids())
            assert np.array_equal(engine.run(inputs), expected)
            # replicas=None keeps the rolled width.
            registry.register("mlp", tiny_mlp_model, backend="process", replace=True)
            assert engine.replicas == 3
            # Without replace the duplicate is still rejected.
            with pytest.raises(ValueError, match="already registered"):
                registry.register("mlp", tiny_mlp_model, backend="process")

    def test_unpicklable_replace_leaves_the_pool_untouched(self, tiny_mlp_model, rng):
        # The spec is checked before the roll starts: no worker is booted
        # or retired, and the old spec keeps serving.
        inputs = np.abs(rng.normal(0, 1, size=(4, 16)))
        with launch_pool(tiny_mlp_model, replicas=2) as pool:
            before = pool.run(inputs)
            pids = pool.replica_pids()
            with pytest.raises(ValueError, match="not picklable"):
                noise = UnpicklableNoise()
                plan = compile_model_plan(tiny_mlp_model, noise=noise)
                pool.replace(tiny_mlp_model, plan, noise=noise)
            assert pool.replica_pids() == pids
            assert np.array_equal(pool.run(inputs), before)

    def test_replace_swaps_backend_kinds(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(4, 16)))
        with ModelRegistry() as registry:
            pool = registry.register(
                "mlp", tiny_mlp_model, backend="process", replicas=2
            )
            threaded = registry.register(
                "mlp", tiny_mlp_model, backend="thread", replace=True
            )
            assert isinstance(threaded, NetworkEngine)
            assert pool.closed  # the displaced pool is drained and closed
            assert np.array_equal(
                reference_engine(tiny_mlp_model, float32=True).run(inputs),
                threaded.run(inputs),
            )

    def test_unregister_and_close_idempotent(self, tiny_mlp_model):
        registry = ModelRegistry()
        engine = registry.register("mlp", tiny_mlp_model, backend="process", replicas=2)
        assert registry.unregister("mlp") is True
        assert engine.closed
        assert registry.unregister("mlp") is False
        registry.register("again", tiny_mlp_model, backend="process")
        registry.close()
        registry.close()
        assert len(registry) == 0


class TestServingIntegration:
    def test_server_records_per_replica_telemetry(self, tiny_mlp_model, rng):
        telemetry = TelemetryCollector()
        policy = BatchingPolicy(max_batch_size=8, max_delay_s=0.001)
        with ModelRegistry() as registry:
            registry.register("mlp", tiny_mlp_model, backend="process", replicas=2)
            with InferenceServer(registry, policy, telemetry=telemetry) as server:
                futures = [
                    server.submit("mlp", np.abs(rng.normal(0, 1, size=(4, 16))))
                    for _ in range(10)
                ]
                outputs = [future.result() for future in futures]
        assert all(out.shape == (4, 4) for out in outputs)
        aggregate = telemetry.aggregates()["mlp"]
        assert aggregate.replicas_total == 2
        assert aggregate.replicas_healthy == 2
        assert aggregate.worker_restarts == 0
        per_replica = aggregate.replica_engine_runs
        assert sum(r["runs"] for r in per_replica.values()) == aggregate.engine_runs
        assert (
            sum(r["samples"] for r in per_replica.values())
            == aggregate.engine_run_samples
        )
        payload = aggregate.as_dict()
        assert payload["replicas_total"] == 2
        assert payload["replica_engine_runs"] == per_replica
        prometheus = telemetry.to_prometheus()
        assert 'repro_replicas_total{model="mlp"} 2' in prometheus
        assert 'repro_replicas_healthy{model="mlp"} 2' in prometheus
        assert 'repro_worker_restarts_total{model="mlp"} 0' in prometheus
        assert "repro_replica_engine_runs_total" in prometheus

    def test_admission_predictions_scale_with_replicas(self):
        controller = AdmissionController(AdmissionPolicy())

        def predictor(model_name, n_samples):
            return n_samples * 0.1

        kwargs = dict(
            request_id=0,
            model_name="m",
            tenant="m",
            n_samples=10,
            priority=0,
            deadline_s=0.7,
            backlog_samples={},
            tenants={},
            predictor=predictor,
        )
        # One engine predicts 1.0s for 10 samples: the 0.7s deadline is
        # provably unmeetable.  Two healthy replicas halve the drain time
        # and the same request is admitted.
        assert controller.decide(**kwargs).status == "shed"
        decision = controller.decide(**kwargs, replica_counts={"m": 2})
        assert decision.status == "accepted"
