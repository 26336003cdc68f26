"""Tests for the serving layer: float32 fast path, registry, server.

The serving contract mirrors the runtime's: everything stays *bit-identical*
to the sequential float64 :class:`~repro.runtime.NetworkEngine` path --
coalescing requests and the float32 GEMM fast path are pure
scheduling/throughput changes.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.analog.noise import GaussianColumnNoise
from repro.core.executor import PimLayerConfig, PimLayerExecutor
from repro.runtime import ExecutorPool, NetworkEngine, float32_gemm_is_exact
from repro.runtime.vectorized import VectorizedLayerExecutor
from repro.serve import (
    BatchingPolicy,
    InferenceServer,
    ModelRegistry,
    ServerStoppedError,
)
from tests.test_runtime_engine import assert_stats_equal


def private_pool(**kwargs) -> ExecutorPool:
    """A pool with no shared weight cache, for isolated parity comparisons."""
    return ExecutorPool(weight_cache=None, **kwargs)


class TestFloat32FastPath:
    def test_exactness_predicate(self):
        # 512 rows of 4-bit slice products: bound 512 * 15 * 30 << 2**24.
        safe = np.full((512, 8), 30, dtype=np.int64)
        assert float32_gemm_is_exact(15, safe)
        # One huge weight pushes the bound past the 24-bit mantissa.
        unsafe = np.full((1, 1), 1 << 22, dtype=np.int64)
        assert not float32_gemm_is_exact(15, unsafe)
        assert float32_gemm_is_exact(15, np.empty((0, 0)))

    def test_default_config_uses_float32(self, tiny_linear_layer):
        executor = VectorizedLayerExecutor(
            tiny_linear_layer, PimLayerConfig(), weight_cache=None, float32=True
        )
        assert [o.dtype for o in executor.layer_plan.operands] == [np.float32]

    def test_opt_out_stays_float64(self, tiny_linear_layer):
        executor = VectorizedLayerExecutor(
            tiny_linear_layer, PimLayerConfig(), weight_cache=None, float32=False
        )
        assert [o.dtype for o in executor.layer_plan.operands] == [np.float64]

    @pytest.mark.parametrize("rows", [512, 7])  # single and multi chunk
    def test_outputs_and_stats_bit_identical(
        self, rows, tiny_linear_layer, tiny_patches
    ):
        config = PimLayerConfig(crossbar_rows=rows, collect_column_sums=True)
        reference = PimLayerExecutor(tiny_linear_layer, config)
        fast = VectorizedLayerExecutor(
            tiny_linear_layer, config, weight_cache=None, float32=True
        )
        assert np.float32 in [o.dtype for o in fast.layer_plan.operands]
        assert np.array_equal(reference.matmul(tiny_patches), fast.matmul(tiny_patches))
        assert_stats_equal(reference.stats, fast.stats)

    def test_seeded_noise_bit_identical(self, tiny_linear_layer, tiny_patches):
        config = PimLayerConfig()
        reference = VectorizedLayerExecutor(
            tiny_linear_layer,
            config,
            noise=GaussianColumnNoise(level=0.08, seed=3),
            weight_cache=None,
            float32=False,
        )
        fast = VectorizedLayerExecutor(
            tiny_linear_layer,
            config,
            noise=GaussianColumnNoise(level=0.08, seed=3),
            weight_cache=None,
            float32=True,
        )
        assert np.array_equal(reference.matmul(tiny_patches), fast.matmul(tiny_patches))
        assert_stats_equal(reference.stats, fast.stats)

    def test_engine_level_parity(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(6, 16)))
        reference = NetworkEngine.build(
            tiny_mlp_model, pool=private_pool(), float32=False
        )
        fast = NetworkEngine.build(tiny_mlp_model, pool=private_pool(), float32=True)
        assert np.array_equal(reference.run(inputs), fast.run(inputs))
        assert_stats_equal(reference.network_statistics(), fast.network_statistics())

    def test_pool_keys_float32_separately(self, tiny_linear_layer):
        pool = private_pool()
        plain = pool.get(tiny_linear_layer, PimLayerConfig(), float32=False)
        fast = pool.get(tiny_linear_layer, PimLayerConfig(), float32=True)
        assert plain is not fast and len(pool) == 2
        assert pool.get(tiny_linear_layer, PimLayerConfig(), float32=True) is fast


class TestModelRegistry:
    def test_register_and_lookup(self, tiny_mlp_model):
        registry = ModelRegistry()
        engine = registry.register("mlp", tiny_mlp_model)
        assert registry.engine("mlp") is engine
        assert registry.model("mlp") is tiny_mlp_model
        assert "mlp" in registry and registry.names() == ["mlp"] and len(registry) == 1

    def test_duplicate_name_rejected(self, tiny_mlp_model):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model)
        with pytest.raises(ValueError):
            registry.register("mlp", tiny_mlp_model)

    def test_uncalibrated_model_rejected(self, rng):
        from repro.nn.layers import Linear
        from repro.nn.model import QuantizedModel
        from repro.nn.synthetic import synthetic_linear_weights

        model = QuantizedModel(
            "raw",
            [Linear("fc", synthetic_linear_weights(4, 8, rng))],
            input_shape=(8,),
        )
        with pytest.raises(ValueError):
            ModelRegistry().register("raw", model)

    def test_unknown_lookup_and_unregister(self, tiny_mlp_model):
        registry = ModelRegistry()
        with pytest.raises(KeyError):
            registry.engine("ghost")
        assert registry.unregister("ghost") is False
        registry.register("mlp", tiny_mlp_model)
        assert registry.unregister("mlp") is True
        assert registry.unregister("mlp") is False
        assert "mlp" not in registry

    def test_tenants_share_pool_and_weight_cache(self, tiny_mlp_model, rng):
        from repro.nn.layers import Linear
        from repro.nn.model import QuantizedModel
        from repro.nn.synthetic import synthetic_linear_weights

        registry = ModelRegistry()
        registry.register("a", tiny_mlp_model)
        # One encoding per layer, through the registry's shared weight cache.
        assert registry.weight_cache.misses == len(tiny_mlp_model.matmul_layers())
        # A twin tenant with identical weight codes reuses the encodings.
        weights = synthetic_linear_weights(4, 8, rng)
        twins = []
        inputs = np.abs(rng.normal(0, 1, size=(16, 8)))
        for name in ("twin_a", "twin_b"):
            layer = Linear(f"{name}_fc", weights.copy())
            model = QuantizedModel(name, [layer], input_shape=(8,))
            model.calibrate(inputs)
            twins.append(model)
        before = registry.weight_cache.misses
        for name, model in zip(("b", "c"), twins):
            registry.register(name, model)
        assert registry.weight_cache.misses == before + 1
        assert registry.weight_cache.hits >= 1


class TestInferenceServer:
    @pytest.fixture
    def registry(self, tiny_mlp_model):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model)
        return registry

    def test_deterministic_batching_and_bit_identical_results(self, registry, rng):
        inputs = np.abs(rng.normal(0, 1, size=(10, 16)))
        direct = registry.engine("mlp").run(inputs)
        server = InferenceServer(
            registry, BatchingPolicy(max_batch_size=4, max_delay_s=10.0)
        )
        # Submitting before start makes batch formation deterministic; waiting
        # after stop() lets the trailing partial batch dispatch via queue
        # drain instead of idling out the 10s latency budget.
        futures = [server.submit("mlp", inputs[i : i + 1]) for i in range(10)]
        with server:
            pass
        results = [f.result(timeout=30) for f in futures]
        assert np.array_equal(np.concatenate(results, axis=0), direct)
        stats = server.statistics()
        assert stats.batches_executed == 3  # 4 + 4 + 2 samples
        assert stats.max_batch_size == 4
        assert stats.requests_completed == 10 and stats.requests_failed == 0

    def test_mixed_size_requests_split_correctly(self, registry, rng):
        sizes = [3, 1, 2, 4]
        chunks = [np.abs(rng.normal(0, 1, size=(s, 16))) for s in sizes]
        direct = [registry.engine("mlp").run(c) for c in chunks]
        server = InferenceServer(
            registry, BatchingPolicy(max_batch_size=6, max_delay_s=10.0)
        )
        futures = [server.submit("mlp", c) for c in chunks]
        with server:
            pass
        results = [f.result(timeout=30) for f in futures]
        for want, got in zip(direct, results):
            assert np.array_equal(want, got)

    def test_oversized_request_runs_alone(self, registry, rng):
        inputs = np.abs(rng.normal(0, 1, size=(9, 16)))
        server = InferenceServer(
            registry, BatchingPolicy(max_batch_size=4, max_delay_s=10.0)
        )
        future = server.submit("mlp", inputs)
        with server:
            result = future.result(timeout=30)
        assert result.shape[0] == 9
        assert server.statistics().max_batch_size == 9

    def test_multi_tenant_requests(self, tiny_mlp_model, tiny_conv_model, rng):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model)
        registry.register("conv", tiny_conv_model)
        mlp_in = np.abs(rng.normal(0, 1, size=(4, 16)))
        conv_in = np.abs(rng.normal(0, 1, size=(3, 3, 8, 8)))
        direct_mlp = registry.engine("mlp").run(mlp_in)
        direct_conv = registry.engine("conv").run(conv_in)
        with InferenceServer(registry) as server:
            mlp_future = server.submit("mlp", mlp_in)
            conv_future = server.submit("conv", conv_in)
            assert np.array_equal(mlp_future.result(timeout=30), direct_mlp)
            assert np.array_equal(conv_future.result(timeout=30), direct_conv)
            stats = server.statistics()
        assert set(stats.batches_per_model) == {"mlp", "conv"}

    def test_concurrent_clients(self, registry, rng):
        inputs = np.abs(rng.normal(0, 1, size=(12, 16)))
        direct = registry.engine("mlp").run(inputs)
        results: dict[int, np.ndarray] = {}
        lock = threading.Lock()

        def client(i, server):
            out = server.infer("mlp", inputs[i : i + 1], timeout=30)
            with lock:
                results[i] = out

        with InferenceServer(
            registry, BatchingPolicy(max_batch_size=4, max_delay_s=0.002)
        ) as server:
            threads = [
                threading.Thread(target=client, args=(i, server))
                for i in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        stacked = np.concatenate([results[i] for i in range(12)], axis=0)
        assert np.array_equal(stacked, direct)

    def test_shared_seeded_noise_draws_match_sequential_runs(
        self, tiny_mlp_model, tiny_conv_model, rng
    ):
        # Two engines sharing one seeded noise model take no common lock:
        # NumPy's Generator locks each draw, and every phase is drawn
        # whatever the values, so concurrent runs consume the stream exactly
        # as far as the same runs one after the other.
        batches = {
            "a": [np.abs(rng.normal(0, 1, size=(2, 16))) for _ in range(30)],
            "b": [np.abs(rng.normal(0, 1, size=(2, 3, 8, 8))) for _ in range(30)],
        }

        def host():
            noise = GaussianColumnNoise(level=0.05, seed=7)
            registry = ModelRegistry()
            registry.register("a", tiny_mlp_model, noise=noise)
            registry.register("b", tiny_conv_model, noise=noise)
            return registry, noise

        def run_all(registry, name):
            engine = registry.engine(name)
            for inputs in batches[name]:
                engine.run_timed(inputs)

        sequential, sequential_noise = host()
        for name in ("a", "b"):
            run_all(sequential, name)
        concurrent, concurrent_noise = host()
        threads = [
            threading.Thread(target=run_all, args=(concurrent, name))
            for name in ("a", "b")
        ]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two engines' draws often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert (
            concurrent_noise._rng.bit_generator.state
            == sequential_noise._rng.bit_generator.state
        )
        assert concurrent_noise._rng.bit_generator.state != (
            GaussianColumnNoise(level=0.05, seed=7)._rng.bit_generator.state
        )

    def test_unknown_model_rejected_at_submit(self, registry, rng):
        server = InferenceServer(registry)
        with pytest.raises(KeyError):
            server.submit("ghost", np.zeros((1, 16)))

    def test_bad_shapes_rejected_at_submit(self, registry):
        server = InferenceServer(registry)
        with pytest.raises(ValueError):
            server.submit("mlp", np.zeros(16))  # missing batch dimension
        with pytest.raises(ValueError):
            server.submit("mlp", np.zeros((2, 7)))  # wrong feature count
        with pytest.raises(ValueError):
            server.submit("mlp", np.zeros((0, 16)))  # empty request

    def test_engine_errors_reach_every_future(self, registry, rng):
        def explode(inputs, **kwargs):
            raise RuntimeError("tile power loss")

        registry.engine("mlp").run = explode
        server = InferenceServer(
            registry, BatchingPolicy(max_batch_size=8, max_delay_s=10.0)
        )
        futures = [server.submit("mlp", np.zeros((1, 16))) for _ in range(3)]
        with server:
            pass
        for future in futures:
            with pytest.raises(RuntimeError, match="tile power loss"):
                future.result(timeout=30)
        assert server.statistics().requests_failed == 3

    def test_engine_errors_deliver_independent_exceptions(self, registry):
        # A failed batch must not share one exception instance across its
        # futures: concurrent result() calls re-raising a shared object
        # race on its __traceback__/__context__ mutation.
        original = RuntimeError("tile power loss")

        def explode(inputs, **kwargs):
            raise original

        registry.engine("mlp").run = explode
        server = InferenceServer(
            registry, BatchingPolicy(max_batch_size=8, max_delay_s=10.0)
        )
        futures = [server.submit("mlp", np.zeros((1, 16))) for _ in range(2)]
        with server:
            pass
        raised = []
        for future in futures:
            with pytest.raises(RuntimeError, match="tile power loss") as excinfo:
                future.result(timeout=30)
            raised.append(excinfo.value)
        first, second = raised
        assert first is not second and first is not original
        assert first.__cause__ is original and second.__cause__ is original

    def test_engine_failure_statistics(self, registry):
        # requests_failed counts the batch; completion-side counters and the
        # dispatch backlog must not -- a failed batch still drains.
        def explode(inputs, **kwargs):
            raise RuntimeError("tile power loss")

        registry.engine("mlp").run = explode
        server = InferenceServer(
            registry, BatchingPolicy(max_batch_size=8, max_delay_s=10.0)
        )
        futures = [server.submit("mlp", np.zeros((1, 16))) for _ in range(3)]
        with server:
            pass
        for future in futures:
            assert future.done()
        stats = server.statistics()
        assert stats.requests_failed == 3
        assert stats.requests_completed == 0
        assert stats.batches_executed == 0
        assert stats.queue_wait_s == 0.0
        assert server.backlog_by_model() == {}

    def test_submit_after_stop_rejected(self, registry):
        server = InferenceServer(registry)
        with server:
            pass
        with pytest.raises(RuntimeError):
            server.submit("mlp", np.zeros((1, 16)))

    def test_submit_after_stop_fails_fast_without_counter_drift(self, registry):
        from repro.serve import AdmissionController
        from repro.telemetry import TelemetryCollector

        telemetry = TelemetryCollector()
        server = InferenceServer(
            registry, telemetry=telemetry, admission=AdmissionController()
        )
        with server:
            server.infer("mlp", np.zeros((1, 16)), timeout=30)
        before_stats = server.statistics()
        before_admission = server.admission.counters()
        before_aggregate = telemetry.aggregate("mlp")
        with pytest.raises(ServerStoppedError, match="stopped"):
            server.submit("mlp", np.zeros((1, 16)))
        # The rejected submit left no trace: no submitted/accepted counter
        # moved, and the admission controller never even decided.
        after_stats = server.statistics()
        assert after_stats.requests_submitted == before_stats.requests_submitted
        assert after_stats.requests_shed == before_stats.requests_shed
        assert server.admission.counters() == before_admission
        after_aggregate = telemetry.aggregate("mlp")
        assert after_aggregate.admitted_requests == before_aggregate.admitted_requests
        assert after_aggregate.shed_requests == before_aggregate.shed_requests
        # stop -> start -> submit works again.
        with server:
            assert server.infer("mlp", np.zeros((1, 16)), timeout=30).shape == (1, 4)
        assert (
            server.statistics().requests_submitted
            == before_stats.requests_submitted + 1
        )

    def test_stop_racing_submit_retracts_admission_count(self, registry):
        # stop() can close the queue between submit's fail-fast check and
        # the enqueue; the admission decision was already counted by then
        # and must be taken back so counters only reflect enqueued work.
        from repro.serve import AdmissionController

        server = InferenceServer(registry, admission=AdmissionController())

        def closed_submit(request):
            raise RuntimeError("request queue is closed")

        server._queue.submit = closed_submit  # the race, deterministically
        before = server.admission.counters()
        with pytest.raises(ServerStoppedError):
            server.submit("mlp", np.zeros((1, 16)))
        assert server.admission.counters() == before

    def test_server_restarts_after_stop(self, registry, rng):
        inputs = np.abs(rng.normal(0, 1, size=(2, 16)))
        direct = registry.engine("mlp").run(inputs)
        server = InferenceServer(registry)
        with server:
            server.infer("mlp", inputs, timeout=30)
        with server:  # restart gets a fresh queue and fresh workers
            assert np.array_equal(server.infer("mlp", inputs, timeout=30), direct)

    @staticmethod
    def hold_first_run(engine):
        """Block the engine's first run until the returned event is set."""
        original_run = engine.run
        started, release = threading.Event(), threading.Event()

        def held_run(inputs, **kwargs):
            if not started.is_set():
                started.set()
                assert release.wait(timeout=10.0)
            return original_run(inputs, **kwargs)

        engine.run = held_run
        return started, release, original_run

    def test_late_arrivals_join_the_batch(self, registry, rng):
        # A worker forms its batch only when it is idle, so requests that
        # arrive while it is busy ride one batch instead of one each.
        started, release, original_run = self.hold_first_run(registry.engine("mlp"))
        inputs = np.abs(rng.normal(0, 1, size=(3, 16)))
        server = InferenceServer(
            registry, BatchingPolicy(max_batch_size=8, max_delay_s=0.0), max_workers=1
        )
        with server:
            first = server.submit("mlp", inputs[:1])
            assert started.wait(timeout=10.0)
            late = []
            for i in (1, 2):
                late.append(server.submit("mlp", inputs[i : i + 1]))
                time.sleep(0.05)  # with a 0 s budget, each is due on arrival
            release.set()
            results = [decision.result(timeout=30) for decision in [first, *late]]
        assert np.array_equal(np.concatenate(results), original_run(inputs))
        stats = server.statistics()
        assert stats.batches_executed == 2
        assert stats.max_batch_size == 2

    def test_model_at_capacity_does_not_block_a_ready_one(
        self, registry, tiny_conv_model, rng
    ):
        registry.register("conv", tiny_conv_model)
        started, release, _ = self.hold_first_run(registry.engine("mlp"))
        server = InferenceServer(
            registry, BatchingPolicy(max_batch_size=1, max_delay_s=0.0), max_workers=2
        )
        with server:
            first = server.submit("mlp", np.zeros((1, 16)))
            assert started.wait(timeout=10.0)
            second = server.submit("mlp", np.zeros((1, 16)))  # "mlp" is busy
            conv = server.submit("conv", np.abs(rng.normal(0, 1, size=(1, 3, 8, 8))))
            conv.result(timeout=30)  # the idle worker ran it meanwhile
            assert not first.done() and len(server._queue) == 1
            release.set()
            first.result(timeout=30)
            second.result(timeout=30)
        assert server.statistics().batches_per_model == {"mlp": 2, "conv": 1}

    def test_shared_executors_across_names_are_serialised(self, registry, rng):
        # Registering one model under a second name builds a second set of
        # executors (from the cached plan, so nothing is re-encoded): each
        # engine's statistics count only the batches it served.
        model = registry.model("mlp")
        encodings = registry.weight_cache.misses
        registry.register("mlp_twin", model)
        assert registry.weight_cache.misses == encodings
        engines = {name: registry.engine(name) for name in ("mlp", "mlp_twin")}
        for layer in model.matmul_layers():
            assert (
                engines["mlp"].executors[layer.name]
                is not engines["mlp_twin"].executors[layer.name]
            )
        assert registry.plan("mlp_twin") is registry.plan("mlp")
        inputs = np.abs(rng.normal(0, 1, size=(4, 16)))
        reference = NetworkEngine.build(model, pool=private_pool())
        direct = reference.run(inputs)
        requests = {"mlp": 6, "mlp_twin": 3}
        with InferenceServer(registry, max_workers=4) as server:
            futures = [
                server.submit(name, inputs)
                for index in range(6)
                for name, count in requests.items()
                if index < count
            ]
            for future in futures:
                assert np.array_equal(future.result(timeout=30), direct)
        for name, count in requests.items():
            reference.reset_statistics()
            reference.run(np.concatenate([inputs] * count))
            expected = reference.network_statistics()
            served = engines[name].network_statistics()
            for counter in ("n_inputs", "macs", "input_pulses"):
                assert getattr(served, counter) == getattr(expected, counter), (
                    name,
                    counter,
                )

    def test_future_timeout(self, registry):
        server = InferenceServer(registry)  # never started
        future = server.submit("mlp", np.zeros((1, 16)))
        assert not future.done()
        with pytest.raises(TimeoutError):
            future.result(timeout=0.01)
