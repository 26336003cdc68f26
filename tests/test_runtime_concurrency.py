"""Thread-safety regression tests for the runtime caches under serving load.

The multi-tenant server registers models and serves batches from several
threads against one :class:`~repro.runtime.EncodedWeightCache`, each engine
over its own :class:`~repro.runtime.ExecutorPool`.  These tests hammer the
caches from thread barriers and assert the invariants the serving layer
relies on: one build per key, consistent LRU bookkeeping, no lost or
duplicated entries, and one run at a time per engine.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.arithmetic.slicing import Slicing
from repro.core.executor import PimLayerConfig
from repro.nn.layers import Linear
from repro.nn.synthetic import synthetic_linear_weights
from repro.runtime import (
    EncodedWeightCache,
    ExecutorPool,
    ModelPlanCache,
    NetworkEngine,
)
from repro.serve import ModelRegistry

N_THREADS = 8


def run_in_threads(worker, n_threads=N_THREADS):
    """Run ``worker(index)`` on a barrier start across threads; re-raise errors."""
    barrier = threading.Barrier(n_threads)

    def wrapped(index):
        barrier.wait()
        return worker(index)

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        futures = [pool.submit(wrapped, i) for i in range(n_threads)]
        return [future.result(timeout=30) for future in futures]


@pytest.fixture
def slicings():
    """Distinct weight slicings, each a distinct encoding-cache key."""
    return [Slicing(w) for w in [(4, 2, 2), (2, 2, 2, 2), (4, 4), (1,) * 8]]


class TestEncodedWeightCacheConcurrency:
    def test_same_key_builds_once(self, tiny_linear_layer):
        cache = EncodedWeightCache()
        config = PimLayerConfig()
        builds = []

        def builder():
            builds.append(threading.get_ident())
            return ["chunks"]

        results = run_in_threads(
            lambda i: cache.encoded_chunks(tiny_linear_layer, config, builder)
        )
        assert len(builds) == 1
        assert cache.misses == 1 and cache.hits == N_THREADS - 1
        assert all(result is results[0] for result in results)

    def test_distinct_keys_all_land(self, tiny_linear_layer, slicings):
        cache = EncodedWeightCache()
        configs = [PimLayerConfig(weight_slicing=s) for s in slicings]

        def worker(index):
            config = configs[index % len(configs)]
            return cache.encoded_chunks(
                tiny_linear_layer, config, lambda: [index % len(configs)]
            )

        run_in_threads(worker)
        assert cache.misses == len(configs)
        assert len(cache) == len(configs)

    def test_lru_eviction_stays_bounded_under_contention(
        self, tiny_linear_layer, slicings
    ):
        cache = EncodedWeightCache(max_entries=2)
        configs = [PimLayerConfig(weight_slicing=s) for s in slicings]

        def worker(index):
            for round_index in range(25):
                config = configs[(index + round_index) % len(configs)]
                chunks = cache.encoded_chunks(
                    tiny_linear_layer, config, lambda: ["entry"]
                )
                assert chunks == ["entry"]

        run_in_threads(worker)
        assert len(cache) <= 2
        assert cache.hits + cache.misses == N_THREADS * 25


class TestBuildOnceOutsideTheLock:
    """Builds run outside the cache lock, once per key (Event-gated)."""

    def test_second_key_builds_while_the_first_is_blocked(self):
        cache = ModelPlanCache()
        started, release = threading.Event(), threading.Event()

        def blocked_builder():
            started.set()
            assert release.wait(timeout=30)
            return "first"

        with ThreadPoolExecutor(max_workers=2) as pool:
            first = pool.submit(cache.get_or_compile, "a", blocked_builder)
            assert started.wait(timeout=30)
            second = pool.submit(cache.get_or_compile, "b", lambda: "second")
            try:
                assert second.result(timeout=30) == "second"
                assert not first.done()
            finally:
                release.set()
            assert first.result(timeout=30) == "first"
        assert cache.misses == 2 and len(cache) == 2

    def test_failed_build_leaves_no_entry_and_blocks_nothing(self):
        cache = ModelPlanCache()

        def failing_builder():
            raise RuntimeError("compile failed")

        with pytest.raises(RuntimeError, match="compile failed"):
            cache.get_or_compile("a", failing_builder)
        assert len(cache) == 0
        with ThreadPoolExecutor(max_workers=1) as pool:
            retry = pool.submit(cache.get_or_compile, "a", lambda: "plan")
            assert retry.result(timeout=30) == "plan"
        assert cache.get_or_compile("a", failing_builder) == "plan"
        assert cache.misses == 2 and cache.hits == 1


class TestExecutorPoolConcurrency:
    def test_same_key_yields_one_executor(self, tiny_linear_layer):
        pool = ExecutorPool(weight_cache=None)
        executors = run_in_threads(
            lambda i: pool.get(tiny_linear_layer, PimLayerConfig())
        )
        assert len(pool) == 1
        assert all(executor is executors[0] for executor in executors)

    def test_distinct_configs_yield_distinct_executors(
        self, tiny_linear_layer, slicings
    ):
        pool = ExecutorPool(weight_cache=None)

        def worker(index):
            slicing = slicings[index % len(slicings)]
            return pool.get(tiny_linear_layer, PimLayerConfig(weight_slicing=slicing))

        executors = run_in_threads(worker)
        assert len(pool) == len(slicings)
        assert len({id(e) for e in executors}) == len(slicings)

    def test_concurrent_engine_builds_share_executors(self, tiny_mlp_model):
        pool = ExecutorPool(weight_cache=None)
        engines = run_in_threads(
            lambda i: NetworkEngine.build(tiny_mlp_model, pool=pool)
        )
        assert len(pool) == len(tiny_mlp_model.matmul_layers())
        first = engines[0]
        for engine in engines[1:]:
            for name, executor in engine.executors.items():
                assert executor is first.executors[name]


class TestRegistryConcurrency:
    def test_concurrent_tenant_registration(self, rng):
        registry = ModelRegistry()
        models = []
        for index in range(N_THREADS):
            from repro.nn.model import QuantizedModel

            layer = Linear(f"fc_{index}", synthetic_linear_weights(4, 8, rng))
            model = QuantizedModel(f"model_{index}", [layer], input_shape=(8,))
            model.calibrate(np.abs(rng.normal(0, 1, size=(16, 8))))
            models.append(model)

        engines = run_in_threads(lambda i: registry.register(f"tenant_{i}", models[i]))
        assert len(registry) == N_THREADS
        # Each one-layer tenant encoded once and owns its one executor.
        assert registry.weight_cache.misses == N_THREADS
        executors = {id(e) for engine in engines for e in engine.executors.values()}
        assert len(executors) == N_THREADS
        # Every tenant still serves correct results after the stampede.
        inputs = np.abs(rng.normal(0, 1, size=(2, 8)))
        for index in range(N_THREADS):
            outputs = registry.engine(f"tenant_{index}").run(inputs)
            assert outputs.shape == (2, 4)


class TestEngineConcurrency:
    def test_run_timed_runs_one_batch_at_a_time(self, tiny_mlp_model, rng):
        engine = NetworkEngine.build(tiny_mlp_model)
        original_run = engine.run
        active, peak = [0], [0]
        guard = threading.Lock()

        def counting_run(inputs, **kwargs):
            with guard:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            time.sleep(0.02)  # long enough for the other threads to pile up
            try:
                return original_run(inputs, **kwargs)
            finally:
                with guard:
                    active[0] -= 1

        engine.run = counting_run
        inputs = np.abs(rng.normal(0, 1, size=(2, 16)))
        results = run_in_threads(lambda i: engine.run_timed(inputs)[0], n_threads=4)
        assert peak[0] == 1
        assert all(np.array_equal(result, results[0]) for result in results)
        assert engine.network_statistics().n_inputs == 4 * len(inputs) * len(
            tiny_mlp_model.matmul_layers()
        )
