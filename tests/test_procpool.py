"""Tests for process-based engine workers and the shared-memory transport.

The contract mirrors every other fast path in this repo: hosting an engine in
its own worker process is a pure scheduling/parallelism change, so outputs,
statistics and seeded noise draws stay *bit-identical* to the in-process
:class:`~repro.runtime.NetworkEngine` built from the same spec.  The
single-worker process backend is a one-replica
:class:`~repro.runtime.ReplicaPool`; the transport's own failure contract is
checked on a bare :class:`~repro.runtime.EngineWorker`.
"""

import inspect
import multiprocessing
import os
import signal
import sys
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.analog.noise import GaussianColumnNoise
from repro.runtime import (
    EngineSpec,
    EngineWorker,
    ExecutorPool,
    NetworkEngine,
    RemoteEngineError,
    ReplicaPool,
    WorkerCrashError,
    compile_model_plan,
)
from repro.runtime.procpool import _MIN_BLOCK_BYTES, _reply_block_name
from repro.serve import (
    BatchingPolicy,
    InferenceServer,
    ModelRegistry,
    ServerStoppedError,
)
from repro.telemetry import TelemetryCollector
from tests.test_runtime_engine import assert_stats_equal


def reference_engine(model, **kwargs) -> NetworkEngine:
    """An isolated in-process engine for parity comparisons."""
    return NetworkEngine.build(model, pool=ExecutorPool(weight_cache=None), **kwargs)


def launch_pool(
    model, config=None, noise=None, micro_batch=None, float32=None, **kwargs
) -> ReplicaPool:
    """A replica pool booted from a plan compiled here, in the parent."""
    plan = compile_model_plan(
        model, config, noise=noise, float32=float32, micro_batch=micro_batch
    )
    return ReplicaPool.launch(model, plan, noise=noise, **kwargs)


def launch_one(model, **kwargs) -> ReplicaPool:
    """The single-worker process backend: a one-replica pool."""
    return launch_pool(model, replicas=1, **kwargs)


def worker_spec(model) -> EngineSpec:
    """A bare worker's spec: the model and its compiled plan."""
    return EngineSpec(model, compile_model_plan(model), sys_path=tuple(sys.path))


@pytest.fixture
def process_engine(tiny_mlp_model):
    """A worker-hosted engine for the tiny MLP, closed after the test."""
    engine = launch_one(tiny_mlp_model)
    yield engine
    engine.close()


@pytest.fixture(params=["thread", "process"])
def either_engine(request, tiny_mlp_model):
    """The in-process engine, then the single-worker process backend."""
    if request.param == "thread":
        yield reference_engine(tiny_mlp_model)
        return
    engine = launch_one(tiny_mlp_model)
    yield engine
    engine.close()


class TestRunTimedContract:
    """Both backends time and trace a batch through one ``run_timed``."""

    def test_signatures_match(self):
        def shape(method):
            return [
                (p.name, p.kind) for p in inspect.signature(method).parameters.values()
            ]

        assert shape(NetworkEngine.run_timed) == shape(ReplicaPool.run_timed)

    def test_outputs_and_records(self, tiny_mlp_model, either_engine, rng):
        inputs = np.abs(rng.normal(0, 1, size=(6, 16)))
        reference = reference_engine(tiny_mlp_model)
        outputs, elapsed, records = either_engine.run_timed(inputs)
        assert outputs.tobytes() == reference.run(inputs).tobytes()
        assert outputs.tobytes() == either_engine.run(inputs).tobytes()
        assert elapsed > 0
        assert sum(n_samples for n_samples, _s, _replica in records) == 6
        assert all(seconds > 0 for _n, seconds, _replica in records)
        codes, _elapsed, _records = either_engine.run_timed(
            inputs, return_codes=True, micro_batch=4
        )
        expected = reference.run(inputs, return_codes=True, micro_batch=4)
        assert codes.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("trace_ctx", [None, ("t1", "t2")])
    def test_one_engine_span_per_run(self, either_engine, trace_ctx, rng):
        inputs = np.abs(rng.normal(0, 1, size=(5, 16)))
        sink: list[dict] = []
        either_engine.run_timed(inputs, trace_ctx=trace_ctx, span_sink=sink)
        spans = [span for span in sink if span["name"] == "engine"]
        assert len(spans) == 1
        span = spans[0]
        assert span["status"] == "ok"
        assert span["n_samples"] == 5
        assert span["end_s"] >= span["start_s"]
        assert {"pid", "tid", "replica"} <= span.keys()
        if trace_ctx is None:
            assert "trace_ids" not in span
        else:
            assert span["trace_ids"] == list(trace_ctx)


class TestProcessEngineParity:
    """The single-worker process backend against the in-process engine."""

    def test_bit_identical_to_in_process(self, tiny_mlp_model, process_engine, rng):
        inputs = np.abs(rng.normal(0, 1, size=(10, 16)))
        assert np.array_equal(
            reference_engine(tiny_mlp_model).run(inputs), process_engine.run(inputs)
        )

    def test_micro_batching_matches(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(10, 16)))
        reference = reference_engine(tiny_mlp_model, micro_batch=3)
        with launch_one(tiny_mlp_model, micro_batch=3) as engine:
            assert np.array_equal(reference.run(inputs), engine.run(inputs))
            # Per-call override crosses the pipe too.
            assert np.array_equal(
                reference.run(inputs, micro_batch=4),
                engine.run(inputs, micro_batch=4),
            )

    def test_return_codes_parity(self, tiny_mlp_model, process_engine, rng):
        inputs = np.abs(rng.normal(0, 1, size=(6, 16)))
        assert np.array_equal(
            reference_engine(tiny_mlp_model).run(inputs, return_codes=True),
            process_engine.run(inputs, return_codes=True),
        )

    def test_seeded_noise_draws_identically(self, tiny_mlp_model, rng):
        # The pickled noise RNG state must reproduce the exact draw
        # sequence across consecutive runs, like the in-process engine.
        inputs = np.abs(rng.normal(0, 1, size=(9, 16)))
        reference = reference_engine(
            tiny_mlp_model, noise=GaussianColumnNoise(level=0.08, seed=5)
        )
        with launch_one(
            tiny_mlp_model, noise=GaussianColumnNoise(level=0.08, seed=5)
        ) as engine:
            for _ in range(2):
                assert np.array_equal(reference.run(inputs), engine.run(inputs))

    def test_conv_model_and_predict(self, tiny_conv_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(5, 3, 8, 8)))
        reference = reference_engine(tiny_conv_model)
        with launch_one(tiny_conv_model) as engine:
            assert np.array_equal(reference.run(inputs), engine.run(inputs))
            assert np.array_equal(reference.predict(inputs), engine.predict(inputs))

    def test_spawn_start_method(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(4, 16)))
        with launch_one(tiny_mlp_model, start_method="spawn") as engine:
            assert np.array_equal(
                reference_engine(tiny_mlp_model).run(inputs), engine.run(inputs)
            )

    def test_float32_fast_path_parity(self, tiny_mlp_model, rng):
        # The worker takes each layer's GEMM dtype flag from the plan.
        inputs = np.abs(rng.normal(0, 1, size=(6, 16)))
        for float32 in (True, False):
            reference = reference_engine(tiny_mlp_model, float32=float32)
            with launch_one(tiny_mlp_model, float32=float32) as engine:
                outputs = engine.run(inputs)
                assert outputs.tobytes() == reference.run(inputs).tobytes()
                assert_stats_equal(
                    reference.network_statistics(), engine.network_statistics()
                )


class TestSharedMemoryTransport:
    def test_blocks_grow_and_shrink_transparently(
        self, tiny_mlp_model, process_engine, rng
    ):
        # Alternate small and oversized batches: each oversized one forces
        # both direction blocks (16 input, 4 output float64 features per
        # row) to grow, so each side remaps twice, and the small ones ride
        # the grown blocks.  Parity must hold throughout, and every earlier
        # reply must stay readable after the blocks it came through are
        # unmapped.
        reference = reference_engine(tiny_mlp_model)
        oversized = _MIN_BLOCK_BYTES // (4 * 8) + 7
        replies = []
        for n in (3, oversized, 2, 2 * oversized, 1):
            inputs = np.abs(rng.normal(0, 1, size=(n, 16)))
            replies.append((reference.run(inputs), process_engine.run(inputs)))
        for expected, reply in replies:
            assert np.array_equal(expected, reply)

    def test_outputs_are_independent_copies(self, tiny_mlp_model, rng):
        # Results are copied out of the shared reply block: a later request
        # reuses the block and must not mutate earlier results, and a result
        # owns its memory, so it outlives the worker and its blocks.
        engine = launch_one(tiny_mlp_model)
        try:
            first = engine.run(np.abs(rng.normal(0, 1, size=(4, 16))))
            snapshot = first.copy()
            engine.run(np.abs(rng.normal(0, 1, size=(4, 16))))
            assert np.array_equal(first, snapshot)
            assert first.flags.writeable and first.flags.owndata
        finally:
            engine.close()
        assert np.array_equal(first, snapshot)
        first += 1.0
        assert np.array_equal(first, snapshot + 1.0)

    def test_worker_side_timings_reported(self, process_engine, rng):
        inputs = np.abs(rng.normal(0, 1, size=(5, 16)))
        outputs, elapsed, records = process_engine.run_timed(inputs)
        assert outputs.shape[0] == 5
        assert elapsed > 0
        assert records == [(5, elapsed, "0")]


class TestWorkerLifecycle:
    def test_worker_errors_propagate_and_worker_survives(
        self, tiny_mlp_model, process_engine, rng
    ):
        inputs = np.abs(rng.normal(0, 1, size=(4, 16)))
        expected = reference_engine(tiny_mlp_model).run(inputs)
        with pytest.raises(Exception) as excinfo:
            process_engine.run(np.ones((2, 7)))  # wrong feature count
        assert hasattr(excinfo.value, "remote_traceback")
        # The worker loop keeps serving after a failed request.
        assert np.array_equal(process_engine.run(inputs), expected)

    def test_unpicklable_spec_rejected_at_launch(self, tiny_mlp_model):
        class LambdaNoise:
            @staticmethod
            def apply(positive, negative):
                return positive - negative

            def __reduce__(self):
                raise TypeError("deliberately unpicklable")

        with pytest.raises(ValueError, match="not picklable"):
            launch_one(tiny_mlp_model, noise=LambdaNoise())

    def test_uncalibrated_model_rejected(self, rng):
        from repro.nn.layers import Linear
        from repro.nn.model import QuantizedModel
        from repro.nn.synthetic import synthetic_linear_weights

        model = QuantizedModel(
            "raw",
            [Linear("fc", synthetic_linear_weights(4, 8, rng))],
            input_shape=(8,),
        )
        with pytest.raises(ValueError, match="calibrated"):
            launch_one(model)

    def test_close_is_idempotent_and_terminal(self, tiny_mlp_model):
        engine = launch_one(tiny_mlp_model)
        (pid,) = engine.replica_pids()
        assert pid is not None and not engine.closed
        engine.close()
        engine.close()
        assert engine.closed and engine.replica_pids() == [None]
        assert not multiprocessing.active_children()
        with pytest.raises(RuntimeError, match="closed"):
            engine.run(np.zeros((1, 16)))

    def test_dead_worker_raises_instead_of_hanging(self, tiny_mlp_model):
        # The transport's contract, below any pool: a request to a worker
        # that died raises a typed error instead of blocking on the pipe.
        worker = EngineWorker(worker_spec(tiny_mlp_model))
        try:
            worker._process.terminate()
            worker._process.join(timeout=10)
            with pytest.raises(RemoteEngineError, match="died"):
                worker.request(
                    "run", array=np.zeros((1, 16)), extra=(False, False, None, None)
                )
        finally:
            worker.close()

    @pytest.mark.parametrize("size", [_MIN_BLOCK_BYTES, 0])
    def test_close_reclaims_the_reply_block_of_a_killed_worker(
        self, tiny_mlp_model, size
    ):
        # A worker killed after creating the reply block for a request, but
        # before naming it in a reply, leaves a block only its name finds --
        # empty when the kill landed before the block was sized.
        worker = EngineWorker(worker_spec(tiny_mlp_model))
        extra = (False, False, None, None)
        try:
            worker.request("run", array=np.ones((1, 16)), extra=extra)
            pid = worker.pid
            os.kill(pid, signal.SIGKILL)
            worker._process.join(timeout=10)
            name = _reply_block_name(pid, 2)
            if size:
                shared_memory.SharedMemory(name=name, create=True, size=size).close()
            else:
                import _posixshmem

                flags = os.O_CREAT | os.O_EXCL | os.O_RDWR
                os.close(_posixshmem.shm_open("/" + name, flags, mode=0o600))
            with pytest.raises(WorkerCrashError):
                worker.request("run", array=np.ones((1, 16)), extra=extra)
        finally:
            worker.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_sigkill_of_the_only_worker_restarts_it(self, tiny_mlp_model, rng):
        # A one-replica pool has no sibling to requeue onto: the next run
        # must wait out the restart and finish on the fresh worker.
        inputs = np.abs(rng.normal(0, 1, size=(6, 16)))
        expected = reference_engine(tiny_mlp_model).run(inputs)
        with launch_one(tiny_mlp_model) as engine:
            (victim,) = engine.replica_pids()
            os.kill(victim, signal.SIGKILL)
            assert np.array_equal(engine.run(inputs), expected)
            assert engine.restart_count == 1
            assert engine.replica_pids() != [victim]
            assert engine.healthy_replicas == 1

    def test_statistics_roundtrip(self, tiny_mlp_model, process_engine, rng):
        inputs = np.abs(rng.normal(0, 1, size=(7, 16)))
        reference = reference_engine(tiny_mlp_model)
        reference.run(inputs)
        process_engine.run(inputs)
        remote = process_engine.layer_statistics()
        for name, stats in reference.layer_statistics().items():
            assert_stats_equal(stats, remote[name])
        assert_stats_equal(
            reference.network_statistics(), process_engine.network_statistics()
        )
        process_engine.reset_statistics()
        assert process_engine.network_statistics().n_inputs == 0


class TestRegistryAndServerIntegration:
    def test_register_process_backend(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(4, 16)))
        with ModelRegistry() as registry:
            engine = registry.register("mlp", tiny_mlp_model, backend="process")
            assert isinstance(engine, ReplicaPool)
            assert engine.replicas == 1
            assert registry.engine("mlp") is engine
            assert registry.model("mlp") is tiny_mlp_model
            assert np.array_equal(
                reference_engine(tiny_mlp_model, float32=True).run(inputs),
                engine.run(inputs),
            )

    def test_unregister_shuts_worker_down(self, tiny_mlp_model):
        registry = ModelRegistry()
        engine = registry.register("mlp", tiny_mlp_model, backend="process")
        registry.unregister("mlp")
        assert engine.closed
        assert not multiprocessing.active_children()

    def test_invalid_backend_combinations_rejected(self, tiny_mlp_model):
        registry = ModelRegistry()
        with pytest.raises(ValueError, match="backend"):
            registry.register("a", tiny_mlp_model, backend="rocket")
        assert len(registry) == 0

    def test_server_over_process_backend_bit_identical(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(10, 16)))
        direct = reference_engine(tiny_mlp_model, float32=True).run(inputs)
        telemetry = TelemetryCollector()
        with ModelRegistry() as registry:
            registry.register("mlp", tiny_mlp_model, backend="process")
            server = InferenceServer(
                registry,
                BatchingPolicy(max_batch_size=4, max_delay_s=10.0),
                telemetry=telemetry,
            )
            futures = [server.submit("mlp", inputs[i : i + 1]) for i in range(10)]
            with server:
                pass
            results = [f.result(timeout=30) for f in futures]
            assert np.array_equal(np.concatenate(results, axis=0), direct)
            stats = server.statistics()
            assert stats.requests_completed == 10 and stats.batches_executed == 3
            # Worker-side engine-run records merged into the collector: one
            # per coalesced batch, with non-zero worker-measured wall time.
            aggregate = telemetry.aggregate("mlp")
            assert aggregate.engine_runs == 3
            assert aggregate.engine_run_samples == 10
            assert aggregate.engine_run_s > 0

    def test_mixed_backends_share_one_server(
        self, tiny_mlp_model, tiny_conv_model, rng
    ):
        mlp_in = np.abs(rng.normal(0, 1, size=(4, 16)))
        conv_in = np.abs(rng.normal(0, 1, size=(3, 3, 8, 8)))
        direct_mlp = reference_engine(tiny_mlp_model, float32=True).run(mlp_in)
        direct_conv = reference_engine(tiny_conv_model, float32=True).run(conv_in)
        with ModelRegistry() as registry:
            registry.register("mlp", tiny_mlp_model, backend="process")
            registry.register("conv", tiny_conv_model)  # thread backend
            with InferenceServer(registry) as server:
                mlp_future = server.submit("mlp", mlp_in)
                conv_future = server.submit("conv", conv_in)
                assert np.array_equal(mlp_future.result(timeout=30), direct_mlp)
                assert np.array_equal(conv_future.result(timeout=30), direct_conv)

    def test_engine_failure_over_process_backend(self, tiny_mlp_model):
        with ModelRegistry() as registry:
            registry.register("mlp", tiny_mlp_model, backend="process")
            server = InferenceServer(
                registry, BatchingPolicy(max_batch_size=8, max_delay_s=10.0)
            )
            good = server.submit("mlp", np.zeros((1, 16)))
            with server:
                pass
            good.result(timeout=30)
            with pytest.raises(ServerStoppedError):
                server.submit("mlp", np.zeros((1, 16)))
