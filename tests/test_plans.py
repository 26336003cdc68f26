"""Tests for compiled execution plans (:mod:`repro.runtime.plan`).

Three layers of guarantees:

* **artifact** -- a :class:`CompiledLayerPlan` is a faithful, pickle-able
  freeze of one executor's derivation: running it (as compiled at
  construction, after a pickle round trip, or with float32 operands) changes
  no output bit and no statistics counter relative to a float64 executor
  and the per-phase reference;
* **cache** -- the registry's fingerprint-keyed :class:`ModelPlanCache`
  reuses the *same* plan object across re-registrations that change only
  the hosting (thread<->process backend swap, rolling ``replace``) and
  compiles a fresh one when the :class:`PimLayerConfig` or the weights
  actually change;
* **transport** -- a plan shipped inside an :class:`EngineSpec` boots a
  replica worker to bit-identical outputs.

The planned kernel's row tiles may run on several call-scoped threads;
:class:`TestParallelRowTiles` forces that path and holds it to the same
bit-identity, plus the rule that no thread outlives a ``matmul`` call.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.analog.noise import GaussianColumnNoise, NoiselessModel
from repro.arithmetic.slicing import Slicing
from repro.core.dynamic_input import SpeculationMode
from repro.core.executor import PimLayerConfig, PimLayerExecutor
from repro.runtime import (
    ExecutorPool,
    ModelPlan,
    NetworkEngine,
    ReplicaPool,
    VectorizedLayerExecutor,
    compile_model_plan,
)
from repro.runtime import vectorized
from repro.runtime.procpool import _limit_blas_threads
from repro.serve import ModelRegistry

from tests.test_runtime_engine import PARITY_CONFIGS, assert_stats_equal


def planned_pair(layer, config, noise=None):
    """A default-built executor, its float64 twin, and the first's plan."""
    planned = VectorizedLayerExecutor(layer, config, noise=noise)
    float64 = VectorizedLayerExecutor(layer, config, noise=noise, float32=False)
    plan = planned.layer_plan
    assert plan.float32 and not float64.layer_plan.float32
    return planned, float64, plan


def assert_same_bytes(a: np.ndarray, b: np.ndarray) -> None:
    """Bit-identity, including the sign of zero that ``array_equal`` ignores."""
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestCompiledLayerPlan:
    @pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
    def test_planned_outputs_and_stats_bit_identical(
        self, name, tiny_linear_layer, tiny_patches
    ):
        config = PARITY_CONFIGS[name]
        planned, float64, _ = planned_pair(tiny_linear_layer, config)
        reference = PimLayerExecutor(tiny_linear_layer, config)
        outputs = planned.matmul(tiny_patches)
        assert_same_bytes(outputs, float64.matmul(tiny_patches))
        assert_same_bytes(outputs, reference.matmul(tiny_patches))
        assert_stats_equal(planned.stats, float64.stats)
        assert_stats_equal(planned.stats, reference.stats)

    def test_plan_survives_pickle(self, tiny_linear_layer, tiny_patches):
        config = PARITY_CONFIGS["raella"]
        planned, float64, plan = planned_pair(tiny_linear_layer, config)
        revived = pickle.loads(pickle.dumps(plan))
        assert revived is not plan
        seeded = VectorizedLayerExecutor(tiny_linear_layer, config, plan=revived)
        assert seeded.layer_plan is revived
        assert_same_bytes(seeded.matmul(tiny_patches), float64.matmul(tiny_patches))
        assert_stats_equal(seeded.stats, float64.stats)

    @pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
    def test_row_tiles_bit_identical(
        self, name, tiny_linear_layer, tiny_patches, monkeypatch
    ):
        """A tile budget of a few rows splits the 48-row batch into uneven
        tiles; outputs and every counter still match the reference."""
        from repro.runtime import vectorized

        config = PARITY_CONFIGS[name].with_changes(collect_column_sums=False)
        planned = VectorizedLayerExecutor(tiny_linear_layer, config)
        plan = planned.layer_plan
        assert plan.fast_path_eligible
        chunk = planned._chunks[0]
        per_row = plan.n_phases * (chunk.rows + plan.operands[0].n_columns)
        monkeypatch.setattr(vectorized, "TILE_ELEMENTS", 5 * per_row)
        assert tiny_patches.shape[0] % 5
        reference = PimLayerExecutor(tiny_linear_layer, config)
        assert_same_bytes(planned.matmul(tiny_patches), reference.matmul(tiny_patches))
        assert_stats_equal(planned.stats, reference.stats)

    def test_float32_plan_bit_identical(self, tiny_linear_layer, tiny_patches):
        config = PARITY_CONFIGS["raella_multi_chunk"]
        planned, _, _ = planned_pair(tiny_linear_layer, config)
        assert np.float32 in planned.gemm_dtypes
        reference = PimLayerExecutor(tiny_linear_layer, config)
        assert_same_bytes(planned.matmul(tiny_patches), reference.matmul(tiny_patches))

    @pytest.mark.parametrize(
        "speculation", [SpeculationMode.SPECULATIVE, SpeculationMode.BIT_SERIAL]
    )
    def test_planned_chunk_peak_memory_is_bounded(self, speculation, rng):
        """One planned chunk's peak allocation is bounded on two layer shapes.

        * Wide (``S * F`` >> rows): the product block dominates.  The ADC,
          masking and scale stages work in place on the GEMM result, so the
          peak stays within 2.5x the block's float64 size; a stage that
          allocates a new block would push it past the bound.
        * Tall-narrow (rows >> ``S * F``): the phase tensor dominates.
          Extraction runs in ``uint8`` and pulses are counted from the codes,
          so the peak stays within 1.5x the ``uint8`` phase tensor plus the
          float32 GEMM operand (an int64 phase tensor alone is 1.6x that).
        """
        import tracemalloc

        from repro.nn.layers import Linear
        from repro.nn.synthetic import synthetic_linear_weights

        def planned_peak(n_out: int, n_in: int):
            weights = synthetic_linear_weights(n_out, n_in, rng, std=0.2)
            layer = Linear("mem_fc", weights)
            inputs = np.abs(rng.normal(0, 1, size=(32, n_in)))
            layer.calibrate(inputs, layer.forward_float(inputs))
            codes = layer.input_quant.quantize(inputs)
            executor = VectorizedLayerExecutor(
                layer, PimLayerConfig(speculation=speculation)
            )
            plan = executor.layer_plan
            assert plan.fast_path_eligible and len(executor._chunks) == 1
            assert executor.gemm_dtypes == [np.float32]
            chunk = executor._chunks[0]
            executor._planned_chunk_matmul(codes, chunk, 0)  # warm-up
            tracemalloc.start()
            try:
                executor._planned_chunk_matmul(codes, chunk, 0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak, plan, codes.shape[0]

        peak, plan, m = planned_peak(64, 16)
        block_bytes = 8 * plan.n_phases * m * plan.n_slices * 64
        assert peak <= 2.5 * block_bytes, f"peak {peak / block_bytes:.2f}x block"

        rows = 512
        peak, plan, m = planned_peak(2, rows)
        extraction_bytes = (1 + 4) * plan.n_phases * m * rows
        assert peak <= 1.5 * extraction_bytes, (
            f"peak {peak / extraction_bytes:.2f}x phase tensor + GEMM operand"
        )

    def test_noisy_plan_keeps_seeded_draw_order(self, tiny_linear_layer, tiny_patches):
        config = PimLayerConfig()
        planned, _, plan = planned_pair(
            tiny_linear_layer, config, noise=GaussianColumnNoise(level=0.05, seed=11)
        )
        assert not plan.fast_path_eligible  # noisy layers keep the phase loop
        reference = PimLayerExecutor(
            tiny_linear_layer, config, noise=GaussianColumnNoise(level=0.05, seed=11)
        )
        assert np.array_equal(
            planned.matmul(tiny_patches), reference.matmul(tiny_patches)
        )

    def test_adopt_rejects_mismatched_layer_or_config(self, tiny_linear_layer, rng):
        from repro.nn.layers import Linear
        from repro.nn.synthetic import synthetic_linear_weights

        other_layer = Linear("other_fc", synthetic_linear_weights(5, 16, rng))
        inputs = np.abs(rng.normal(0, 1, size=(32, 16)))
        other_layer.calibrate(inputs, other_layer.forward_float(inputs))
        plan = VectorizedLayerExecutor(tiny_linear_layer, PimLayerConfig()).layer_plan
        with pytest.raises(ValueError, match="plan"):
            VectorizedLayerExecutor(other_layer, PimLayerConfig(), plan=plan)
        changed = PimLayerConfig(adc_bits=9)
        with pytest.raises(ValueError, match="plan"):
            VectorizedLayerExecutor(tiny_linear_layer, changed, plan=plan)
        assert plan.matches(tiny_linear_layer, PimLayerConfig())
        assert not plan.matches(tiny_linear_layer, changed)

    def test_fast_path_gating(self, tiny_linear_layer):
        eligible = VectorizedLayerExecutor(
            tiny_linear_layer, PimLayerConfig()
        ).layer_plan
        assert eligible.fast_path_eligible
        column_sums = VectorizedLayerExecutor(
            tiny_linear_layer, PimLayerConfig(collect_column_sums=True)
        ).layer_plan
        assert not column_sums.fast_path_eligible

    def test_phase_table_shapes(self, tiny_linear_layer):
        serial = PimLayerConfig(
            speculation=SpeculationMode.BIT_SERIAL,
            serial_input_slicing=Slicing((2, 2, 2, 2)),
        )
        plan = VectorizedLayerExecutor(tiny_linear_layer, serial).layer_plan
        assert plan.n_phases == 4
        assert plan.input_plan.mode is SpeculationMode.BIT_SERIAL
        # A bit-serial plan GEMMs its own phases and has no speculative groups.
        assert plan.n_planes == 4
        assert np.array_equal(plan.plane_shifts, plan.phase_shifts)
        assert np.array_equal(plan.plane_masks, plan.phase_masks)
        assert plan.group_weights.shape == (0, 4)
        assert plan.plane_group.size == plan.group_widths.size == 0


def calibrated_linear(rng, n_out: int, n_in: int, batch: int = 24):
    """A calibrated linear layer and a batch of its input codes."""
    from repro.nn.layers import Linear
    from repro.nn.synthetic import synthetic_linear_weights

    layer = Linear("plane_fc", synthetic_linear_weights(n_out, n_in, rng, std=0.2))
    inputs = np.abs(rng.normal(0, 1, size=(32, n_in)))
    layer.calibrate(inputs, layer.forward_float(inputs))
    return layer, layer.input_quant.quantize(np.abs(rng.normal(0, 1, (batch, n_in))))


class TestBitPlaneKernel:
    """The planned kernel: bit-plane GEMM plus exact-product reassembly."""

    def test_speculative_plan_gemms_eight_bit_planes(
        self, tiny_linear_layer, tiny_patches, monkeypatch
    ):
        from repro.runtime import vectorized

        planned = VectorizedLayerExecutor(tiny_linear_layer, PimLayerConfig())
        plan = planned.layer_plan
        assert plan.n_phases == 11 and plan.n_planes == 8
        assert list(plan.plane_shifts) == [7, 6, 5, 4, 3, 2, 1, 0]
        assert set(plan.plane_masks) == {1}
        assert plan.group_weights.shape == (3, 8)
        extracted = []
        slice_phases = vectorized.slice_phases

        def spy(codes, shifts, masks):
            tensor = slice_phases(codes, shifts, masks)
            extracted.append(tensor.shape)
            return tensor

        monkeypatch.setattr(vectorized, "slice_phases", spy)
        planned.matmul(tiny_patches)
        assert extracted == [(8, tiny_patches.shape[0], tiny_patches.shape[1])]

    def test_many_corrections_inside_one_tile(self, rng):
        """A 512-row layer on a 3-bit ADC clips planes all over one tile."""
        from repro.runtime.vectorized import TILE_ELEMENTS

        layer, codes = calibrated_linear(rng, 8, 512)
        config = PimLayerConfig(adc_bits=3)
        planned = VectorizedLayerExecutor(layer, config, weight_cache=None)
        plan = planned.layer_plan
        per_row = plan.n_planes * (512 + plan.operands[0].n_columns)
        assert TILE_ELEMENTS // per_row >= codes.shape[0]  # a single tile
        reference = PimLayerExecutor(layer, config)
        assert_same_bytes(planned.matmul(codes), reference.matmul(codes))
        assert_stats_equal(planned.stats, reference.stats)
        assert planned.stats.fidelity_loss_events > codes.shape[0]

    def test_failed_speculation_without_lossy_positions(self, rng):
        """Speculation fails, yet no recovery plane leaves the ADC range:
        the exact product alone is the output."""
        layer, codes = calibrated_linear(rng, 8, 16)
        config = PimLayerConfig(adc_bits=6)
        planned = VectorizedLayerExecutor(layer, config, weight_cache=None)
        reference = PimLayerExecutor(layer, config)
        assert_same_bytes(planned.matmul(codes), reference.matmul(codes))
        assert_stats_equal(planned.stats, reference.stats)
        assert planned.stats.speculation_failures > 0
        assert planned.stats.fidelity_loss_events == 0

    def test_float64_exact_product(self, rng):
        """Unsigned 512-row weights overflow float32's exact range in the
        shifted-together operand, which then stays float64."""
        from repro.core.center_offset import WeightEncoding

        layer, codes = calibrated_linear(rng, 8, 600)
        config = PimLayerConfig(
            weight_encoding=WeightEncoding.UNSIGNED, adc_signed=False
        )
        planned = VectorizedLayerExecutor(layer, config, weight_cache=None)
        operands = planned.layer_plan.operands
        assert [o.combined.dtype for o in operands] == [np.float64, np.float32]
        reference = PimLayerExecutor(layer, config)
        assert_same_bytes(planned.matmul(codes), reference.matmul(codes))
        assert_stats_equal(planned.stats, reference.stats)

    def test_uneven_plane_tiles(self, tiny_linear_layer, tiny_patches, monkeypatch):
        from repro.runtime import vectorized

        planned = VectorizedLayerExecutor(tiny_linear_layer, PimLayerConfig())
        plan = planned.layer_plan
        per_row = plan.n_planes * (24 + plan.operands[0].n_columns)
        monkeypatch.setattr(vectorized, "TILE_ELEMENTS", 5 * per_row)
        assert tiny_patches.shape[0] % 5
        reference = PimLayerExecutor(tiny_linear_layer, PimLayerConfig())
        assert_same_bytes(planned.matmul(tiny_patches), reference.matmul(tiny_patches))
        assert_stats_equal(planned.stats, reference.stats)


def signed_linear(rng, n_out: int = 5, n_in: int = 16, batch: int = 48):
    """A BERT-style signed-input layer and ``int8`` codes down to -128."""
    from repro.nn.layers import Linear
    from repro.nn.synthetic import synthetic_linear_weights

    layer = Linear(
        "signed_fc", synthetic_linear_weights(n_out, n_in, rng), signed_input=True
    )
    inputs = rng.normal(0, 1, size=(32, n_in))
    layer.calibrate(inputs, layer.forward_float(inputs))
    codes = layer.input_quant.quantize(rng.normal(0, 1, size=(batch, n_in)))
    codes = codes.astype(np.int8)
    codes[0, :3] = -128
    return layer, codes


def few_row_tiles(monkeypatch, executor, rows_per_tile: int = 5) -> None:
    """Shrink the tile budget to ``rows_per_tile`` rows of the widest chunk."""
    plan = executor.layer_plan
    per_row = max(
        plan.n_planes * (chunk.rows + operands.n_columns)
        for chunk, operands in zip(executor._chunks, plan.operands)
    )
    monkeypatch.setattr(vectorized, "TILE_ELEMENTS", rows_per_tile * per_row)


def spy_threaded_calls(monkeypatch) -> list[int]:
    """Record the worker count of every threaded tile run."""
    calls: list[int] = []
    run = VectorizedLayerExecutor._run_tiles_threaded

    def spy(self, *args):
        calls.append(args[-1])
        return run(self, *args)

    monkeypatch.setattr(VectorizedLayerExecutor, "_run_tiles_threaded", spy)
    return calls


PARALLEL_CASES = {
    "speculative": PARITY_CONFIGS["raella"].with_changes(collect_column_sums=False),
    "bit_serial": PARITY_CONFIGS["isaac"],
    "multi_chunk": PARITY_CONFIGS["raella_multi_chunk"],
    "zero_offset": PARITY_CONFIGS["zero_offset"],
}


class TestParallelRowTiles:
    """A chunk's row tiles on call-scoped threads: same bits, same counters,
    and no thread left behind."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("name", sorted(PARALLEL_CASES))
    def test_threaded_tiles_match_the_reference(
        self, name, workers, tiny_linear_layer, tiny_patches, monkeypatch
    ):
        config = PARALLEL_CASES[name]
        planned = VectorizedLayerExecutor(tiny_linear_layer, config)
        assert planned.layer_plan.fast_path_eligible
        few_row_tiles(monkeypatch, planned)
        monkeypatch.setattr(vectorized, "TILE_WORKERS", workers)
        calls = spy_threaded_calls(monkeypatch)
        assert tiny_patches.shape[0] % 5  # the last tile is short
        reference = PimLayerExecutor(tiny_linear_layer, config)
        assert_same_bytes(planned.matmul(tiny_patches), reference.matmul(tiny_patches))
        assert_stats_equal(planned.stats, reference.stats)
        assert calls and set(calls) == {workers}
        assert len(calls) == planned.n_row_chunks

    @pytest.mark.parametrize("workers", [2, 3])
    def test_threaded_signed_int8_tiles_match_the_reference(
        self, workers, rng, monkeypatch
    ):
        layer, codes = signed_linear(rng)
        planned = VectorizedLayerExecutor(layer, PimLayerConfig(), weight_cache=None)
        few_row_tiles(monkeypatch, planned, rows_per_tile=7)
        monkeypatch.setattr(vectorized, "TILE_WORKERS", workers)
        calls = spy_threaded_calls(monkeypatch)
        reference = PimLayerExecutor(layer, PimLayerConfig())
        assert_same_bytes(planned.matmul(codes), reference.matmul(codes))
        assert_stats_equal(planned.stats, reference.stats)
        assert len(calls) == 2  # positive and negative magnitudes

    def test_counters_survive_rapid_thread_switching(self, rng, monkeypatch):
        """More tile workers than cores, one-row tiles and a tiny switch
        interval: a counter update lost to a race would show here."""
        layer, codes = calibrated_linear(rng, 8, 64, batch=160)
        config = PimLayerConfig(adc_bits=5)
        planned = VectorizedLayerExecutor(layer, config, weight_cache=None)
        few_row_tiles(monkeypatch, planned, rows_per_tile=1)
        monkeypatch.setattr(vectorized, "TILE_WORKERS", 2 * os.cpu_count() + 2)
        reference = PimLayerExecutor(layer, config)
        expected = reference.matmul(codes)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                planned.reset_stats()
                assert_same_bytes(planned.matmul(codes), expected)
                assert_stats_equal(planned.stats, reference.stats)
        finally:
            sys.setswitchinterval(interval)

    def test_worker_exception_reraises_in_the_caller(
        self, tiny_linear_layer, tiny_patches, monkeypatch
    ):
        planned = VectorizedLayerExecutor(tiny_linear_layer, PimLayerConfig())
        few_row_tiles(monkeypatch, planned)
        monkeypatch.setattr(vectorized, "TILE_WORKERS", 3)
        caller = threading.get_ident()
        worker_ran = threading.Event()
        tile = VectorizedLayerExecutor._planned_tile

        def failing_tile(self, *args):
            if threading.get_ident() != caller:
                worker_ran.set()
                raise RuntimeError("tile failed in a worker")
            worker_ran.wait(timeout=10)  # let a worker take a tile
            return tile(self, *args)

        monkeypatch.setattr(VectorizedLayerExecutor, "_planned_tile", failing_tile)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="tile failed in a worker"):
            planned.matmul(tiny_patches)
        assert worker_ran.is_set()
        assert threading.active_count() == before
        assert not [t for t in threading.enumerate() if t.name == "pim-row-tile"]

    def test_no_thread_outlives_a_multi_tile_matmul(
        self, tiny_linear_layer, tiny_patches, monkeypatch
    ):
        planned = VectorizedLayerExecutor(tiny_linear_layer, PimLayerConfig())
        few_row_tiles(monkeypatch, planned)
        monkeypatch.setattr(vectorized, "TILE_WORKERS", 3)
        calls = spy_threaded_calls(monkeypatch)
        before = threading.active_count()
        planned.matmul(tiny_patches)
        assert calls == [3]
        assert threading.active_count() == before

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_replica_pools_still_fork_after_a_multi_tile_matmul(self):
        # A fresh, single-threaded interpreter: a persistent tile pool would
        # leave a live thread behind and turn later pools to ``spawn``.
        script = """
import threading
import numpy as np
from repro.core.executor import PimLayerConfig
from repro.nn.layers import Linear
from repro.nn.synthetic import synthetic_linear_weights
from repro.runtime import VectorizedLayerExecutor, vectorized
from repro.runtime.procpool import _default_start_method

rng = np.random.default_rng(0)
layer = Linear("fc", synthetic_linear_weights(6, 24, rng, std=0.2))
inputs = np.abs(rng.normal(0, 1, size=(64, 24)))
layer.calibrate(inputs, layer.forward_float(inputs))
vectorized.TILE_WORKERS = 2
vectorized.TILE_ELEMENTS = 1
runs = []
run = VectorizedLayerExecutor._run_tiles_threaded
VectorizedLayerExecutor._run_tiles_threaded = (
    lambda self, *args: runs.append(args[-1]) or run(self, *args)
)
VectorizedLayerExecutor(layer, PimLayerConfig()).matmul(layer.input_quant.quantize(inputs))
assert runs == [2], runs
print(threading.active_count(), _default_start_method())
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["1", "fork"]

    def test_pinned_replica_worker_runs_tiles_on_one_thread(self, monkeypatch):
        for var in vectorized.BLAS_ENV_VARS:  # restored after the test
            monkeypatch.setenv(var, "4")
        monkeypatch.setattr(vectorized, "TILE_WORKERS", 4)
        _limit_blas_threads(1)
        assert vectorized.TILE_WORKERS == 1
        assert {os.environ[var] for var in vectorized.BLAS_ENV_VARS} == {"1"}

    def test_budget_is_usable_cores_per_blas_thread(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(4)), raising=False
        )
        for var in vectorized.BLAS_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        assert vectorized._tile_workers() == 1  # an unpinned pool spans every core
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert vectorized._tile_workers() == 4
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert vectorized._tile_workers() == 4  # the narrowest pin sizes the pool
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert vectorized._tile_workers() == 2

    def test_concurrent_multi_tile_layers_match_a_sequential_run(
        self, tiny_linear_layer, tiny_patches, rng, monkeypatch
    ):
        """Two threads run multi-tile executors of different layers at once,
        as the thread-backend server does; every byte matches a sequential run."""
        wide, wide_codes = calibrated_linear(rng, 8, 64, batch=96)
        jobs = [
            (tiny_linear_layer, PARITY_CONFIGS["raella_multi_chunk"], tiny_patches),
            (wide, PimLayerConfig(adc_bits=5), wide_codes),
        ]
        monkeypatch.setattr(vectorized, "TILE_ELEMENTS", 2000)
        monkeypatch.setattr(vectorized, "TILE_WORKERS", 2)
        calls = spy_threaded_calls(monkeypatch)

        def run_all(executors):
            return [
                ex.matmul(codes).tobytes() for ex, (_, _, codes) in zip(executors, jobs)
            ]

        sequential = [
            VectorizedLayerExecutor(layer, config) for layer, config, _ in jobs
        ]
        expected = run_all(sequential)
        assert calls
        for _ in range(5):
            executors = [
                VectorizedLayerExecutor(layer, config) for layer, config, _ in jobs
            ]
            barrier = threading.Barrier(len(jobs))
            outputs: dict[int, bytes] = {}

            def drive(index):
                barrier.wait(timeout=10)
                _, _, codes = jobs[index]
                outputs[index] = executors[index].matmul(codes).tobytes()

            threads = [
                threading.Thread(target=drive, args=(i,)) for i in range(len(jobs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert [outputs.get(i) for i in range(len(jobs))] == expected
            for executor, baseline in zip(executors, sequential):
                assert_stats_equal(executor.stats, baseline.stats)


class TestModelPlan:
    def test_layer_plans_cover_matmul_layers(self, tiny_mlp_model):
        plan = compile_model_plan(tiny_mlp_model)
        for layer in tiny_mlp_model.matmul_layers():
            layer_plan = plan.layer_plan(layer.name)
            assert layer_plan is not None
            assert layer_plan.weight_fingerprint == layer.weight_fingerprint
        assert plan.layer_plan("no_such_layer") is None

    def test_cache_key_sensitivity(self, tiny_mlp_model):
        base = ModelPlan.cache_key(tiny_mlp_model, PimLayerConfig(), None, True, None)
        assert base == ModelPlan.cache_key(
            tiny_mlp_model, PimLayerConfig(), NoiselessModel(), True, None
        )
        assert base != ModelPlan.cache_key(
            tiny_mlp_model, PimLayerConfig(adc_bits=8), None, True, None
        )
        assert base != ModelPlan.cache_key(
            tiny_mlp_model, PimLayerConfig(), None, False, None
        )
        assert base != ModelPlan.cache_key(
            tiny_mlp_model, PimLayerConfig(), None, True, 8
        )
        noisy = GaussianColumnNoise(level=0.05)
        assert base != ModelPlan.cache_key(
            tiny_mlp_model, PimLayerConfig(), noisy, True, None
        )

    def test_engine_build_adopts_plan(self, tiny_mlp_model, rng):
        pool = ExecutorPool()
        plan = compile_model_plan(tiny_mlp_model, micro_batch=8, pool=pool)
        engine = NetworkEngine.build(tiny_mlp_model, pool=pool, plan=plan)
        assert engine.model_plan is plan
        assert engine.micro_batch == 8  # inherited from the plan
        baseline = NetworkEngine.build(tiny_mlp_model, micro_batch=8)
        inputs = np.abs(rng.normal(0, 1, size=(13, 16)))
        assert np.array_equal(engine.run(inputs), baseline.run(inputs))


class TestRegistryPlanCache:
    def test_register_compiles_and_exposes_plan(self, tiny_mlp_model):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model)
        plan = registry.plan("mlp")
        assert isinstance(plan, ModelPlan)
        assert registry.plan_cache.misses == 1
        with pytest.raises(KeyError):
            registry.plan("nope")
        registry.close()

    def test_changed_config_compiles_fresh_plan(self, tiny_mlp_model):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model)
        first = registry.plan("mlp")
        registry.register(
            "mlp", tiny_mlp_model, config=PimLayerConfig(adc_bits=8), replace=True
        )
        second = registry.plan("mlp")
        assert second is not first
        assert second.config != first.config
        assert registry.plan_cache.misses == 2
        registry.close()

    def test_unchanged_reregistration_reuses_plan_identity(self, tiny_mlp_model):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model)
        first = registry.plan("mlp")
        registry.register("mlp", tiny_mlp_model, replace=True)
        assert registry.plan("mlp") is first
        assert registry.plan_cache.hits >= 1
        registry.close()

    def test_backend_swap_reuses_plan_and_stays_bit_identical(
        self, tiny_mlp_model, rng
    ):
        inputs = np.abs(rng.normal(0, 1, size=(6, 16)))
        registry = ModelRegistry()
        try:
            registry.register("mlp", tiny_mlp_model)
            thread_plan = registry.plan("mlp")
            thread_outputs = registry.engine("mlp").run(inputs)
            registry.register("mlp", tiny_mlp_model, backend="process", replace=True)
            assert registry.plan("mlp") is thread_plan
            process_outputs = registry.engine("mlp").run(inputs)
            registry.register("mlp", tiny_mlp_model, replace=True)
            assert registry.plan("mlp") is thread_plan
            assert np.array_equal(process_outputs, thread_outputs)
        finally:
            registry.close()

    def test_rolling_replace_reuses_plan(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(4, 16)))
        registry = ModelRegistry()
        try:
            registry.register("mlp", tiny_mlp_model, backend="process", replicas=2)
            first = registry.plan("mlp")
            before = registry.engine("mlp").run(inputs)
            registry.register(
                "mlp",
                tiny_mlp_model,
                backend="process",
                replicas=2,
                replace=True,
            )
            assert registry.plan("mlp") is first  # rolled, not recompiled
            assert np.array_equal(registry.engine("mlp").run(inputs), before)
        finally:
            registry.close()

    def test_non_vectorized_pools_have_no_plan(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(4, 16)))
        registry = ModelRegistry(
            pool=ExecutorPool(weight_cache=None, executor_factory=PimLayerExecutor)
        )
        engine = registry.register("mlp", tiny_mlp_model)
        assert registry.plan("mlp") is None
        assert np.array_equal(
            engine.run(inputs), NetworkEngine.build(tiny_mlp_model).run(inputs)
        )
        registry.close()

    def test_unregister_keeps_cache_warm(self, tiny_mlp_model):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model)
        first = registry.plan("mlp")
        registry.unregister("mlp")
        registry.register("mlp", tiny_mlp_model)
        assert registry.plan("mlp") is first  # LRU outlives the hosting
        registry.close()


class TestPlanTransport:
    def test_process_engine_runs_shipped_plan(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(5, 16)))
        plan = compile_model_plan(tiny_mlp_model)
        baseline = NetworkEngine.build(tiny_mlp_model).run(inputs)
        engine = ReplicaPool.launch(tiny_mlp_model, replicas=1, plan=plan)
        try:
            outputs = engine.run(inputs)
            assert np.array_equal(outputs, baseline)
            assert not outputs.flags.writeable  # pooled zero-copy view
        finally:
            engine.close()
