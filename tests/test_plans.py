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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analog.noise import GaussianColumnNoise, NoiselessModel
from repro.arithmetic.slicing import Slicing
from repro.core.center_offset import WeightEncoding
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
from repro.runtime.plan import PACKED_FIELD_MAX
from repro.runtime.procpool import _limit_blas_threads, _openblas_thread_controls
from repro.runtime.vectorized import _tile_rows
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
        assert np.float32 in [o.dtype for o in planned.layer_plan.operands]
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
            assert [o.dtype for o in executor.layer_plan.operands] == [np.float32]
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


#: Configurations whose noiseless chunks GEMM packed planes at M >= 64.
PACKED_CASES = {
    "speculative": PimLayerConfig(),
    "bit_serial_1b": PARITY_CONFIGS["isaac"],
    "bit_serial_2b": PimLayerConfig(
        speculation=SpeculationMode.BIT_SERIAL,
        serial_input_slicing=Slicing((2, 2, 2, 2)),
    ),
    "bit_serial_odd": PimLayerConfig(
        speculation=SpeculationMode.BIT_SERIAL,
        serial_input_slicing=Slicing((3, 3, 2)),
    ),
    "zero_offset": PARITY_CONFIGS["zero_offset"],
    "unsigned": PimLayerConfig(
        weight_encoding=WeightEncoding.UNSIGNED, adc_signed=False
    ),
    "multi_chunk": PARITY_CONFIGS["raella_multi_chunk"],
}


def spy_packed_operands(monkeypatch) -> list[tuple]:
    """Record the shape of every packed plane operand the kernel builds."""
    shapes: list[tuple] = []
    pack_planes = vectorized.pack_planes

    def spy(codes, shifts, masks):
        packed = pack_planes(codes, shifts, masks)
        shapes.append(packed.shape)
        return packed

    monkeypatch.setattr(vectorized, "pack_planes", spy)
    return shapes


def assert_matches_reference(layer, config, codes) -> VectorizedLayerExecutor:
    """Run ``codes`` planned and through the per-phase reference; same bytes
    and same counters.  Returns the planned executor."""
    planned = VectorizedLayerExecutor(layer, config, weight_cache=None)
    reference = PimLayerExecutor(layer, config)
    assert_same_bytes(planned.matmul(codes), reference.matmul(codes))
    assert_stats_equal(planned.stats, reference.stats)
    return planned


def bound_layer(last_code: int):
    """A 16-input layer whose widest weight column sums to ``2040 + last_code``.

    Weight codes equal the float weights (each filter spans 0..255, so the
    scale is 1); with ``UNSIGNED`` encoding and one 8-bit weight slice the
    crossbar operand is the codes themselves.
    """
    from repro.nn.layers import Linear

    weights = np.zeros((3, 16))
    weights[:, 0] = 255
    weights[0, 1:8] = 255
    weights[0, 8] = last_code
    weights[1:, 1:] = np.arange(15) * 3
    layer = Linear("bound_fc", weights)
    assert np.array_equal(layer.weight_codes.T, weights)
    inputs = np.abs(np.random.default_rng(3).normal(0, 1, size=(32, 16)))
    layer.calibrate(inputs, layer.forward_float(inputs))
    return layer


BOUND_CONFIG = PimLayerConfig(
    weight_encoding=WeightEncoding.UNSIGNED,
    adc_signed=False,
    weight_slicing=Slicing((8,)),
    device_bits=8,
)


#: The adaptive-slicing search's trial config: 1-bit input phases and
#: 4-bit devices (see ``choose_weight_slicing``); each trial sets the
#: weight slicing.
SEARCH_CONFIG = PimLayerConfig(
    speculation=SpeculationMode.BIT_SERIAL, serial_input_slicing=None, device_bits=4
)


class TestPackedPlanes:
    """Two bit planes per float32 GEMM row at M >= PACKED_MIN_ROWS: the
    same bits and counters as the per-phase reference."""

    @pytest.mark.parametrize("name", sorted(PACKED_CASES))
    def test_packed_planes_match_the_reference(self, name, rng, monkeypatch):
        config = PACKED_CASES[name]
        layer, codes = calibrated_linear(
            rng, 7, 40, batch=vectorized.PACKED_MIN_ROWS + 9
        )
        shapes = spy_packed_operands(monkeypatch)
        planned = assert_matches_reference(layer, config, codes)
        plan = planned.layer_plan
        assert all(operands.packed for operands in plan.operands)
        half = (plan.n_planes + 1) // 2
        assert len(shapes) == planned.n_row_chunks
        assert all(shape[:2] == (half, codes.shape[0]) for shape in shapes)

    def test_speculative_plan_gemms_four_packed_rows_per_input_row(
        self, rng, monkeypatch
    ):
        layer, codes = calibrated_linear(rng, 6, 24, batch=64)
        planned = VectorizedLayerExecutor(layer, PimLayerConfig(), weight_cache=None)
        assert planned.layer_plan.n_planes == 8
        shapes = spy_packed_operands(monkeypatch)
        gemm_rows = []
        unpacked = []
        packed_sums = VectorizedLayerExecutor._packed_plane_sums
        slice_phases = vectorized.slice_phases

        def spy_sums(self, narrow, operands):
            sums, pulses = packed_sums(self, narrow, operands)
            gemm_rows.append(shapes[-1][0] * shapes[-1][1])
            return sums, pulses

        def spy_slices(codes, shifts, masks):
            unpacked.append(shifts.size)
            return slice_phases(codes, shifts, masks)

        monkeypatch.setattr(VectorizedLayerExecutor, "_packed_plane_sums", spy_sums)
        monkeypatch.setattr(vectorized, "slice_phases", spy_slices)
        planned.matmul(codes)
        assert shapes == [(4, 64, 24)]
        assert gemm_rows == [4 * 64]  # not 8 plane rows per input row
        assert unpacked == []

    @pytest.mark.parametrize("n_out, n_in", [(32, 288), (2, 512), (64, 16)])
    def test_packed_tiles_stay_within_the_tile_budget(self, n_out, n_in, rng):
        """Beyond the output and the codes, a multi-tile packed chunk peaks
        within 1.5x the tile budget's float32 bytes: the budget counts the
        scratch, packed operand, packed products and decoded sums."""
        import tracemalloc

        layer, codes = calibrated_linear(rng, n_out, n_in, batch=512)
        executor = VectorizedLayerExecutor(layer, PimLayerConfig(), weight_cache=None)
        plan, chunk = executor.layer_plan, executor._chunks[0]
        assert plan.operands[0].packed
        assert _tile_rows(plan, plan.operands[0], n_in, True) < codes.shape[0]
        executor._planned_chunk_matmul(codes, chunk, 0)  # warm-up
        tracemalloc.start()
        try:
            executor._planned_chunk_matmul(codes, chunk, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        fixed = codes.size + 8 * codes.shape[0] * plan.n_filters
        budget_bytes = 4 * vectorized.TILE_ELEMENTS
        over = (peak - fixed) / budget_bytes
        assert over <= 1.5, f"{over:.2f}x the tile budget"

    def test_small_calls_keep_unpacked_planes(self, rng, monkeypatch):
        layer, codes = calibrated_linear(rng, 6, 24, batch=vectorized.PACKED_MIN_ROWS)
        shapes = spy_packed_operands(monkeypatch)
        planned = assert_matches_reference(layer, PimLayerConfig(), codes[:-1])
        assert planned.layer_plan.operands[0].packed and shapes == []
        planned.matmul(codes)
        assert len(shapes) == 1

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_packed_row_tiles_match_the_reference(self, workers, rng, monkeypatch):
        layer, codes = calibrated_linear(rng, 8, 80, batch=151)
        config = PimLayerConfig(adc_bits=5, crossbar_rows=40)
        planned = VectorizedLayerExecutor(layer, config, weight_cache=None)
        plan = planned.layer_plan
        per_row = max(
            vectorized._row_footprint(plan, operands, chunk.rows, True)
            for chunk, operands in zip(planned._chunks, plan.operands)
        )
        monkeypatch.setattr(vectorized, "TILE_ELEMENTS", 13 * per_row)
        monkeypatch.setattr(vectorized, "TILE_WORKERS", workers)
        calls = spy_threaded_calls(monkeypatch)
        shapes = spy_packed_operands(monkeypatch)
        reference = PimLayerExecutor(layer, config)
        assert_same_bytes(planned.matmul(codes), reference.matmul(codes))
        assert_stats_equal(planned.stats, reference.stats)
        assert planned.stats.fidelity_loss_events > 0
        assert len(shapes) == 2 * -(-codes.shape[0] // 13)  # two equal chunks
        assert {shape[1] for shape in shapes} == {13, codes.shape[0] % 13}
        assert len(calls) == (2 if workers > 1 else 0)

    def test_signed_int8_codes_pack(self, rng, monkeypatch):
        layer, codes = signed_linear(rng, batch=80)
        shapes = spy_packed_operands(monkeypatch)
        assert_matches_reference(layer, PimLayerConfig(), codes)
        assert len(shapes) == 2  # positive and negative magnitudes

    def test_tile_rows_keep_column_sums_decodable(self, rng, monkeypatch):
        """A huge tile budget is capped so ``m * max_plane`` fits one field."""
        layer, codes = calibrated_linear(rng, 2, 8, batch=1200)
        config = PACKED_CASES["bit_serial_2b"]
        monkeypatch.setattr(vectorized, "TILE_ELEMENTS", 1 << 30)
        shapes = spy_packed_operands(monkeypatch)
        planned = assert_matches_reference(layer, config, codes)
        assert planned.layer_plan.plane_masks.max() == 3
        assert max(shape[1] for shape in shapes) == PACKED_FIELD_MAX // 3

    @pytest.mark.parametrize("last_code, packed", [(7, True), (8, False)])
    def test_chunk_at_the_packing_bound(self, last_code, packed, rng, monkeypatch):
        layer = bound_layer(last_code)
        codes = rng.integers(0, 256, size=(70, 16)).astype(np.uint8)
        codes[:, :9] = 255  # every plane sums the widest column in full
        shapes = spy_packed_operands(monkeypatch)
        planned = assert_matches_reference(layer, BOUND_CONFIG, codes)
        operands = planned.layer_plan.operands[0]
        assert np.abs(operands.weights).sum(axis=0).max() == 2040 + last_code
        assert operands.packed is packed
        assert len(shapes) == int(packed)

    def test_packed_gemm_bound(self):
        from repro.runtime.plan import packed_gemm_is_exact

        # Positive and negative totals of +-2047 pack; 2048 on either side
        # does not.
        column = np.zeros((4, 2))
        column[:, 0] = [1000, 1047, -1000, -1047]
        assert packed_gemm_is_exact(1, column)
        for row in (1, 3):
            wider = column.copy()
            wider[row, 0] += np.sign(wider[row, 0])
            assert not packed_gemm_is_exact(1, wider)
        assert packed_gemm_is_exact(3, np.array([[682.0]]))  # 3 * 682 = 2046
        assert not packed_gemm_is_exact(3, np.array([[-683.0]]))
        assert packed_gemm_is_exact(15, np.ones((1, 1)))
        assert not packed_gemm_is_exact(16, np.ones((1, 1)))  # overflows uint16

    def test_signed_sums_accept_what_absolute_sums_refused(self):
        from repro.runtime.plan import float32_gemm_is_exact, packed_gemm_is_exact

        # An asymmetric column: sum(|w|) = 3547, signed totals 2047 and 1500.
        column = np.array([[1500.0], [547.0], [-1200.0], [-300.0]])
        assert np.abs(column).sum() > PACKED_FIELD_MAX
        assert packed_gemm_is_exact(1, column)
        assert not packed_gemm_is_exact(1, column * 2)
        # sum(|w|) = 7000: 4096 * 7000 > 2**24, but 4096 * 4000 < 2**24.
        column = np.array([[2500.0], [1500.0], [-3000.0]])
        assert 4096 * np.abs(column).sum() >= 1 << 24
        assert float32_gemm_is_exact(4096, column)
        assert not float32_gemm_is_exact(4195, column)  # 4195 * 4000 > 2**24

    def test_layer_only_the_signed_bound_packs_matches_the_reference(self, monkeypatch):
        """A ``resnet18_like`` layer under the slicing search's bit-serial
        config that ``sum(|w|)`` refused to pack, run packed: same bytes
        and counters as the per-phase reference."""
        from repro.nn.synthetic import synthetic_images
        from repro.nn.zoo import resnet18_like

        model = resnet18_like(seed=0)
        layer = model.matmul_layers()[1]
        inputs = synthetic_images(1, model.input_shape, np.random.default_rng(7))
        activation = model.capture_layer_inputs(inputs, [layer.name])[layer.name]
        codes = activation.patch_codes[::8].astype(np.uint8)
        codes[0] = 255  # every plane at its largest value
        config = SEARCH_CONFIG.with_changes(weight_slicing=Slicing((4, 4)))
        shapes = spy_packed_operands(monkeypatch)
        planned = assert_matches_reference(layer, config, codes)
        (operands,) = planned.layer_plan.operands
        assert np.abs(operands.weights).sum(axis=0).max() > PACKED_FIELD_MAX
        assert operands.packed
        assert len(shapes) == 1 and codes.shape[0] >= vectorized.PACKED_MIN_ROWS

    @pytest.mark.slow
    def test_every_search_trial_chunk_packs(self):
        """Every chunk of every candidate slicing the adaptive-slicing search
        may try on ``resnet18_like`` packs its bit planes (a property of the
        weights alone)."""
        from repro.core.adaptive_slicing import AdaptiveSlicingConfig
        from repro.nn.zoo import resnet18_like

        candidates = AdaptiveSlicingConfig().candidate_slicings
        for layer in resnet18_like(seed=0).matmul_layers():
            for slicing in candidates:
                config = SEARCH_CONFIG.with_changes(weight_slicing=slicing)
                executor = VectorizedLayerExecutor(layer, config, weight_cache=None)
                unpacked = [
                    index
                    for index, operands in enumerate(executor.layer_plan.operands)
                    if not operands.packed
                ]
                assert not unpacked, (layer.name, str(slicing), unpacked)

    def test_noisy_and_float64_chunks_never_pack(self, tiny_linear_layer):
        noisy = VectorizedLayerExecutor(
            tiny_linear_layer, PimLayerConfig(), noise=GaussianColumnNoise(0.05, seed=1)
        )
        float64 = VectorizedLayerExecutor(
            tiny_linear_layer, PimLayerConfig(), float32=False
        )
        for executor in (noisy, float64):
            assert not any(op.packed for op in executor.layer_plan.operands)

    @pytest.mark.parametrize(
        "config",
        [*PARITY_CONFIGS.values(), *PACKED_CASES.values(), BOUND_CONFIG],
        ids=[*PARITY_CONFIGS, *PACKED_CASES, "bound"],
    )
    def test_pulse_coefficients_reproduce_the_pulse_table(self, config, rng):
        if config is BOUND_CONFIG:
            layer = bound_layer(7)
        else:
            layer, _ = calibrated_linear(rng, 3, 16)
        plan = VectorizedLayerExecutor(layer, config, weight_cache=None).layer_plan
        every_code = np.arange(plan.code_mask + 1, dtype=np.uint8)[np.newaxis, :]
        planes = vectorized.slice_phases(
            every_code, plan.plane_shifts, plan.plane_masks
        )
        pulses = plan.pulse_coef @ planes[:, 0, :].astype(np.int64)
        assert np.array_equal(pulses, plan.pulse_table[: plan.code_mask + 1])

    @pytest.mark.parametrize("model_name", ["resnet18_like", "bert_large_ffn_like"])
    def test_zoo_layers_match_the_reference(self, model_name, monkeypatch):
        from repro.nn import zoo
        from repro.nn.synthetic import synthetic_images, synthetic_signed_activations

        model = getattr(zoo, model_name)()
        data_rng = np.random.default_rng(7)
        if model_name == "resnet18_like":
            inputs = synthetic_images(1, model.input_shape, data_rng)
        else:
            inputs = synthetic_signed_activations((96,) + model.input_shape, data_rng)
        shapes = spy_packed_operands(monkeypatch)
        activations = model.capture_layer_inputs(inputs)
        for layer in model.matmul_layers():
            codes = activations[layer.name].patch_codes
            planned = assert_matches_reference(layer, PimLayerConfig(), codes)
            assert all(op.packed for op in planned.layer_plan.operands)
        assert len(shapes) >= len(model.matmul_layers()) - 2


def near_bound_weights(seed: int, rows: int, columns: int, limit: float):
    """Integer weights, skewed to one sign or the other, whose largest
    signed column total is at most ``limit`` and close to it."""
    from repro.runtime.plan import _column_sum_bound

    rng = np.random.default_rng(seed)
    low, high = rng.integers(1, 1000, size=2)
    weights = rng.integers(-low, high + 1, size=(rows, columns)).astype(np.float64)
    bound = _column_sum_bound(weights)
    return np.trunc(weights * (limit / bound)) if bound else weights


def extreme_inputs(seed: int, m: int, max_value: int, weights: np.ndarray):
    """Random inputs in ``[0, max_value]`` plus, per column, the two rows
    that reach its positive and its negative total."""
    rng = np.random.default_rng(seed)
    inputs = rng.integers(0, max_value + 1, size=(m, weights.shape[0]))
    extremes = np.concatenate([weights.T > 0, weights.T < 0]) * max_value
    return np.concatenate([inputs, extremes]).astype(np.float64)


class TestExactnessProofs:
    """Whenever a proof holds, the float32 GEMM it licenses is exact."""

    @settings(max_examples=60, deadline=None)
    @given(
        max_plane=st.sampled_from([1, 3, 7, 15]),
        rows=st.integers(1, 96),
        columns=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.5, 2.0),
    )
    def test_packed_gemm_decodes_to_the_plane_sums(
        self, max_plane, rows, columns, seed, scale
    ):
        from repro.runtime.plan import packed_gemm_is_exact

        limit = scale * PACKED_FIELD_MAX / max_plane
        weights = near_bound_weights(seed, rows, columns, limit)
        assume(packed_gemm_is_exact(max_plane, weights))
        lo = extreme_inputs(seed + 1, 5, max_plane, weights)
        hi = extreme_inputs(seed + 2, 5, max_plane, weights)[::-1]
        packed = (lo + 4096 * hi).astype(np.float32)
        sums = np.empty((2, lo.shape[0] * columns), dtype=np.float32)
        np.matmul(packed, weights.astype(np.float32), out=sums[:1].reshape(-1, columns))
        vectorized._unpack_rows(sums, 1)
        assert np.array_equal(sums[0], (lo @ weights).ravel())
        assert np.array_equal(sums[1], (hi @ weights).ravel())

    @settings(max_examples=60, deadline=None)
    @given(
        max_slice=st.sampled_from([1, 15, 255, 4095]),
        rows=st.integers(1, 512),
        columns=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.5, 2.0),
    )
    def test_float32_gemm_equals_the_float64_one(
        self, max_slice, rows, columns, seed, scale
    ):
        from repro.runtime import float32_gemm_is_exact

        weights = near_bound_weights(seed, rows, columns, scale * (1 << 24) / max_slice)
        assume(float32_gemm_is_exact(max_slice, weights))
        inputs = extreme_inputs(seed + 1, 8, max_slice, weights)
        product = inputs.astype(np.float32) @ weights.astype(np.float32)
        assert np.array_equal(product, inputs @ weights)


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
        saved = [(get(), set_) for get, set_ in _openblas_thread_controls()]
        try:
            _limit_blas_threads(1)
            assert vectorized.TILE_WORKERS == 1
            assert {os.environ[var] for var in vectorized.BLAS_ENV_VARS} == {"1"}
        finally:  # the live pool resize outlives monkeypatch
            for threads, set_threads in saved:
                set_threads(threads)

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
        base = ModelPlan.cache_key(tiny_mlp_model, PimLayerConfig(), None, None)
        assert base == ModelPlan.cache_key(
            tiny_mlp_model, PimLayerConfig(), NoiselessModel(), None
        )
        assert base != ModelPlan.cache_key(
            tiny_mlp_model, PimLayerConfig(adc_bits=8), None, None
        )
        assert base != ModelPlan.cache_key(tiny_mlp_model, PimLayerConfig(), None, 8)
        noisy = GaussianColumnNoise(level=0.05)
        assert base != ModelPlan.cache_key(
            tiny_mlp_model, PimLayerConfig(), noisy, None
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

    def test_engine_build_takes_config_and_dtypes_from_plan(self, tiny_mlp_model, rng):
        config = PimLayerConfig(adc_bits=5)
        plan = compile_model_plan(tiny_mlp_model, config, float32=False, micro_batch=5)
        engine = NetworkEngine.build(tiny_mlp_model, plan=plan)
        assert engine.micro_batch == 5
        for name, executor in engine.executors.items():
            assert executor.config == config and not executor.float32
            assert executor.layer_plan is plan.layer_plan(name)
        baseline = NetworkEngine.build(
            tiny_mlp_model, config, micro_batch=5, float32=False
        )
        inputs = np.abs(rng.normal(0, 1, size=(13, 16)))
        assert engine.run(inputs).tobytes() == baseline.run(inputs).tobytes()
        assert_stats_equal(engine.network_statistics(), baseline.network_statistics())


class TestRegistryPlanCache:
    def test_register_compiles_and_exposes_plan(self, tiny_mlp_model):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model)
        plan = registry.plan("mlp")
        assert isinstance(plan, ModelPlan)
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
        registry.close()

    def test_unchanged_reregistration_reuses_plan_identity(self, tiny_mlp_model):
        registry = ModelRegistry()
        registry.register("mlp", tiny_mlp_model)
        first = registry.plan("mlp")
        registry.register("mlp", tiny_mlp_model, replace=True)
        assert registry.plan("mlp") is first
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
            assert outputs.flags.writeable and outputs.flags.owndata
        finally:
            engine.close()
