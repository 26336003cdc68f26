"""Tests for the vectorized runtime: parity, caching, pooling, NetworkEngine.

The contract of :mod:`repro.runtime` is *bit-identity* with the per-phase
reference executor -- same outputs, same statistics, same seeded noise draws
-- so most tests here compare the two paths exactly rather than within a
tolerance.
"""

import numpy as np
import pytest

from repro.analog.noise import GaussianColumnNoise
from repro.arithmetic.slicing import (
    ISAAC_INPUT_SLICING,
    ISAAC_WEIGHT_SLICING,
    Slicing,
)
from repro.core.adaptive_slicing import AdaptiveSlicingConfig
from repro.core.center_offset import WeightEncoding
from repro.core.compiler import RaellaCompilerConfig
from repro.core.dynamic_input import (
    InputSlicePlan,
    SpeculationMode,
    extract_input_slice,
)
from repro.core.executor import PimLayerConfig, PimLayerExecutor
from repro.nn.layers import Linear
from repro.nn.synthetic import synthetic_linear_weights
from repro.runtime import (
    EncodedWeightCache,
    ExecutorPool,
    NetworkEngine,
    VectorizedLayerExecutor,
    plan_shift_masks,
)
from repro.runtime.phases import slice_phases

#: Statistic counters that must match exactly between the two executor paths.
STAT_FIELDS = (
    "n_inputs",
    "macs",
    "n_crossbars",
    "n_columns",
    "cycles",
    "adc_converts_speculative",
    "adc_converts_recovery",
    "adc_converts_serial",
    "speculation_slots",
    "speculation_failures",
    "fidelity_loss_events",
    "fidelity_loss_opportunities",
    "crossbar_activity",
    "input_pulses",
    "psums_produced",
)

RAELLA_CONFIG = PimLayerConfig(collect_column_sums=True)
ISAAC_CONFIG = PimLayerConfig(
    adc_signed=False,
    weight_encoding=WeightEncoding.UNSIGNED,
    weight_slicing=ISAAC_WEIGHT_SLICING,
    speculation=SpeculationMode.BIT_SERIAL,
    serial_input_slicing=ISAAC_INPUT_SLICING,
    adc_bits=8,
)
ZERO_OFFSET_CONFIG = PimLayerConfig(weight_encoding=WeightEncoding.ZERO_OFFSET)
PARITY_CONFIGS = {
    "raella": RAELLA_CONFIG,
    "raella_multi_chunk": PimLayerConfig(crossbar_rows=7),
    "isaac": ISAAC_CONFIG,
    "zero_offset": ZERO_OFFSET_CONFIG,
}


def assert_stats_equal(a, b):
    for name in STAT_FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    assert set(a.column_sums) == set(b.column_sums)
    for kind in a.column_sums:
        assert np.array_equal(a.column_sum_array(kind), b.column_sum_array(kind))


@pytest.fixture
def signed_layer_and_patches(rng):
    """A BERT-style signed-input layer with its quantized patches."""
    layer = Linear("signed_fc", synthetic_linear_weights(5, 16, rng), signed_input=True)
    inputs = rng.normal(0, 1, size=(32, 16))
    layer.calibrate(inputs, layer.forward_float(inputs))
    patches = layer.input_quant.quantize(inputs)
    assert patches.min() < 0
    return layer, patches


class TestPhaseTensor:
    def test_matches_per_phase_extraction(self, rng):
        plan = InputSlicePlan.build()
        codes = rng.integers(0, 256, size=(13, 9))
        tensor = slice_phases(codes, *plan_shift_masks(plan))
        assert tensor.shape == (plan.n_cycles, 13, 9)
        for index, phase in enumerate(plan.phases):
            assert np.array_equal(tensor[index], extract_input_slice(codes, phase))

    def test_bit_serial_plan(self, rng):
        plan = InputSlicePlan.build(mode=SpeculationMode.BIT_SERIAL)
        codes = rng.integers(0, 256, size=(4, 6))
        tensor = slice_phases(codes, *plan_shift_masks(plan))
        for index, phase in enumerate(plan.phases):
            assert np.array_equal(tensor[index], extract_input_slice(codes, phase))

    def test_rejects_negative_codes(self):
        plan = InputSlicePlan.build()
        with pytest.raises(ValueError):
            slice_phases(np.array([[-1, 2]]), *plan_shift_masks(plan))

    def test_narrow_dtype_covers_up_to_16_input_bits(self, rng):
        wide = InputSlicePlan.build(mode=SpeculationMode.BIT_SERIAL, input_bits=12)
        codes = rng.integers(0, 1 << 12, size=(3, 5))
        tensor = slice_phases(codes, *plan_shift_masks(wide))
        assert tensor.dtype == np.uint16
        for index, phase in enumerate(wide.phases):
            assert np.array_equal(tensor[index], extract_input_slice(codes, phase))
        too_wide = InputSlicePlan.build(mode=SpeculationMode.BIT_SERIAL, input_bits=17)
        with pytest.raises(ValueError, match="16-bit"):
            slice_phases(codes, *plan_shift_masks(too_wide))


class TestExecutorParity:
    """Vectorized executor vs per-phase reference: exact equality."""

    @pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
    def test_outputs_and_stats_identical(self, name, tiny_linear_layer, tiny_patches):
        config = PARITY_CONFIGS[name].with_changes(collect_column_sums=True)
        reference = PimLayerExecutor(tiny_linear_layer, config)
        vectorized = VectorizedLayerExecutor(
            tiny_linear_layer, config, weight_cache=None
        )
        assert np.array_equal(
            reference.matmul(tiny_patches), vectorized.matmul(tiny_patches)
        )
        assert_stats_equal(reference.stats, vectorized.stats)

    def test_signed_inputs_identical(self, signed_layer_and_patches):
        layer, patches = signed_layer_and_patches
        reference = PimLayerExecutor(layer, RAELLA_CONFIG)
        vectorized = VectorizedLayerExecutor(layer, RAELLA_CONFIG, weight_cache=None)
        assert np.array_equal(reference.matmul(patches), vectorized.matmul(patches))
        assert_stats_equal(reference.stats, vectorized.stats)

    @pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
    def test_int8_codes_down_to_minus_128_identical(
        self, name, signed_layer_and_patches
    ):
        # int8 codes reach the executor straight from a signed quantization;
        # -128's magnitude does not fit int8, and the split must not wrap.
        layer, patches = signed_layer_and_patches
        codes = patches.astype(np.int8)
        codes[0, :3] = -128
        codes[1, :] = 127
        config = PARITY_CONFIGS[name]
        reference = PimLayerExecutor(layer, config)
        vectorized = VectorizedLayerExecutor(layer, config, weight_cache=None)
        wide_reference = PimLayerExecutor(layer, config)
        outputs = vectorized.matmul(codes).tobytes()
        assert outputs == reference.matmul(codes).tobytes()
        assert outputs == wide_reference.matmul(codes.astype(np.int64)).tobytes()
        assert_stats_equal(reference.stats, vectorized.stats)
        assert_stats_equal(wide_reference.stats, vectorized.stats)

    @pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
    @pytest.mark.parametrize("level", [0.04, 0.12])
    def test_seeded_noise_identical(self, level, name, tiny_linear_layer, tiny_patches):
        config = PARITY_CONFIGS[name].with_changes(collect_column_sums=True)
        reference = PimLayerExecutor(
            tiny_linear_layer, config, noise=GaussianColumnNoise(level=level, seed=11)
        )
        vectorized = VectorizedLayerExecutor(
            tiny_linear_layer,
            config,
            noise=GaussianColumnNoise(level=level, seed=11),
            weight_cache=None,
        )
        assert np.array_equal(
            reference.matmul(tiny_patches), vectorized.matmul(tiny_patches)
        )
        assert_stats_equal(reference.stats, vectorized.stats)

    def test_every_weight_slicing_identical(self, tiny_linear_layer, tiny_patches):
        for widths in [(4, 4), (4, 2, 2), (2, 2, 2, 2), (1,) * 8]:
            config = PimLayerConfig(weight_slicing=Slicing(widths))
            reference = PimLayerExecutor(tiny_linear_layer, config)
            vectorized = VectorizedLayerExecutor(
                tiny_linear_layer, config, weight_cache=None
            )
            assert np.array_equal(
                reference.matmul(tiny_patches), vectorized.matmul(tiny_patches)
            ), widths

    def test_repeated_calls_accumulate_identically(
        self, tiny_linear_layer, tiny_patches
    ):
        reference = PimLayerExecutor(tiny_linear_layer, RAELLA_CONFIG)
        vectorized = VectorizedLayerExecutor(
            tiny_linear_layer, RAELLA_CONFIG, weight_cache=None
        )
        for _ in range(3):
            reference.matmul(tiny_patches)
            vectorized.matmul(tiny_patches)
        assert_stats_equal(reference.stats, vectorized.stats)


class TestEncodedWeightCache:
    def test_second_executor_hits_cache(self, tiny_linear_layer):
        cache = EncodedWeightCache()
        first = VectorizedLayerExecutor(
            tiny_linear_layer, PimLayerConfig(), weight_cache=cache
        )
        second = VectorizedLayerExecutor(
            tiny_linear_layer, PimLayerConfig(), weight_cache=cache
        )
        assert cache.misses == 1 and cache.hits == 1
        # The encoded chunks are shared objects, not re-encoded copies.
        assert first._chunks[0] is second._chunks[0]

    def test_different_slicing_is_a_different_entry(self, tiny_linear_layer):
        cache = EncodedWeightCache()
        VectorizedLayerExecutor(tiny_linear_layer, PimLayerConfig(), weight_cache=cache)
        VectorizedLayerExecutor(
            tiny_linear_layer,
            PimLayerConfig(weight_slicing=Slicing((2, 2, 2, 2))),
            weight_cache=cache,
        )
        assert cache.misses == 2 and len(cache) == 2

    def test_identical_weights_share_entries_across_layers(self, rng):
        weights = synthetic_linear_weights(4, 12, rng)
        inputs = np.abs(rng.normal(0, 1, size=(8, 12)))
        layers = []
        for name in ("twin_a", "twin_b"):
            layer = Linear(name, weights.copy(), fuse_relu=True)
            layer.calibrate(inputs, layer.forward_float(inputs))
            layers.append(layer)
        cache = EncodedWeightCache()
        for layer in layers:
            VectorizedLayerExecutor(layer, PimLayerConfig(), weight_cache=cache)
        # Same weight codes -> same fingerprint -> one encoding.
        assert cache.misses == 1 and cache.hits == 1

    def test_lru_eviction(self, tiny_linear_layer):
        cache = EncodedWeightCache(max_entries=1)
        VectorizedLayerExecutor(tiny_linear_layer, PimLayerConfig(), weight_cache=cache)
        VectorizedLayerExecutor(
            tiny_linear_layer,
            PimLayerConfig(weight_slicing=Slicing((2, 2, 2, 2))),
            weight_cache=cache,
        )
        assert len(cache) == 1
        VectorizedLayerExecutor(tiny_linear_layer, PimLayerConfig(), weight_cache=cache)
        assert cache.misses == 3  # the first entry was evicted

    def test_cached_executor_results_identical(self, tiny_linear_layer, tiny_patches):
        cache = EncodedWeightCache()
        uncached = VectorizedLayerExecutor(
            tiny_linear_layer, PimLayerConfig(), weight_cache=None
        )
        VectorizedLayerExecutor(tiny_linear_layer, PimLayerConfig(), weight_cache=cache)
        cached = VectorizedLayerExecutor(
            tiny_linear_layer, PimLayerConfig(), weight_cache=cache
        )
        assert np.array_equal(
            uncached.matmul(tiny_patches), cached.matmul(tiny_patches)
        )


class TestExecutorPool:
    def test_reuses_executor(self, tiny_linear_layer):
        pool = ExecutorPool(weight_cache=None)
        a = pool.get(tiny_linear_layer, PimLayerConfig())
        b = pool.get(tiny_linear_layer, PimLayerConfig())
        assert a is b and len(pool) == 1

    def test_distinct_configs_get_distinct_executors(self, tiny_linear_layer):
        pool = ExecutorPool(weight_cache=None)
        a = pool.get(tiny_linear_layer, PimLayerConfig())
        b = pool.get(tiny_linear_layer, PimLayerConfig(adc_bits=9))
        assert a is not b and len(pool) == 2


def oracle_engine(model, configs, noise=None) -> NetworkEngine:
    """An engine on per-phase oracle executors, one per layer config."""
    return NetworkEngine(
        model,
        {
            layer.name: PimLayerExecutor(layer, configs[layer.name], noise=noise)
            for layer in model.matmul_layers()
        },
    )


class TestNetworkEngine:
    @pytest.fixture
    def fast_config(self):
        return RaellaCompilerConfig(
            adaptive=AdaptiveSlicingConfig(max_test_patches=64), n_test_inputs=2
        )

    def test_compiled_engine_matches_reference_program(
        self, tiny_mlp_model, fast_config, rng
    ):
        """Compiled executors equal per-phase oracles built from each
        compiled layer's config: outputs and every counter."""
        inputs = np.abs(rng.normal(0, 1, size=(6, 16)))
        engine = NetworkEngine.compile(tiny_mlp_model, config=fast_config, seed=0)
        configs = {name: ex.config for name, ex in engine.executors.items()}
        oracle = oracle_engine(tiny_mlp_model, configs)
        assert all(
            type(ex) is VectorizedLayerExecutor for ex in engine.executors.values()
        )
        assert engine.run(inputs).tobytes() == oracle.run(inputs).tobytes()
        for name, stats in engine.layer_statistics().items():
            assert_stats_equal(stats, oracle.executors[name].stats)

    def test_conv_model_micro_batching_is_exact(self, tiny_conv_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(5, 3, 8, 8)))
        full = NetworkEngine.build(tiny_conv_model, PimLayerConfig())
        split = NetworkEngine.build(tiny_conv_model, PimLayerConfig(), micro_batch=2)
        assert np.array_equal(full.run(inputs), split.run(inputs))

    def test_micro_batching_preserves_statistics(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(6, 16)))
        full = NetworkEngine.build(tiny_mlp_model, PimLayerConfig())
        split = NetworkEngine.build(tiny_mlp_model, PimLayerConfig(), micro_batch=2)
        full.run(inputs)
        split.run(inputs)
        assert_stats_equal(full.network_statistics(), split.network_statistics())

    def test_seeded_noise_parity_with_reference_executors(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(4, 16)))
        vectorized = NetworkEngine.build(
            tiny_mlp_model,
            PimLayerConfig(),
            noise=GaussianColumnNoise(level=0.08, seed=5),
            pool=ExecutorPool(weight_cache=None),
        )
        reference = oracle_engine(
            tiny_mlp_model,
            dict.fromkeys(vectorized.executors, PimLayerConfig()),
            noise=GaussianColumnNoise(level=0.08, seed=5),
        )
        assert np.array_equal(vectorized.run(inputs), reference.run(inputs))
        assert_stats_equal(
            vectorized.network_statistics(), reference.network_statistics()
        )

    def test_network_statistics_sum_crossbars_across_layers(self, tiny_mlp_model, rng):
        engine = NetworkEngine.build(tiny_mlp_model, PimLayerConfig())
        engine.run(np.abs(rng.normal(0, 1, size=(2, 16))))
        per_layer = engine.layer_statistics()
        total = engine.network_statistics()
        assert total.n_crossbars == sum(s.n_crossbars for s in per_layer.values())
        assert total.n_columns == sum(s.n_columns for s in per_layer.values())

    def test_reset_statistics(self, tiny_mlp_model, rng):
        engine = NetworkEngine.build(tiny_mlp_model, PimLayerConfig())
        engine.run(np.abs(rng.normal(0, 1, size=(2, 16))))
        engine.reset_statistics()
        assert engine.network_statistics().macs == 0

    def test_predict_shape(self, tiny_mlp_model, rng):
        engine = NetworkEngine.build(tiny_mlp_model, PimLayerConfig(), micro_batch=3)
        predictions = engine.predict(np.abs(rng.normal(0, 1, size=(5, 16))))
        assert predictions.shape == (5,)

    def test_explicit_none_overrides_engine_default(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(6, 16)))
        engine = NetworkEngine.build(
            tiny_mlp_model, PimLayerConfig(), micro_batch=2, pool=ExecutorPool()
        )
        executor = engine.executors["fc1"]
        batch_sizes = []
        original = executor.matmul

        def spy(codes):
            batch_sizes.append(codes.shape[0])
            return original(codes)

        executor.matmul = spy
        engine.run(inputs, micro_batch=None)  # explicit None -> one full pass
        assert batch_sizes == [6]
        engine.run(inputs)  # engine default of 2 applies
        assert batch_sizes[1:] == [2, 2, 2]

    def test_missing_executor_is_rejected(self, tiny_mlp_model):
        with pytest.raises(ValueError):
            NetworkEngine(tiny_mlp_model, executors={})

    def test_unknown_layer_dispatch_raises(self, tiny_mlp_model, rng):
        engine = NetworkEngine.build(tiny_mlp_model, PimLayerConfig())
        stranger = Linear("stranger", synthetic_linear_weights(2, 4, rng))
        with pytest.raises(KeyError):
            engine.pim_matmul(np.zeros((1, 4), dtype=int), stranger)


class TestModelMicroBatching:
    def test_forward_quantized_micro_batch_is_exact(self, tiny_mlp_model, rng):
        inputs = np.abs(rng.normal(0, 1, size=(7, 16)))
        full = tiny_mlp_model.forward_quantized(inputs)
        split = tiny_mlp_model.forward_quantized(inputs, micro_batch=3)
        assert np.array_equal(full, split)

    def test_invalid_micro_batch_rejected(self, tiny_mlp_model, rng):
        with pytest.raises(ValueError):
            tiny_mlp_model.forward_quantized(
                np.abs(rng.normal(0, 1, size=(2, 16))), micro_batch=0
            )
