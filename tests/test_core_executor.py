"""Tests for the PIM layer executor."""

import numpy as np
import pytest

from repro.analog.noise import GaussianColumnNoise
from repro.arithmetic.slicing import ISAAC_WEIGHT_SLICING, Slicing
from repro.core.center_offset import WeightEncoding
from repro.core.dynamic_input import SpeculationMode
from repro.core.executor import PimLayerConfig, PimLayerExecutor
from repro.nn.layers import Linear
from repro.nn.synthetic import synthetic_linear_weights

WIDE_ADC = 16  # wide enough that nothing ever saturates


def exact(layer, patches):
    return patches @ layer.weight_codes


class TestConfigValidation:
    def test_default_config_is_raella(self):
        config = PimLayerConfig()
        assert config.crossbar_rows == 512
        assert config.adc_bits == 7
        assert config.adc_min == -64 and config.adc_max == 63

    def test_unsigned_adc_bounds(self):
        config = PimLayerConfig(
            adc_signed=False,
            weight_encoding=WeightEncoding.UNSIGNED,
            weight_slicing=ISAAC_WEIGHT_SLICING,
            speculation=SpeculationMode.BIT_SERIAL,
            adc_bits=8,
        )
        assert config.adc_min == 0 and config.adc_max == 255

    def test_rejects_slices_wider_than_device(self):
        with pytest.raises(ValueError):
            PimLayerConfig(weight_slicing=Slicing((8,)), device_bits=4)

    def test_rejects_offsets_on_unsigned_crossbar(self):
        with pytest.raises(ValueError):
            PimLayerConfig(adc_signed=False)

    def test_rejects_incomplete_weight_slicing(self):
        with pytest.raises(ValueError):
            PimLayerConfig(weight_slicing=Slicing((4, 2)))

    def test_rejects_mismatched_serial_slicing(self):
        with pytest.raises(ValueError):
            PimLayerConfig(serial_input_slicing=Slicing((4, 2)))

    def test_with_changes_creates_copy(self):
        base = PimLayerConfig()
        changed = base.with_changes(adc_bits=9)
        assert changed.adc_bits == 9 and base.adc_bits == 7


class TestExactness:
    """With a wide ADC and no noise, every configuration must be exact."""

    def test_bit_serial_center_offset_is_exact(self, tiny_linear_layer, tiny_patches):
        config = PimLayerConfig(
            adc_bits=WIDE_ADC, speculation=SpeculationMode.BIT_SERIAL
        )
        executor = PimLayerExecutor(tiny_linear_layer, config)
        assert np.allclose(
            executor.matmul(tiny_patches), exact(tiny_linear_layer, tiny_patches)
        )

    def test_speculative_center_offset_is_exact(self, tiny_linear_layer, tiny_patches):
        config = PimLayerConfig(adc_bits=WIDE_ADC)
        executor = PimLayerExecutor(tiny_linear_layer, config)
        assert np.allclose(
            executor.matmul(tiny_patches), exact(tiny_linear_layer, tiny_patches)
        )

    def test_zero_offset_is_exact(self, tiny_linear_layer, tiny_patches):
        config = PimLayerConfig(
            adc_bits=WIDE_ADC, weight_encoding=WeightEncoding.ZERO_OFFSET
        )
        executor = PimLayerExecutor(tiny_linear_layer, config)
        assert np.allclose(
            executor.matmul(tiny_patches), exact(tiny_linear_layer, tiny_patches)
        )

    def test_unsigned_isaac_style_is_exact(self, tiny_linear_layer, tiny_patches):
        config = PimLayerConfig(
            crossbar_rows=16,
            adc_bits=WIDE_ADC,
            adc_signed=False,
            weight_encoding=WeightEncoding.UNSIGNED,
            weight_slicing=ISAAC_WEIGHT_SLICING,
            speculation=SpeculationMode.BIT_SERIAL,
        )
        executor = PimLayerExecutor(tiny_linear_layer, config)
        assert np.allclose(
            executor.matmul(tiny_patches), exact(tiny_linear_layer, tiny_patches)
        )

    def test_multiple_row_chunks_are_exact(self, tiny_linear_layer, tiny_patches):
        config = PimLayerConfig(crossbar_rows=7, adc_bits=WIDE_ADC)
        executor = PimLayerExecutor(tiny_linear_layer, config)
        assert executor.n_row_chunks == 4
        assert np.allclose(
            executor.matmul(tiny_patches), exact(tiny_linear_layer, tiny_patches)
        )

    def test_every_weight_slicing_is_exact(self, tiny_linear_layer, tiny_patches):
        for widths in [(4, 4), (4, 2, 2), (2, 2, 2, 2), (1,) * 8, (3, 3, 2)]:
            config = PimLayerConfig(adc_bits=WIDE_ADC, weight_slicing=Slicing(widths))
            executor = PimLayerExecutor(tiny_linear_layer, config)
            assert np.allclose(
                executor.matmul(tiny_patches), exact(tiny_linear_layer, tiny_patches)
            ), widths

    def test_signed_inputs_are_exact(self, rng):
        layer = Linear(
            "signed_fc", synthetic_linear_weights(5, 16, rng), signed_input=True
        )
        inputs = rng.normal(0, 1, size=(32, 16))
        layer.calibrate(inputs, layer.forward_float(inputs))
        patches = layer.input_quant.quantize(inputs)
        assert patches.min() < 0
        executor = PimLayerExecutor(layer, PimLayerConfig(adc_bits=WIDE_ADC))
        assert np.allclose(executor.matmul(patches), exact(layer, patches))


class TestSaturationBehaviour:
    def test_narrow_adc_introduces_bounded_error(self, tiny_linear_layer, tiny_patches):
        executor = PimLayerExecutor(tiny_linear_layer, PimLayerConfig(adc_bits=7))
        approx = executor.matmul(tiny_patches)
        reference = exact(tiny_linear_layer, tiny_patches)
        relative = np.abs(approx - reference).mean() / max(np.abs(reference).mean(), 1)
        assert relative < 0.05

    def test_very_narrow_adc_saturates_often(self, tiny_linear_layer, tiny_patches):
        executor = PimLayerExecutor(
            tiny_linear_layer,
            PimLayerConfig(adc_bits=3, speculation=SpeculationMode.BIT_SERIAL),
        )
        executor.matmul(tiny_patches)
        assert executor.stats.fidelity_loss_rate > 0.01

    def test_center_offset_saturates_less_than_zero_offset(self, rng):
        # A long, skewed filter: the encoding difference shows up as ADC
        # saturation pressure (speculation failures).
        weights = synthetic_linear_weights(4, 512, rng, std=0.05, mean_spread=0.04)
        layer = Linear("skewed", weights, fuse_relu=True)
        inputs = np.abs(rng.normal(0, 1.0, size=(16, 512)))
        layer.calibrate(inputs, layer.forward_float(inputs))
        patches = layer.input_quant.quantize(inputs)

        def failure_rate(encoding):
            executor = PimLayerExecutor(layer, PimLayerConfig(weight_encoding=encoding))
            executor.matmul(patches)
            return executor.stats.speculation_failure_rate

        assert failure_rate(WeightEncoding.CENTER_OFFSET) < failure_rate(
            WeightEncoding.ZERO_OFFSET
        )


class TestSaturationDetection:
    """Saturation is a *clipping* event: at-rail sums are converted exactly."""

    def test_at_rail_sums_are_not_saturated(self, tiny_linear_layer):
        executor = PimLayerExecutor(tiny_linear_layer, PimLayerConfig())
        config = executor.config
        sums = np.array(
            [float(config.adc_max), float(config.adc_min), 0.0], dtype=np.float64
        )
        converted, saturated = executor._convert(sums)
        assert np.array_equal(converted, sums)
        assert not saturated.any()

    def test_beyond_rail_sums_are_saturated(self, tiny_linear_layer):
        executor = PimLayerExecutor(tiny_linear_layer, PimLayerConfig())
        config = executor.config
        sums = np.array([config.adc_max + 1.0, config.adc_min - 1.0], dtype=np.float64)
        converted, saturated = executor._convert(sums)
        assert np.array_equal(converted, [config.adc_max, config.adc_min])
        assert saturated.all()

    def test_unsigned_adc_rails(self, tiny_linear_layer):
        config = PimLayerConfig(
            adc_signed=False,
            weight_encoding=WeightEncoding.UNSIGNED,
            weight_slicing=ISAAC_WEIGHT_SLICING,
            speculation=SpeculationMode.BIT_SERIAL,
            adc_bits=8,
        )
        executor = PimLayerExecutor(tiny_linear_layer, config)
        # At-rail sums convert exactly; overflow and (noise-driven) underflow
        # both clip and both count as saturation.
        sums = np.array([255.0, 256.0, 0.0, -1.0], dtype=np.float64)
        converted, saturated = executor._convert(sums)
        assert converted.tolist() == [255.0, 255.0, 0.0, 0.0]
        assert saturated.tolist() == [False, True, False, True]


class TestStatistics:
    def test_converts_per_mac_bit_serial(self, tiny_linear_layer, tiny_patches):
        config = PimLayerConfig(
            adc_bits=WIDE_ADC,
            speculation=SpeculationMode.BIT_SERIAL,
            weight_slicing=Slicing((4, 2, 2)),
        )
        executor = PimLayerExecutor(tiny_linear_layer, config)
        executor.matmul(tiny_patches)
        # 8 input slices x 3 weight slices per column / 24 rows.
        assert executor.stats.converts_per_mac == pytest.approx(24 / 24)

    def test_speculation_reduces_converts(self, tiny_linear_layer, tiny_patches):
        serial = PimLayerExecutor(
            tiny_linear_layer,
            PimLayerConfig(speculation=SpeculationMode.BIT_SERIAL),
        )
        spec = PimLayerExecutor(tiny_linear_layer, PimLayerConfig())
        serial.matmul(tiny_patches)
        spec.matmul(tiny_patches)
        assert spec.stats.total_adc_converts < serial.stats.total_adc_converts

    def test_macs_and_psums_counted(self, tiny_linear_layer, tiny_patches):
        executor = PimLayerExecutor(tiny_linear_layer, PimLayerConfig())
        executor.matmul(tiny_patches)
        m, k = tiny_patches.shape
        assert executor.stats.macs == m * k * tiny_linear_layer.out_features
        assert executor.stats.psums_produced == m * tiny_linear_layer.out_features

    def test_cycles_per_input(self, tiny_linear_layer, tiny_patches):
        executor = PimLayerExecutor(tiny_linear_layer, PimLayerConfig())
        executor.matmul(tiny_patches)
        assert executor.stats.cycles == tiny_patches.shape[0] * 11

    def test_reset_stats(self, tiny_linear_layer, tiny_patches):
        executor = PimLayerExecutor(tiny_linear_layer, PimLayerConfig())
        executor.matmul(tiny_patches)
        executor.reset_stats()
        assert executor.stats.total_adc_converts == 0
        assert executor.stats.n_crossbars > 0  # structural info survives

    def test_column_sum_collection(self, tiny_linear_layer, tiny_patches):
        executor = PimLayerExecutor(
            tiny_linear_layer, PimLayerConfig(collect_column_sums=True)
        )
        executor.matmul(tiny_patches)
        spec_sums = executor.stats.column_sum_array("speculative")
        assert spec_sums.size > 0

    def test_column_sum_sample_cap(self, tiny_linear_layer, tiny_patches):
        executor = PimLayerExecutor(
            tiny_linear_layer,
            PimLayerConfig(collect_column_sums=True, max_column_sum_samples=100),
        )
        executor.matmul(tiny_patches)
        assert executor.stats.column_sum_array("speculative").size <= 100

    def test_merge_accumulates(self, tiny_linear_layer, tiny_patches):
        a = PimLayerExecutor(tiny_linear_layer, PimLayerConfig())
        b = PimLayerExecutor(tiny_linear_layer, PimLayerConfig())
        a.matmul(tiny_patches)
        b.matmul(tiny_patches)
        merged = a.stats.merge_runs(b.stats)
        assert merged.macs == 2 * b.stats.macs

    def test_merge_runs_keeps_structural_maximum(self, tiny_linear_layer, tiny_patches):
        a = PimLayerExecutor(tiny_linear_layer, PimLayerConfig())
        b = PimLayerExecutor(tiny_linear_layer, PimLayerConfig())
        a.matmul(tiny_patches)
        b.matmul(tiny_patches)
        n_crossbars, n_columns = a.stats.n_crossbars, a.stats.n_columns
        merged = a.stats.merge_runs(b.stats)
        # Re-running the same layer does not grow its crossbar footprint.
        assert merged.n_crossbars == n_crossbars
        assert merged.n_columns == n_columns

    def test_merge_layers_sums_structural_totals(self, tiny_linear_layer, tiny_patches):
        a = PimLayerExecutor(tiny_linear_layer, PimLayerConfig())
        b = PimLayerExecutor(tiny_linear_layer, PimLayerConfig())
        a.matmul(tiny_patches)
        b.matmul(tiny_patches)
        n_crossbars = a.stats.n_crossbars + b.stats.n_crossbars
        n_columns = a.stats.n_columns + b.stats.n_columns
        merged = a.stats.merge_layers(b.stats)
        assert merged.n_crossbars == n_crossbars
        assert merged.n_columns == n_columns
        assert merged.macs == 2 * b.stats.macs

    def test_column_sum_sampling_spans_whole_output(self, tiny_linear_layer):
        executor = PimLayerExecutor(
            tiny_linear_layer,
            PimLayerConfig(collect_column_sums=True, max_column_sum_samples=10),
        )
        executor._record_column_sums("serial", np.arange(1000.0))
        sample = executor.stats.column_sum_array("serial")
        # Deterministic stride across the whole phase output, not a prefix.
        assert np.array_equal(sample, np.arange(0.0, 1000.0, 100.0))

    def test_column_sum_sampling_fills_budget_when_not_divisible(
        self, tiny_linear_layer
    ):
        executor = PimLayerExecutor(
            tiny_linear_layer,
            PimLayerConfig(collect_column_sums=True, max_column_sum_samples=600),
        )
        executor._record_column_sums("serial", np.arange(1000.0))
        sample = executor.stats.column_sum_array("serial")
        # Exactly the configured budget, spread over the whole output.
        assert sample.size == 600
        assert sample[0] == 0.0 and sample[-1] >= 990.0

    def test_statistics_failure_rates_bounded(self, tiny_linear_layer, tiny_patches):
        executor = PimLayerExecutor(tiny_linear_layer, PimLayerConfig())
        executor.matmul(tiny_patches)
        assert 0.0 <= executor.stats.speculation_failure_rate <= 1.0
        assert 0.0 <= executor.stats.fidelity_loss_rate <= 1.0


class TestNoiseAndMisc:
    def test_noise_perturbs_results(self, tiny_linear_layer, tiny_patches):
        noisy = PimLayerExecutor(
            tiny_linear_layer,
            PimLayerConfig(adc_bits=WIDE_ADC),
            noise=GaussianColumnNoise(level=0.1, seed=0),
        )
        clean = exact(tiny_linear_layer, tiny_patches)
        assert not np.allclose(noisy.matmul(tiny_patches), clean)

    def test_noise_error_grows_with_level(self, tiny_linear_layer, tiny_patches):
        def mean_error(level):
            executor = PimLayerExecutor(
                tiny_linear_layer,
                PimLayerConfig(adc_bits=WIDE_ADC),
                noise=GaussianColumnNoise(level=level, seed=1),
            )
            return np.abs(
                executor.matmul(tiny_patches) - exact(tiny_linear_layer, tiny_patches)
            ).mean()

        assert mean_error(0.12) > mean_error(0.02)

    def test_hook_interface_checks_layer(self, tiny_linear_layer, tiny_patches, rng):
        executor = PimLayerExecutor(tiny_linear_layer, PimLayerConfig())
        other = Linear("other", synthetic_linear_weights(3, 24, rng))
        with pytest.raises(ValueError):
            executor(tiny_patches, other)

    def test_rejects_wrong_input_width(self, tiny_linear_layer):
        executor = PimLayerExecutor(tiny_linear_layer, PimLayerConfig())
        with pytest.raises(ValueError):
            executor.matmul(np.zeros((2, 10), dtype=int))

    def test_encoded_chunks_reconstruct_weights(self, tiny_linear_layer):
        executor = PimLayerExecutor(tiny_linear_layer, PimLayerConfig(crossbar_rows=10))
        reconstructed = np.concatenate(
            [chunk.reconstruct_codes() for chunk in executor.encoded_chunks], axis=0
        )
        assert np.array_equal(reconstructed, tiny_linear_layer.weight_codes)
