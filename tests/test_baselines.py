"""Tests for the baseline accelerator models."""

import numpy as np
import pytest

from repro.baselines.forms import FormsBaseline
from repro.baselines.isaac import IsaacBaseline
from repro.baselines.timely import TimelyBaseline
from repro.core.center_offset import WeightEncoding
from repro.core.dynamic_input import SpeculationMode
from repro.core.executor import PimLayerExecutor
from repro.nn.zoo import model_shapes


class TestIsaacBaseline:
    def test_pim_config_is_unsigned_bit_serial(self):
        config = IsaacBaseline().pim_config()
        assert config.weight_encoding == WeightEncoding.UNSIGNED
        assert config.speculation == SpeculationMode.BIT_SERIAL
        assert not config.adc_signed
        assert config.crossbar_rows == 128

    def test_lossless_adc_widens_clip_range(self):
        baseline = IsaacBaseline()
        lossless = baseline.pim_config(lossless_adc=True)
        hard = baseline.pim_config(lossless_adc=False)
        assert lossless.adc_bits > hard.adc_bits
        assert hard.adc_bits == 8

    def test_functional_config_is_exact_without_noise(
        self, tiny_linear_layer, tiny_patches
    ):
        executor = PimLayerExecutor(tiny_linear_layer, IsaacBaseline().pim_config())
        assert np.allclose(
            executor.matmul(tiny_patches), tiny_patches @ tiny_linear_layer.weight_codes
        )

    def test_energy_and_throughput_positive(self):
        baseline = IsaacBaseline()
        shapes = model_shapes("shufflenetv2")
        assert baseline.energy(shapes).total_uj > 0
        assert baseline.throughput(shapes).throughput_samples_per_s > 0


class TestFormsBaseline:
    def test_pruning_metadata(self):
        baseline = FormsBaseline()
        assert baseline.arch.mac_reduction_factor == pytest.approx(2.0)
        assert baseline.requires_retraining

    def test_pruning_reduces_energy_vs_isaac(self):
        shapes = model_shapes("resnet18")
        assert (
            FormsBaseline().energy(shapes).total_uj
            < IsaacBaseline().energy(shapes).total_uj
        )


class TestTimelyBaseline:
    def test_metadata(self):
        assert TimelyBaseline().requires_retraining

    def test_energy_positive_and_cheaper_than_isaac(self):
        shapes = model_shapes("resnet18")
        assert 0 < TimelyBaseline().energy(shapes).total_uj < IsaacBaseline().energy(
            shapes
        ).total_uj
