"""Tests for the functional (simulation-driven) experiment harnesses.

These use deliberately small settings (few inputs, few samples) so that the
full experiment code paths run quickly; the benchmark suite runs them at the
paper's scale.
"""

import numpy as np
import pytest

from repro.experiments.fig03_column_sums import format_fig03, run_fig03
from repro.experiments.fig05_encoding import format_fig05, run_fig05
from repro.experiments.fig07_slicings import format_fig07, run_fig07
from repro.experiments.fig08_densities import format_fig08, run_fig08
from repro.nn.zoo import mobilenetv2_like


class TestFig03:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig03(
            model=mobilenetv2_like(seed=0),
            layer_index=2,
            n_inputs=1,
            max_samples=50_000,
        )

    def test_four_setups(self, result):
        assert len(result.setups) == 4

    def test_each_strategy_tightens_distribution(self, result):
        fractions = [s.within_adc_fraction(s.primary_kind) for s in result.setups]
        # Baseline (unsigned 4b/4b) is worst; later setups only improve.
        assert fractions[0] < fractions[1] <= fractions[2] + 1e-9
        assert fractions[3] >= fractions[1]

    def test_final_fidelity_loss_is_small(self, result):
        assert result.setups[-1].fidelity_loss_rate < 0.05

    def test_recovery_distribution_tighter_than_speculative(self, result):
        final = result.setups[-1]
        assert final.within_adc_fraction("recovery") >= final.within_adc_fraction(
            "speculative"
        ) - 1e-9

    def test_resolution_bits_positive(self, result):
        setup = result.setups[0]
        magnitudes = np.abs(setup.column_sums[setup.primary_kind]).astype(np.int64)
        # Signed bit-width needed for each collected column sum.
        bits = np.ceil(np.log2(np.maximum(magnitudes, 1) + 1)).astype(int) + 1
        assert bits.min() >= 1

    def test_format(self, result):
        assert "7b fraction" in format_fig03(result)


class TestFig05:
    @pytest.fixture(scope="class")
    def comparisons(self):
        return run_fig05(n_weights=256, n_inputs=32, seed=0)

    def test_two_encodings(self, comparisons):
        assert {c.encoding for c in comparisons} == {"zero_offset", "center_offset"}

    def test_center_offset_balances_slices(self, comparisons):
        by_name = {c.encoding: c for c in comparisons}
        assert abs(by_name["center_offset"].mean_slice_value) < abs(
            by_name["zero_offset"].mean_slice_value
        )

    def test_center_offset_reduces_saturation(self, comparisons):
        by_name = {c.encoding: c for c in comparisons}
        assert by_name["center_offset"].saturation_rate < by_name[
            "zero_offset"
        ].saturation_rate

    def test_zero_offset_column_sums_biased_negative(self, comparisons):
        by_name = {c.encoding: c for c in comparisons}
        assert by_name["zero_offset"].mean_column_sum < by_name[
            "center_offset"
        ].mean_column_sum

    def test_format(self, comparisons):
        assert "saturation" in format_fig05(comparisons)


class TestFig07:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig07(
            model_names=("mobilenetv2",), max_test_patches=64, n_test_inputs=1
        )

    def test_every_layer_has_a_slicing(self, result):
        model = result.models[0]
        assert len(model.per_layer) > 0
        assert all(sum(widths) == 8 for widths in model.per_layer.values())

    def test_last_layer_most_conservative(self, result):
        model = result.models[0]
        last = list(model.per_layer.values())[-1]
        assert last == (1,) * 8

    def test_modal_slice_count_is_small(self, result):
        assert result.models[0].modal_slice_count <= 4

    def test_histogram_counts_layers(self, result):
        model = result.models[0]
        assert sum(model.slice_count_histogram.values()) == len(model.per_layer)

    def test_format(self, result):
        assert "slices/weight" in format_fig07(result)


class TestFig08:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig08(n_inputs=1)

    def test_density_arrays_are_probability_vectors(self, result):
        for density in (
            result.input_bit_density,
            result.weight_code_bit_density,
            result.offset_bit_density,
        ):
            assert density.shape == (8,)
            assert np.all((density >= 0) & (density <= 1))

    def test_inputs_have_sparse_high_bits(self, result):
        assert result.high_order_input_density < 0.35

    def test_offsets_sparser_than_raw_codes_in_high_bits(self, result):
        assert result.high_order_offset_density < result.high_order_weight_code_density

    def test_format(self, result):
        assert "bit" in format_fig08(result)
