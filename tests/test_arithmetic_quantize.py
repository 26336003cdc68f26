"""Tests for 8-bit quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arithmetic.quantize import (
    QuantizationParams,
    dequantize,
    quantize_per_channel,
    quantize_tensor,
)


def integer_dot_product_terms(
    input_codes: np.ndarray,
    weight_codes: np.ndarray,
    input_zero_point: int,
    weight_zero_points: np.ndarray,
) -> dict[str, np.ndarray]:
    """Decompose an affine-quantized dot product into integer terms.

    For ``real = s_i (i - z_i)`` and ``real_w = s_w (w - z_w)`` the dot product
    of a filter with an input vector expands into four integer terms.  The
    crossbar computes ``sum_r i_r * w_r``; the remaining terms are handled
    digitally (they only involve sums of inputs and constants).
    """
    input_codes = np.asarray(input_codes, dtype=np.int64)
    weight_codes = np.asarray(weight_codes, dtype=np.int64)
    weight_zero_points = np.asarray(weight_zero_points, dtype=np.int64)
    raw = input_codes @ weight_codes
    input_sum = input_codes.sum(axis=-1, keepdims=True)
    weight_sum = weight_codes.sum(axis=0)
    n = weight_codes.shape[0]
    return {
        "raw": raw,
        "input_sum_term": input_sum * weight_zero_points,
        "weight_sum_term": input_zero_point * weight_sum,
        "constant_term": np.asarray(input_zero_point * weight_zero_points * n),
    }


class TestQuantizationParams:
    def test_unsigned_code_range(self):
        params = QuantizationParams(scale=0.1, zero_point=10)
        assert params.code_range == (0, 255)

    def test_signed_code_range(self):
        params = QuantizationParams(scale=0.1, zero_point=0, signed=True)
        assert params.code_range == (-128, 127)

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            QuantizationParams(scale=0.0, zero_point=0)

    def test_rejects_zero_point_out_of_range(self):
        with pytest.raises(ValueError):
            QuantizationParams(scale=1.0, zero_point=300)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            QuantizationParams(scale=np.ones(3), zero_point=np.zeros(2, dtype=int))

    def test_per_channel_flag(self):
        assert QuantizationParams(
            scale=np.ones(4), zero_point=np.zeros(4, int)
        ).per_channel
        assert not QuantizationParams(scale=1.0, zero_point=0).per_channel


class TestQuantizeTensor:
    def test_roundtrip_error_bounded_by_half_step(self):
        params = QuantizationParams(scale=0.05, zero_point=0)
        values = np.linspace(0, 10, 100)
        codes = quantize_tensor(values, params)
        recovered = dequantize(codes, params)
        assert np.max(np.abs(values - recovered)) <= 0.5 * 0.05 + 1e-12

    def test_clipping_at_code_range(self):
        params = QuantizationParams(scale=0.1, zero_point=0)
        assert quantize_tensor(np.array([1e6]), params)[0] == 255
        assert quantize_tensor(np.array([-1e6]), params)[0] == 0

    def test_zero_maps_to_zero_point(self):
        params = QuantizationParams(scale=0.1, zero_point=37)
        assert quantize_tensor(np.array([0.0]), params)[0] == 37

    def test_per_channel_broadcasting(self):
        params = QuantizationParams(
            scale=np.array([0.1, 1.0]), zero_point=np.array([0, 0])
        )
        values = np.array([[1.0, 1.0], [2.0, 2.0]])
        codes = quantize_tensor(values, params, channel_axis=1)
        assert codes[0, 0] == 10 and codes[0, 1] == 1

    def test_channel_count_mismatch_raises(self):
        params = QuantizationParams(scale=np.ones(3), zero_point=np.zeros(3, int))
        with pytest.raises(ValueError):
            quantize_tensor(np.zeros((2, 2)), params, channel_axis=1)


class TestQuantizePerChannel:
    def test_codes_are_unsigned_8bit(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(0, 0.1, size=(8, 32))
        codes, params = quantize_per_channel(weights)
        assert codes.min() >= 0 and codes.max() <= 255
        assert params.scale.shape == (8,)

    def test_reconstruction_error_small(self):
        rng = np.random.default_rng(1)
        weights = rng.normal(0, 0.1, size=(4, 64))
        codes, params = quantize_per_channel(weights)
        recovered = dequantize(codes, params, channel_axis=0)
        # Error is bounded by half a quantization step per channel.
        step = params.scale[:, np.newaxis]
        assert np.all(np.abs(weights - recovered) <= 0.5 * step + 1e-9)

    def test_zero_weight_maps_to_zero_point(self):
        weights = np.array([[-1.0, 0.0, 1.0]])
        codes, params = quantize_per_channel(weights)
        zero_code = quantize_tensor(np.zeros((1, 1)), params, channel_axis=0)
        assert zero_code[0, 0] == params.zero_point[0]

    def test_constant_channel_does_not_crash(self):
        codes, params = quantize_per_channel(np.zeros((2, 5)))
        assert codes.shape == (2, 5)

    def test_skewed_channel_uses_full_range(self):
        weights = np.array([np.linspace(-0.3, 0.1, 100)])
        codes, _ = quantize_per_channel(weights)
        assert codes.min() == 0
        assert codes.max() == 255


class TestIntegerDotProductTerms:
    def test_terms_recombine_to_affine_product(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 256, size=(5, 16))
        w = rng.integers(0, 256, size=(16, 3))
        zx, zw = 7, rng.integers(0, 256, size=3)
        terms = integer_dot_product_terms(x, w, zx, zw)
        expected = (x - zx) @ (w - zw[np.newaxis, :])
        combined = (
            terms["raw"]
            - terms["input_sum_term"]
            - terms["weight_sum_term"]
            + terms["constant_term"]
        )
        assert np.array_equal(combined, expected)


class TestQuantizationProperties:
    @given(
        st.floats(min_value=0.01, max_value=10.0),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=50, deadline=None)
    def test_dequantize_quantize_identity_on_codes(self, scale, zero_point):
        params = QuantizationParams(scale=scale, zero_point=zero_point)
        codes = np.arange(0, 256, 17)
        roundtrip = quantize_tensor(dequantize(codes, params), params)
        assert np.array_equal(roundtrip, codes)
