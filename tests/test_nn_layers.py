"""Tests for quantized layers and the TensorQuant activation spec."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Linear,
    MaxPool2d,
    ReLU,
    TensorQuant,
)
from repro.nn.synthetic import synthetic_conv_weights, synthetic_linear_weights


class TestTensorQuant:
    def test_unsigned_roundtrip(self):
        quant = TensorQuant(scale=0.1, zero_point=0)
        values = np.linspace(0, 20, 50)
        assert np.max(np.abs(quant.dequantize(quant.quantize(values)) - values)) <= 0.05

    def test_signed_roundtrip(self):
        quant = TensorQuant(scale=0.05, zero_point=0, signed=True)
        values = np.linspace(-5, 5, 50)
        assert np.max(np.abs(quant.dequantize(quant.quantize(values)) - values)) <= 0.03

    def test_from_values_unsigned_covers_range(self):
        quant = TensorQuant.from_values(np.array([0.0, 12.7]))
        assert quant.quantize(np.array([12.7]))[0] == 255

    def test_from_values_signed_symmetric(self):
        quant = TensorQuant.from_values(np.array([-3.0, 2.0]), signed=True)
        assert quant.zero_point == 0
        assert quant.quantize(np.array([-3.0]))[0] == -127

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            TensorQuant(scale=0.0)

    def test_rejects_zero_point_outside_range(self):
        with pytest.raises(ValueError):
            TensorQuant(scale=1.0, zero_point=-3)


class TestLinearLayer:
    def _layer(self, rng, fuse_relu=True):
        layer = Linear(
            "fc",
            synthetic_linear_weights(6, 20, rng, std=0.2),
            bias=rng.normal(0, 0.05, 6),
            fuse_relu=fuse_relu,
        )
        inputs = np.abs(rng.normal(0, 1, size=(64, 20)))
        layer.calibrate(inputs, layer.forward_float(inputs))
        return layer, inputs

    def test_weight_codes_are_unsigned_8bit(self, rng):
        layer, _ = self._layer(rng)
        assert layer.weight_codes.shape == (20, 6)
        assert layer.weight_codes.min() >= 0 and layer.weight_codes.max() <= 255

    def test_quantized_forward_close_to_float(self, rng):
        layer, inputs = self._layer(rng)
        codes = layer.input_quant.quantize(inputs)
        out_codes, out_quant = layer.forward_quantized(codes, layer.input_quant)
        float_out = layer.forward_float(inputs)
        error = np.abs(out_quant.dequantize(out_codes) - float_out)
        assert error.mean() < 0.05 * max(float_out.max(), 1.0)

    def test_relu_fusion_makes_outputs_nonnegative(self, rng):
        layer, inputs = self._layer(rng, fuse_relu=True)
        codes = layer.input_quant.quantize(inputs)
        out_codes, out_quant = layer.forward_quantized(codes, layer.input_quant)
        assert out_quant.dequantize(out_codes).min() >= 0

    def test_pim_hook_receives_raw_codes(self, rng):
        layer, inputs = self._layer(rng)
        captured = {}

        def hook(patch_codes, hooked_layer):
            captured["shape"] = patch_codes.shape
            captured["layer"] = hooked_layer
            return patch_codes @ hooked_layer.weight_codes

        codes = layer.input_quant.quantize(inputs)
        layer.forward_quantized(codes, layer.input_quant, pim_matmul=hook)
        assert captured["layer"] is layer
        assert captured["shape"] == (64, 20)

    def test_exact_hook_matches_no_hook(self, rng):
        layer, inputs = self._layer(rng)
        codes = layer.input_quant.quantize(inputs)
        ref, _ = layer.forward_quantized(codes, layer.input_quant)
        hooked, _ = layer.forward_quantized(
            codes,
            layer.input_quant,
            pim_matmul=lambda x,
            l: x @ l.weight_codes,
        )
        assert np.array_equal(ref, hooked)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int64])
    def test_reference_product_equals_the_int64_product(self, dtype, rng):
        layer, _ = self._layer(rng)
        info = np.iinfo(np.int8 if dtype == np.int8 else np.uint8)
        codes = rng.integers(info.min, int(info.max) + 1, size=(33, 20)).astype(dtype)
        codes[0], codes[1] = info.min, info.max  # -128 for int8

        def int64_product(x, hooked_layer):
            return x.astype(np.int64) @ hooked_layer.weight_codes

        exact = layer.matmul_quantized(codes, pim_matmul=int64_product)
        assert layer.matmul_quantized(codes).tobytes() == exact.tobytes()

    def test_reference_product_refuses_codes_beyond_its_proof(self, rng):
        layer, _ = self._layer(rng)
        largest = ((1 << 53) - 1) // int(layer.weight_code_sums.max())
        codes = np.zeros((3, 20), dtype=np.int64)
        codes[0] = largest
        codes[1] = -largest
        exact = (codes @ layer.weight_codes).astype(np.float64)
        assert np.array_equal(layer._exact_code_product(codes), exact)
        for row, value in ((0, largest + 1), (1, -largest - 1)):
            wider = codes.copy()
            wider[row] = value
            with pytest.raises(ValueError, match="overflow"):
                layer.matmul_quantized(wider)

    def test_uncalibrated_layer_raises(self, rng):
        layer = Linear("fc", synthetic_linear_weights(4, 8, rng))
        with pytest.raises(RuntimeError):
            layer.forward_quantized(np.zeros((1, 8), dtype=int), TensorQuant(1.0))

    def test_macs_and_weights(self, rng):
        layer, _ = self._layer(rng)
        assert layer.n_weights == 120
        assert layer.macs((20,)) == 120

    def test_output_shape_validation(self, rng):
        layer, _ = self._layer(rng)
        assert layer.output_shape((20,)) == (6,)
        with pytest.raises(ValueError):
            layer.output_shape((21,))

    def test_rejects_bad_weight_rank(self):
        with pytest.raises(ValueError):
            Linear("fc", np.zeros((2, 3, 4)))

    def test_rejects_bad_bias_shape(self, rng):
        with pytest.raises(ValueError):
            Linear("fc", synthetic_linear_weights(4, 8, rng), bias=np.zeros(3))


class TestConv2dLayer:
    def _layer(self, rng):
        layer = Conv2d(
            "conv",
            synthetic_conv_weights(4, 3, 3, rng, std=0.3),
            stride=1,
            padding=1,
            fuse_relu=True,
        )
        inputs = np.abs(rng.normal(0, 1, size=(2, 3, 6, 6)))
        layer.calibrate(inputs, layer.forward_float(inputs))
        return layer, inputs

    def test_float_forward_matches_functional(self, rng):
        layer, inputs = self._layer(rng)
        expected = F.relu(F.conv2d(inputs, layer.weights, layer.bias, 1, 1))
        assert np.allclose(layer.forward_float(inputs), expected)

    def test_output_shape(self, rng):
        layer, _ = self._layer(rng)
        assert layer.output_shape((3, 6, 6)) == (4, 6, 6)

    def test_macs_counts_positions(self, rng):
        layer, _ = self._layer(rng)
        assert layer.macs((3, 6, 6)) == 4 * 3 * 9 * 36

    def test_quantized_forward_shape_and_error(self, rng):
        layer, inputs = self._layer(rng)
        codes = layer.input_quant.quantize(inputs)
        out_codes, out_quant = layer.forward_quantized(codes, layer.input_quant)
        assert out_codes.shape == (2, 4, 6, 6)
        error = np.abs(out_quant.dequantize(out_codes) - layer.forward_float(inputs))
        assert error.mean() < 0.1 * layer.forward_float(inputs).max()

    def test_padding_uses_zero_point(self, rng):
        # Quantized padding must represent real zero, not code zero.
        layer, inputs = self._layer(rng)
        codes = layer.input_quant.quantize(inputs)
        patches, _ = layer._to_patches(codes, layer.input_quant.zero_point)
        # Corner patch contains padded entries equal to the zero point.
        corner = patches[0].reshape(3, 3, 3)
        assert np.all(corner[:, 0, 0] == layer.input_quant.zero_point)
        # With a nonzero zero point, padding the uint8 codes directly is
        # bit-identical to shifting int64 codes, zero-padding and unshifting.
        layer.calibrate(inputs - 0.5, layer.forward_float(inputs - 0.5))
        zero_point = layer.input_quant.zero_point
        assert zero_point > 0
        codes = layer.input_quant.quantize(inputs - 0.5)
        assert codes.dtype == np.uint8
        patches, _ = layer._to_patches(codes, zero_point)
        shifted, _ = F.im2col(codes.astype(np.int64) - zero_point, 3, 1, 1)
        assert patches.dtype == np.uint8
        assert np.array_equal(patches, shifted + zero_point)

    def test_rejects_non_square_kernels(self):
        with pytest.raises(ValueError):
            Conv2d("c", np.zeros((2, 3, 3, 5)))

    def test_channel_mismatch_raises(self, rng):
        layer, _ = self._layer(rng)
        with pytest.raises(ValueError):
            layer.output_shape((4, 6, 6))


class TestShapeOnlyLayers:
    def test_relu_quantized_clamps_at_zero_point(self):
        quant = TensorQuant(scale=0.1, zero_point=10)
        out, _ = ReLU().forward_quantized(np.array([[5, 15]]), quant)
        assert np.array_equal(out, [[10, 15]])

    def test_maxpool_quantized_matches_float(self, rng):
        codes = rng.integers(0, 255, size=(1, 2, 4, 4))
        quant = TensorQuant(scale=0.1)
        out, _ = MaxPool2d(2).forward_quantized(codes, quant)
        assert np.array_equal(out, F.maxpool2d(codes.astype(float), 2).astype(int))

    def test_pools_keep_the_code_dtype(self, rng):
        for signed, dtype in ((False, np.uint8), (True, np.int8)):
            quant = TensorQuant(scale=0.1, signed=signed)
            codes = quant.quantize(rng.normal(0, 5, size=(2, 3, 4, 4)))
            assert codes.dtype == dtype
            pools = (MaxPool2d(2), MaxPool2d(3, 1, 1), AvgPool2d(2), GlobalAvgPool())
            for layer in pools:
                out, _ = layer.forward_quantized(codes, quant)
                assert out.dtype == dtype, layer
                wide, _ = layer.forward_quantized(codes.astype(np.int64), quant)
                assert np.array_equal(out, wide), layer

    def test_avgpool_quantized_rounds(self):
        codes = np.array([[[[0, 1], [2, 3]]]])
        out, _ = AvgPool2d(2).forward_quantized(codes, TensorQuant(scale=0.1))
        assert out[0, 0, 0, 0] == 2  # mean 1.5 rounds to 2 (banker's rounding)

    def test_global_avg_pool_shapes(self):
        out, _ = GlobalAvgPool().forward_quantized(
            np.ones((2, 3, 4, 4), dtype=int), TensorQuant(scale=0.1)
        )
        assert out.shape == (2, 3)

    def test_flatten(self):
        out, _ = Flatten().forward_quantized(
            np.zeros((2, 3, 4, 4), dtype=int), TensorQuant(scale=0.1)
        )
        assert out.shape == (2, 48)
        assert Flatten().output_shape((3, 4, 4)) == (48,)

    def test_pool_output_shapes(self):
        assert MaxPool2d(2).output_shape((8, 6, 6)) == (8, 3, 3)
        assert AvgPool2d(3, stride=2).output_shape((8, 7, 7)) == (8, 3, 3)
        assert GlobalAvgPool().output_shape((8, 7, 7)) == (8,)
