"""Tests for the QuantizedModel container."""

import numpy as np
import pytest

from repro.nn.layers import Linear, MatmulLayer
from repro.nn.model import QuantizedModel
from repro.nn.synthetic import (
    synthetic_images,
    synthetic_linear_weights,
    synthetic_signed_activations,
)
from repro.nn.zoo import bert_large_ffn_like, resnet18_like


class TestModelStructure:
    def test_output_shape_propagation(self, tiny_conv_model):
        assert tiny_conv_model.output_shape == (5,)

    def test_matmul_layers_in_order(self, tiny_conv_model):
        names = [layer.name for layer in tiny_conv_model.matmul_layers()]
        assert names == ["c1", "c2", "fc"]

    def test_layer_input_shapes(self, tiny_conv_model):
        shapes = tiny_conv_model.layer_input_shapes()
        assert shapes["c1"] == (3, 8, 8)
        assert shapes["c2"] == (4, 8, 8)
        assert shapes["fc"] == (6,)

    def test_total_macs_and_weights(self, tiny_mlp_model):
        assert tiny_mlp_model.total_weights() == 16 * 12 + 12 * 4
        assert tiny_mlp_model.total_macs() == 16 * 12 + 12 * 4

    def test_rejects_empty_layer_list(self):
        with pytest.raises(ValueError):
            QuantizedModel("empty", [], input_shape=(4,))

    def test_rejects_inconsistent_shapes(self, rng):
        layers = [
            Linear("a", synthetic_linear_weights(4, 8, rng)),
            Linear("b", synthetic_linear_weights(4, 5, rng)),
        ]
        with pytest.raises(ValueError):
            QuantizedModel("bad", layers, input_shape=(8,))


class TestCalibrationAndExecution:
    def test_is_calibrated(self, tiny_mlp_model):
        assert tiny_mlp_model.is_calibrated

    def test_uncalibrated_model_refuses_quantized_inference(self, rng):
        model = QuantizedModel(
            "m", [Linear("fc", synthetic_linear_weights(2, 4, rng))], input_shape=(4,)
        )
        with pytest.raises(RuntimeError):
            model.forward_quantized(np.zeros((1, 4)))

    def test_quantized_close_to_float(self, tiny_mlp_model, rng):
        x = np.abs(rng.normal(0, 1, size=(16, 16)))
        float_out = tiny_mlp_model.forward_float(x)
        quant_out = tiny_mlp_model.forward_quantized(x)
        scale = max(np.abs(float_out).max(), 1e-6)
        assert np.mean(np.abs(float_out - quant_out)) / scale < 0.1

    def test_return_codes_flag(self, tiny_mlp_model, rng):
        x = np.abs(rng.normal(0, 1, size=(4, 16)))
        codes = tiny_mlp_model.forward_quantized(x, return_codes=True)
        assert codes.dtype == np.int64

    def test_predict_matches_argmax(self, tiny_mlp_model, rng):
        x = np.abs(rng.normal(0, 1, size=(8, 16)))
        logits = tiny_mlp_model.forward_quantized(x)
        assert np.array_equal(tiny_mlp_model.predict(x), np.argmax(logits, axis=-1))

    def test_pim_hook_is_used_for_every_matmul_layer(self, tiny_mlp_model, rng):
        calls = []

        def hook(codes, layer):
            calls.append(layer.name)
            return codes @ layer.weight_codes

        x = np.abs(rng.normal(0, 1, size=(2, 16)))
        tiny_mlp_model.forward_quantized(x, pim_matmul=hook)
        assert calls == ["fc1", "fc2"]

    def test_exact_hook_reproduces_default_path(self, tiny_conv_model, rng):
        x = np.abs(rng.normal(0, 1, size=(2, 3, 8, 8)))
        ref = tiny_conv_model.forward_quantized(x)
        hooked = tiny_conv_model.forward_quantized(
            x, pim_matmul=lambda codes, layer: codes @ layer.weight_codes
        )
        assert np.array_equal(ref, hooked)


class TestCaptureLayerInputs:
    def test_captures_all_matmul_layers(self, tiny_conv_model, rng):
        x = np.abs(rng.normal(0, 1, size=(1, 3, 8, 8)))
        captured = tiny_conv_model.capture_layer_inputs(x)
        assert set(captured) == {"c1", "c2", "fc"}

    def test_patch_shapes(self, tiny_conv_model, rng):
        x = np.abs(rng.normal(0, 1, size=(1, 3, 8, 8)))
        captured = tiny_conv_model.capture_layer_inputs(x)
        assert captured["c1"].patch_codes.shape == (64, 27)
        assert captured["fc"].patch_codes.shape == (1, 6)

    def test_patch_codes_are_valid_uint8(self, tiny_conv_model, rng):
        x = np.abs(rng.normal(0, 1, size=(1, 3, 8, 8)))
        captured = tiny_conv_model.capture_layer_inputs(x)
        for activation in captured.values():
            assert activation.patch_codes.min() >= 0
            assert activation.patch_codes.max() <= 255

    def test_layer_name_filter(self, tiny_conv_model, rng):
        x = np.abs(rng.normal(0, 1, size=(1, 3, 8, 8)))
        captured = tiny_conv_model.capture_layer_inputs(x, layer_names=["c2"])
        assert set(captured) == {"c2"}


class TestSignedInputModel:
    def test_signed_input_quantization(self, rng):
        layer = Linear(
            "fc",
            synthetic_linear_weights(4, 8, rng),
            fuse_relu=False,
            signed_input=True,
        )
        model = QuantizedModel("signed", [layer], input_shape=(8,), signed_input=True)
        model.calibrate(rng.normal(0, 1, size=(32, 8)))
        assert model.input_quant.signed
        x = rng.normal(0, 1, size=(4, 8))
        captured = model.capture_layer_inputs(x)
        assert captured["fc"].patch_codes.min() < 0


class TestActivationCodeDtypes:
    """Activations travel in their quantization's narrow code dtype."""

    @pytest.mark.parametrize("build_model", [resnet18_like, bert_large_ffn_like])
    def test_no_int64_between_layers(self, build_model, rng):
        model = build_model(seed=0)
        if len(model.input_shape) == 3:
            x = synthetic_images(2, model.input_shape, rng)
        else:
            x = synthetic_signed_activations((4, *model.input_shape), rng)
        hook_dtypes = {}

        def hook(codes, layer):
            hook_dtypes[layer.name] = codes.dtype
            return codes.astype(np.int64) @ layer.weight_codes

        codes = model.input_quant.quantize(x)
        assert codes.dtype == model.input_quant.code_dtype
        quant = model.input_quant
        for layer in model.layers:
            in_dtype = codes.dtype
            codes, quant = layer.forward_quantized(codes, quant, pim_matmul=hook)
            if isinstance(layer, MatmulLayer):
                assert hook_dtypes[layer.name] == in_dtype, layer.name
                assert codes.dtype == layer.output_quant.code_dtype, layer.name
            else:
                assert codes.dtype == in_dtype, layer.name
            assert codes.dtype in (np.uint8, np.int8), layer.name
        assert set(hook_dtypes) == {layer.name for layer in model.matmul_layers()}
        if build_model is bert_large_ffn_like:
            assert hook_dtypes["bert_ffn0_in"] == np.int8
        # The public API edges still hand out int64.
        final = model.forward_quantized(x, pim_matmul=hook, return_codes=True)
        assert final.dtype == np.int64
        assert np.array_equal(final, codes)
        captured = model.capture_layer_inputs(x)
        assert {a.patch_codes.dtype for a in captured.values()} == {np.dtype(np.int64)}
