"""Tests for tensor operations (im2col, conv, pooling, softmax)."""

import numpy as np
import pytest

from repro.nn import functional as F


class TestConvOutputSize:
    def test_same_padding_stride_one(self):
        assert F.conv_output_size(32, 3, 1, 1) == 32

    def test_stride_two(self):
        assert F.conv_output_size(32, 3, 2, 1) == 16

    def test_no_padding(self):
        assert F.conv_output_size(5, 3, 1, 0) == 3

    def test_rejects_impossible_geometry(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)


class TestIm2col:
    def test_patch_count_and_width(self):
        x = np.arange(2 * 3 * 6 * 6, dtype=float).reshape(2, 3, 6, 6)
        patches, (oh, ow) = F.im2col(x, kernel=3, stride=1, padding=1)
        assert (oh, ow) == (6, 6)
        assert patches.shape == (2 * 36, 3 * 9)

    def test_1x1_kernel_is_channel_vector(self):
        x = np.random.default_rng(0).random((1, 4, 3, 3))
        patches, _ = F.im2col(x, kernel=1)
        assert patches.shape == (9, 4)
        assert np.allclose(patches[0], x[0, :, 0, 0])

    def test_rejects_non_4d_input(self):
        with pytest.raises(ValueError):
            F.im2col(np.zeros((3, 3)), kernel=3)

    @pytest.mark.parametrize(
        "kernel,stride,padding,pad_value",
        [(3, 1, 1, 0), (3, 2, 1, 9), (2, 2, 0, 0), (5, 1, 2, 255), (3, 3, 2, 4)],
    )
    def test_matches_naive_patch_loop(self, kernel, stride, padding, pad_value):
        rng = np.random.default_rng(kernel * 10 + stride)
        # A channels-last buffer viewed NCHW, as activations travel.
        x = rng.integers(0, 256, size=(2, 7, 6, 3), dtype=np.uint8).transpose(
            0, 3, 1, 2
        )
        patches, (oh, ow) = F.im2col(x, kernel, stride, padding, pad_value)
        padded = np.full((2, 3, 7 + 2 * padding, 6 + 2 * padding), pad_value)
        padded[:, :, padding : padding + 7, padding : padding + 6] = x
        expected = [
            padded[n, :, i : i + kernel, j : j + kernel].ravel()
            for n in range(2)
            for i in range(0, oh * stride, stride)
            for j in range(0, ow * stride, stride)
        ]
        assert patches.dtype == np.uint8
        assert np.array_equal(patches, np.array(expected))

    def test_pad_value_outside_the_dtype_widens(self):
        x = np.full((1, 1, 2, 2), -3, dtype=np.int8)
        patches, _ = F.im2col(x, kernel=3, padding=1, pad_value=200)
        assert patches.dtype == np.int16
        assert patches[0].tolist() == [200] * 4 + [-3, -3, 200, -3, -3]


class TestConv2d:
    def test_matches_manual_convolution(self):
        rng = np.random.default_rng(1)
        x = rng.random((1, 2, 5, 5))
        w = rng.random((3, 2, 3, 3))
        out = F.conv2d(x, w, stride=1, padding=0)
        # Manual computation of one output position.
        expected = (x[0, :, 0:3, 0:3] * w[1]).sum()
        assert out[0, 1, 0, 0] == pytest.approx(expected)

    def test_identity_kernel(self):
        x = np.random.default_rng(2).random((1, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = F.conv2d(x, w, stride=1, padding=1)
        assert np.allclose(out[0, 0], x[0, 0])

    def test_bias_added_per_channel(self):
        x = np.zeros((1, 1, 3, 3))
        w = np.zeros((2, 1, 1, 1))
        out = F.conv2d(x, w, bias=np.array([1.0, -2.0]))
        assert np.allclose(out[0, 0], 1.0)
        assert np.allclose(out[0, 1], -2.0)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(np.zeros((1, 3, 4, 4)), np.zeros((2, 2, 3, 3)))

    def test_output_shape_with_stride(self):
        out = F.conv2d(
            np.zeros((2, 3, 8, 8)), np.zeros((4, 3, 3, 3)), stride=2, padding=1
        )
        assert out.shape == (2, 4, 4, 4)


class TestPooling:
    def test_maxpool_takes_window_max(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.maxpool2d(x, kernel=2)
        assert np.array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_avgpool_takes_window_mean(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.avgpool2d(x, kernel=2)
        assert np.array_equal(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_maxpool_pools_integer_codes_in_their_dtype(self):
        x = np.arange(25, dtype=np.uint8).reshape(1, 1, 5, 5)
        out = F.maxpool2d(x, kernel=3, stride=2, padding=1)
        assert out.dtype == np.uint8
        expected = F.maxpool2d(x.astype(float), kernel=3, stride=2, padding=1)
        assert np.array_equal(out, expected)

    def test_maxpool_with_stride(self):
        x = np.arange(25, dtype=float).reshape(1, 1, 5, 5)
        out = F.maxpool2d(x, kernel=3, stride=2)
        assert out.shape == (1, 1, 2, 2)

    def test_global_avg_pool(self):
        x = np.ones((2, 3, 4, 4))
        out = F.global_avg_pool(x)
        assert out.shape == (2, 3)
        assert np.allclose(out, 1.0)

    def test_global_avg_pool_rejects_non_4d(self):
        with pytest.raises(ValueError):
            F.global_avg_pool(np.zeros((2, 3)))


class TestActivationsAndLoss:
    def test_relu(self):
        assert np.array_equal(F.relu(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_softmax_sums_to_one(self):
        probs = F.softmax(np.random.default_rng(0).random((5, 10)))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_softmax_stable_for_large_logits(self):
        probs = F.softmax(np.array([[1000.0, 1000.0]]))
        assert np.allclose(probs, 0.5)

    def test_one_hot(self):
        encoded = F.one_hot(np.array([0, 2]), 3)
        assert np.array_equal(encoded, [[1, 0, 0], [0, 0, 1]])

    def test_one_hot_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)

    def test_cross_entropy_of_perfect_prediction_is_small(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert F.cross_entropy(logits, np.array([0, 1])) < 1e-6

    def test_cross_entropy_of_uniform_prediction(self):
        logits = np.zeros((4, 8))
        assert F.cross_entropy(logits, np.zeros(4, dtype=int)) == pytest.approx(
            np.log(8)
        )
