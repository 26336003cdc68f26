"""Tests for the column-sum noise models."""

import numpy as np
import pytest

from repro.analog.noise import GaussianColumnNoise, NoiselessModel


class TestNoiseModels:
    def test_noiseless_returns_difference(self):
        model = NoiselessModel()
        assert np.array_equal(model.apply(np.array([5.0]), np.array([2.0])), [3.0])

    def test_zero_level_gaussian_is_ideal(self):
        model = GaussianColumnNoise(level=0.0, seed=0)
        assert np.array_equal(model.apply(np.array([5.0]), np.array([2.0])), [3.0])

    def test_noise_std_scales_with_activity(self):
        model = GaussianColumnNoise(level=0.1, seed=0)
        big = model.apply(np.full(20_000, 10_000.0), np.zeros(20_000)) - 10_000.0
        small = model.apply(np.full(20_000, 100.0), np.zeros(20_000)) - 100.0
        assert np.std(big) > 5 * np.std(small)

    def test_noise_is_unbiased(self):
        model = GaussianColumnNoise(level=0.1, seed=1)
        samples = model.apply(np.full(50_000, 400.0), np.zeros(50_000))
        assert abs(samples.mean() - 400.0) < 0.5

    def test_reproducible_with_seed(self):
        a = GaussianColumnNoise(level=0.1, seed=7).apply(
            np.full(10, 100.0), np.zeros(10)
        )
        b = GaussianColumnNoise(level=0.1, seed=7).apply(
            np.full(10, 100.0), np.zeros(10)
        )
        assert np.array_equal(a, b)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            GaussianColumnNoise(level=-0.1)
