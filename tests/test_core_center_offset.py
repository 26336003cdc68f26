"""Tests for Center+Offset encoding and the Eq. 2 center optimisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arithmetic.slicing import Slicing
from repro.core.center_offset import (
    CenterOffsetEncoder,
    WeightEncoding,
    compute_offsets,
    optimal_centers,
)


def optimal_center(codes, slicing, **kwargs):
    """Eq. 2 center of one filter, solved as a one-column matrix."""
    return int(optimal_centers(np.asarray(codes)[:, np.newaxis], slicing, **kwargs)[0])


class TestComputeOffsets:
    def test_offsets_reconstruct_difference(self):
        codes = np.array([[10, 200], [128, 0]])
        centers = np.array([100, 50])
        plus, minus = compute_offsets(codes, centers)
        assert np.array_equal(plus - minus, codes - centers[np.newaxis, :])

    def test_offsets_are_nonnegative_and_exclusive(self):
        codes = np.array([[10], [200]])
        plus, minus = compute_offsets(codes, np.array([100]))
        assert plus.min() >= 0 and minus.min() >= 0
        assert np.all((plus == 0) | (minus == 0))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            compute_offsets(np.zeros(4, dtype=int), np.zeros(1, dtype=int))
        with pytest.raises(ValueError):
            compute_offsets(np.zeros((4, 2), dtype=int), np.zeros(3, dtype=int))


class TestOptimalCenter:
    def test_symmetric_filter_centers_near_mean(self, rng):
        codes = np.clip(np.round(rng.normal(128, 20, size=400)), 0, 255).astype(int)
        center = optimal_center(codes, Slicing((4, 2, 2)))
        assert abs(center - 128) < 15

    def test_skewed_filter_center_tracks_distribution(self, rng):
        codes = np.clip(np.round(rng.normal(80, 15, size=400)), 0, 255).astype(int)
        center = optimal_center(codes, Slicing((4, 2, 2)))
        assert 60 <= center <= 100

    def test_center_within_candidate_range(self, rng):
        codes = rng.integers(0, 256, size=100)
        center = optimal_center(codes, Slicing((4, 4)))
        assert 1 <= center <= 255

    def test_center_reduces_eq2_cost_vs_zero_point(self, rng):
        from repro.core.center_offset import _slice_column_cost

        codes = np.clip(np.round(rng.normal(90, 25, size=512)), 0, 255).astype(int)
        slicing = Slicing((4, 2, 2))
        center = optimal_center(codes, slicing)
        cost_opt = _slice_column_cost(codes - center, slicing, 4.0)
        cost_zero_point = _slice_column_cost(codes - 128, slicing, 4.0)
        assert cost_opt <= cost_zero_point

    def test_custom_candidates_respected(self, rng):
        codes = rng.integers(0, 256, size=64)
        center = optimal_center(codes, Slicing((4, 4)), candidates=np.array([42]))
        assert center == 42


class TestOptimalCenters:
    def test_matches_per_filter_optimisation(self, rng):
        codes = rng.integers(0, 256, size=(64, 5))
        slicing = Slicing((4, 2, 2))
        batched = optimal_centers(codes, slicing)
        individual = [optimal_center(codes[:, i], slicing) for i in range(5)]
        assert np.array_equal(batched, individual)

    @pytest.mark.parametrize("bad_code", [-1, 256])
    def test_rejects_codes_outside_unsigned_8_bit(self, bad_code):
        codes = np.full((8, 3), 100)
        codes[5, 1] = bad_code
        with pytest.raises(ValueError, match="8-bit"):
            optimal_centers(codes, Slicing((4, 4)))

    def test_accepts_codes_on_both_rails(self):
        codes = np.array([[0, 255], [0, 255], [0, 255]])
        assert np.array_equal(optimal_centers(codes, Slicing((4, 4))), [1, 255])

    def test_different_filters_get_different_centers(self, rng):
        low = np.clip(np.round(rng.normal(60, 10, size=(256, 1))), 0, 255)
        high = np.clip(np.round(rng.normal(200, 10, size=(256, 1))), 0, 255)
        codes = np.concatenate([low, high], axis=1).astype(int)
        centers = optimal_centers(codes, Slicing((4, 2, 2)))
        assert centers[0] < centers[1]

    def test_rejects_non_2d(self, rng):
        with pytest.raises(ValueError):
            optimal_centers(rng.integers(0, 256, size=16), Slicing((4, 4)))


class TestCenterOffsetEncoder:
    def _codes(self, rng, rows=48, filters=6):
        return np.clip(
            np.round(rng.normal(120, 30, size=(rows, filters))), 0, 255
        ).astype(int)

    def test_center_offset_roundtrip(self, rng):
        codes = self._codes(rng)
        encoder = CenterOffsetEncoder(Slicing((4, 2, 2)))
        encoded = encoder.encode(codes)
        assert np.array_equal(encoded.reconstruct_codes(), codes)

    def test_zero_offset_uses_zero_points_as_centers(self, rng):
        codes = self._codes(rng)
        zero_points = rng.integers(50, 200, size=codes.shape[1])
        encoder = CenterOffsetEncoder(Slicing((4, 4)), WeightEncoding.ZERO_OFFSET)
        encoded = encoder.encode(codes, zero_points)
        assert np.array_equal(encoded.centers, zero_points)
        assert np.array_equal(encoded.reconstruct_codes(), codes)

    def test_zero_offset_requires_zero_points(self, rng):
        encoder = CenterOffsetEncoder(Slicing((4, 4)), WeightEncoding.ZERO_OFFSET)
        with pytest.raises(ValueError):
            encoder.encode(self._codes(rng))

    def test_unsigned_encoding_has_no_negative_slices(self, rng):
        codes = self._codes(rng)
        encoder = CenterOffsetEncoder(Slicing((2, 2, 2, 2)), WeightEncoding.UNSIGNED)
        encoded = encoder.encode(codes)
        assert np.all(encoded.negative_slices == 0)
        assert np.all(encoded.centers == 0)
        assert np.array_equal(encoded.reconstruct_codes(), codes)

    def test_slice_values_fit_device_range(self, rng):
        codes = self._codes(rng)
        encoded = CenterOffsetEncoder(Slicing((4, 2, 2))).encode(codes)
        for i, width in enumerate((4, 2, 2)):
            assert encoded.positive_slices[i].max() < (1 << width)
            assert encoded.negative_slices[i].max() < (1 << width)

    def test_column_counts(self, rng):
        codes = self._codes(rng, rows=20, filters=7)
        encoded = CenterOffsetEncoder(Slicing((4, 2, 2))).encode(codes)
        assert encoded.rows == 20
        assert encoded.n_filters == 7
        assert encoded.n_columns == 21

    def test_center_offset_balances_column_sums(self, rng):
        # A skewed filter: Center+Offset should produce much smaller
        # per-column slice sums than Zero+Offset (differential).
        codes = np.clip(np.round(rng.normal(90, 20, size=(512, 1))), 0, 255).astype(int)
        zero_point = np.array([128])
        slicing = Slicing((2, 2, 2, 2))
        center = CenterOffsetEncoder(slicing, WeightEncoding.CENTER_OFFSET).encode(
            codes, zero_point
        )
        zero = CenterOffsetEncoder(slicing, WeightEncoding.ZERO_OFFSET).encode(
            codes, zero_point
        )

        def worst_column_bias(encoded):
            diff = encoded.positive_slices - encoded.negative_slices
            return np.abs(diff.sum(axis=1)).max()

        assert worst_column_bias(center) < worst_column_bias(zero)

    def test_rejects_out_of_range_codes(self, rng):
        encoder = CenterOffsetEncoder(Slicing((4, 4)))
        with pytest.raises(ValueError):
            encoder.encode(np.array([[256]]))
        with pytest.raises(ValueError):
            encoder.encode(np.array([[-1]]))

    def test_devices_programmed_counts_nonzero(self, rng):
        codes = np.array([[100, 100]])
        encoded = CenterOffsetEncoder(Slicing((4, 4))).encode(codes)
        devices_programmed = np.count_nonzero(
            encoded.positive_slices
        ) + np.count_nonzero(encoded.negative_slices)
        # A one-weight filter is its own center, so no device holds an offset.
        assert devices_programmed == 0


class TestEncodingProperties:
    @given(
        st.integers(min_value=0, max_value=255), st.integers(min_value=1, max_value=255)
    )
    @settings(max_examples=60, deadline=None)
    def test_offset_identity(self, code, center):
        plus, minus = compute_offsets(np.array([[code]]), np.array([center]))
        assert plus[0, 0] - minus[0, 0] == code - center
        assert plus[0, 0] >= 0 and minus[0, 0] >= 0
