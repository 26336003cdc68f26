"""Tests for bit-slicing primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arithmetic.bits import (
    bit_density,
    signed_crop,
    slice_shifts,
    unsigned_slices,
)


def reassemble_slices(slices, widths):
    """Reassemble sliced values: ``sum_i slice_i << shift_i``."""
    shifts = slice_shifts(widths)
    return sum(np.asarray(part, dtype=np.int64) << s for part, s in zip(slices, shifts))


class TestSliceShifts:
    def test_shifts_for_4_2_2(self):
        assert slice_shifts((4, 2, 2)) == (4, 2, 0)

    def test_shifts_for_bit_serial(self):
        assert slice_shifts((1,) * 8) == tuple(range(7, -1, -1))

    def test_single_slice_has_zero_shift(self):
        assert slice_shifts((8,)) == (0,)

    def test_rejects_non_positive_widths(self):
        with pytest.raises(ValueError):
            slice_shifts((4, 0, 4))

    def test_rejects_empty_widths(self):
        with pytest.raises(ValueError):
            slice_shifts(())


class TestUnsignedSlices:
    def test_slices_known_value(self):
        # 0b10110101 = 181 -> high nibble 0b1011=11, low nibble 0b0101=5
        parts = unsigned_slices([181], (4, 4))
        assert parts[0][0] == 11
        assert parts[1][0] == 5

    def test_slices_4_2_2(self):
        parts = unsigned_slices([0b11100110], (4, 2, 2))
        assert [int(p[0]) for p in parts] == [0b1110, 0b01, 0b10]

    def test_roundtrip_reassembly(self):
        values = np.arange(256)
        parts = unsigned_slices(values, (3, 3, 2))
        assert np.array_equal(reassemble_slices(parts, (3, 3, 2)), values)

    def test_slice_values_bounded_by_width(self):
        values = np.arange(256)
        for part, width in zip(unsigned_slices(values, (2, 2, 2, 2)), (2, 2, 2, 2)):
            assert part.max() < (1 << width)
            assert part.min() >= 0

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            unsigned_slices([-1], (4, 4))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            unsigned_slices([256], (4, 4))

    def test_rejects_non_integer_floats(self):
        with pytest.raises(TypeError):
            unsigned_slices([1.5], (4, 4))

    def test_accepts_integer_valued_floats(self):
        parts = unsigned_slices(np.array([3.0]), (4, 4))
        assert parts[1][0] == 3

    def test_preserves_shape(self):
        values = np.arange(12).reshape(3, 4)
        parts = unsigned_slices(values, (4, 4))
        assert parts[0].shape == (3, 4)


class TestSignedCrop:
    def test_matches_paper_definition_positive(self):
        # D(7..4, x) of 0b10110101 keeps the high nibble.
        assert signed_crop([0b10110101], 7, 4)[0] == 0b1011

    def test_preserves_sign(self):
        assert signed_crop([-0b10110101], 7, 4)[0] == -0b1011

    def test_zero_stays_zero(self):
        assert signed_crop([0], 7, 0)[0] == 0

    def test_low_bits_crop(self):
        assert signed_crop([0b10110101], 3, 0)[0] == 0b0101

    def test_single_bit_crop(self):
        assert signed_crop([0b100], 2, 2)[0] == 1

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            signed_crop([1], 2, 5)

    def test_rejects_negative_low(self):
        with pytest.raises(ValueError):
            signed_crop([1], 2, -1)


class TestBitDensity:
    def test_all_ones_has_density_one(self):
        assert np.allclose(bit_density([255, 255], 8), 1.0)

    def test_all_zeros_has_density_zero(self):
        assert np.allclose(bit_density([0, 0], 8), 0.0)

    def test_lsb_density_of_odd_values(self):
        density = bit_density([1, 3, 5, 7], 8)
        assert density[0] == 1.0
        assert density[3] == 0.0

    def test_uses_magnitudes_for_signed_values(self):
        assert np.allclose(bit_density([-1], 2), [1.0, 0.0])

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            bit_density(np.array([], dtype=np.int64), 8)

    def test_rejects_non_positive_bits(self):
        with pytest.raises(ValueError):
            bit_density([1], 0)

    def test_right_skewed_values_have_sparse_high_bits(self):
        rng = np.random.default_rng(0)
        values = np.clip(np.round(np.abs(rng.normal(0, 20, 10_000))), 0, 255)
        density = bit_density(values.astype(int), 8)
        assert density[7] < 0.05
        assert density[0] > 0.3


class TestBitProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=50),
        st.sampled_from([(4, 4), (4, 2, 2), (2, 2, 2, 2), (1,) * 8, (3, 3, 2)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_unsigned_slice_reassembly_roundtrips(self, values, widths):
        parts = unsigned_slices(values, widths)
        assert np.array_equal(reassemble_slices(parts, widths), np.asarray(values))

    @given(st.integers(min_value=-255, max_value=255))
    @settings(max_examples=60, deadline=None)
    def test_signed_crop_decomposition_sums_to_value(self, value):
        total = sum(
            int(signed_crop([value], shift + width - 1, shift)[0]) << shift
            for width, shift in zip((4, 2, 2), (4, 2, 0))
        )
        assert total == value
