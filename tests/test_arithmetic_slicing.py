"""Tests for the Slicing value type and slicing enumeration."""

import numpy as np
import pytest

from repro.arithmetic.slicing import (
    ISAAC_INPUT_SLICING,
    ISAAC_WEIGHT_SLICING,
    RAELLA_DEFAULT_WEIGHT_SLICING,
    RAELLA_RECOVERY_INPUT_SLICING,
    RAELLA_SPECULATIVE_INPUT_SLICING,
    Slicing,
    enumerate_slicings,
)


class TestSlicing:
    def test_basic_properties(self):
        s = Slicing((4, 2, 2))
        assert s.n_slices == 3
        assert s.total_bits == 8
        assert s.shifts == (4, 2, 0)
        assert s.max_slice_bits == 4

    def test_str_representation(self):
        assert str(Slicing((4, 2, 2))) == "4b-2b-2b"

    def test_len_and_iter(self):
        s = Slicing((2, 3, 3))
        assert len(s) == 3
        assert list(s) == [2, 3, 3]

    def test_equality_and_hash(self):
        assert Slicing((4, 4)) == Slicing((4, 4))
        assert hash(Slicing((4, 4))) == hash(Slicing((4, 4)))
        assert Slicing((4, 4)) != Slicing((2, 2, 2, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Slicing(())

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            Slicing((4, 0))

    def test_slice_and_reassemble_unsigned(self):
        s = Slicing((4, 2, 2))
        values = np.arange(256)
        slices = s.slice_unsigned(values)
        reassembled = sum(part << shift for part, shift in zip(slices, s.shifts))
        assert np.array_equal(reassembled, values)


class TestEnumerateSlicings:
    def test_paper_count_of_108(self):
        assert len(enumerate_slicings(8, 4)) == 108

    def test_all_cover_total_bits(self):
        assert all(s.total_bits == 8 for s in enumerate_slicings(8, 4))

    def test_all_respect_device_limit(self):
        assert all(s.max_slice_bits <= 4 for s in enumerate_slicings(8, 4))

    def test_sorted_by_slice_count(self):
        counts = [s.n_slices for s in enumerate_slicings(8, 4)]
        assert counts == sorted(counts)

    def test_densest_first_is_4_4(self):
        assert enumerate_slicings(8, 4)[0] == Slicing((4, 4))

    def test_most_conservative_last_is_bit_serial(self):
        assert enumerate_slicings(8, 4)[-1] == Slicing((1,) * 8)

    def test_no_duplicates(self):
        slicings = enumerate_slicings(8, 4)
        assert len(set(slicings)) == len(slicings)

    def test_small_case_exhaustive(self):
        # Compositions of 3 with parts <= 2: (1,1,1), (1,2), (2,1) -> 3.
        assert len(enumerate_slicings(3, 2)) == 3

    def test_single_bit_case(self):
        assert enumerate_slicings(1, 4) == (Slicing((1,)),)

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            enumerate_slicings(0, 4)
        with pytest.raises(ValueError):
            enumerate_slicings(8, 0)


class TestNamedSlicings:
    def test_isaac_weight_slicing(self):
        assert ISAAC_WEIGHT_SLICING.widths == (2, 2, 2, 2)

    def test_isaac_input_slicing_is_bit_serial(self):
        assert ISAAC_INPUT_SLICING.widths == (1,) * 8

    def test_raella_default_weight_slicing(self):
        assert RAELLA_DEFAULT_WEIGHT_SLICING.widths == (4, 2, 2)

    def test_raella_speculative_slicing_has_three_slices(self):
        assert RAELLA_SPECULATIVE_INPUT_SLICING.n_slices == 3
        assert RAELLA_SPECULATIVE_INPUT_SLICING.total_bits == 8

    def test_raella_recovery_slicing_is_bit_serial(self):
        assert RAELLA_RECOVERY_INPUT_SLICING.widths == (1,) * 8
