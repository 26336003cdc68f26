"""Tests for Dynamic Input Slicing phase planning."""

import numpy as np
import pytest

from repro.arithmetic.slicing import Slicing
from repro.core.dynamic_input import (
    InputPhase,
    InputSlicePlan,
    SpeculationMode,
    extract_input_slice,
)


def _n_phases(plan, kind):
    return sum(1 for p in plan.phases if p.kind == kind)


def _adc_converting_phases(plan):
    """Phases in which ADCs convert every column (speculative / serial)."""
    return tuple(p for p in plan.phases if p.kind != "recovery")


class TestInputPhase:
    def test_valid_phase(self):
        phase = InputPhase(kind="speculative", width=4, shift=4)
        assert phase.shift == 4

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            InputPhase(kind="bogus", width=1, shift=0)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            InputPhase(kind="serial", width=0, shift=0)
        with pytest.raises(ValueError):
            InputPhase(kind="serial", width=1, shift=-1)


class TestSpeculativePlan:
    def test_default_plan_has_eleven_cycles(self):
        plan = InputSlicePlan.build()
        assert plan.n_cycles == 11
        assert _n_phases(plan, "speculative") == 3
        assert _n_phases(plan, "recovery") == 8

    def test_recovery_follows_each_speculative_slice(self):
        plan = InputSlicePlan.build()
        kinds = [p.kind for p in plan.phases]
        assert kinds == (
            ["speculative"] + ["recovery"] * 4
            + ["speculative"] + ["recovery"] * 2
            + ["speculative"] + ["recovery"] * 2
        )

    def test_recovery_bits_cover_parent_slice(self):
        plan = InputSlicePlan.build()
        first_spec = plan.phases[0]
        recovery_shifts = [p.shift for p in plan.phases[1:5]]
        assert recovery_shifts == [7, 6, 5, 4]
        assert first_spec.shift == 4

    def test_parent_indices(self):
        plan = InputSlicePlan.build()
        for phase in plan.phases:
            assert phase.parent is not None
            assert 0 <= phase.parent < 3

    def test_adc_converting_phases_exclude_recovery(self):
        plan = InputSlicePlan.build()
        assert len(_adc_converting_phases(plan)) == 3

    def test_mismatched_bit_width_raises(self):
        with pytest.raises(ValueError):
            InputSlicePlan.build(speculative_slicing=Slicing((4, 2)), input_bits=8)

    def test_custom_speculative_slicing(self):
        plan = InputSlicePlan.build(speculative_slicing=Slicing((2, 2, 2, 2)))
        assert _n_phases(plan, "speculative") == 4
        assert plan.n_cycles == 12


class TestBitSerialPlan:
    def test_eight_serial_cycles(self):
        plan = InputSlicePlan.build(mode=SpeculationMode.BIT_SERIAL)
        assert plan.n_cycles == 8
        assert all(p.kind == "serial" for p in plan.phases)

    def test_custom_serial_slicing(self):
        plan = InputSlicePlan.build(
            mode=SpeculationMode.BIT_SERIAL, serial_slicing=Slicing((4, 4))
        )
        assert plan.n_cycles == 2
        assert [p.width for p in plan.phases] == [4, 4]

    def test_all_columns_convert_in_serial_mode(self):
        plan = InputSlicePlan.build(mode=SpeculationMode.BIT_SERIAL)
        assert len(_adc_converting_phases(plan)) == 8

    def test_incomplete_serial_slicing_raises(self):
        # Directly-built plans must fail loudly, not only via PimLayerConfig.
        with pytest.raises(ValueError):
            InputSlicePlan.build(
                mode=SpeculationMode.BIT_SERIAL,
                serial_slicing=Slicing((4, 2)),
                input_bits=8,
            )


class TestExtractInputSlice:
    def test_extracts_high_nibble(self):
        phase = InputPhase(kind="speculative", width=4, shift=4)
        values = extract_input_slice(np.array([0xAB]), phase)
        assert values[0] == 0xA

    def test_extracts_single_bits(self):
        phase = InputPhase(kind="recovery", width=1, shift=0)
        assert extract_input_slice(np.array([3]), phase)[0] == 1
        phase = InputPhase(kind="recovery", width=1, shift=2)
        assert extract_input_slice(np.array([3]), phase)[0] == 0

    def test_rejects_negative_inputs(self):
        phase = InputPhase(kind="serial", width=1, shift=0)
        with pytest.raises(ValueError):
            extract_input_slice(np.array([-1]), phase)

    def test_slices_recombine_to_value(self):
        plan = InputSlicePlan.build(mode=SpeculationMode.BIT_SERIAL)
        values = np.arange(256)
        total = sum(extract_input_slice(values, p) << p.shift for p in plan.phases)
        assert np.array_equal(total, values)

    def test_speculative_slices_recombine_to_value(self):
        plan = InputSlicePlan.build()
        values = np.arange(256)
        total = sum(
            extract_input_slice(values, p) << p.shift
            for p in plan.phases
            if p.kind == "speculative"
        )
        assert np.array_equal(total, values)
