"""Tests for the component library and architecture specifications."""

import pytest

from repro.hw.architecture import (
    FORMS_ARCH,
    ISAAC_ARCH,
    RAELLA_65NM_ARCH,
    RAELLA_65NM_NO_SPEC_ARCH,
    RAELLA_ARCH,
    RAELLA_NO_SPEC_ARCH,
    TIMELY_ARCH,
    ArchitectureSpec,
    OperandStatistics,
)
from repro.hw.components import ComponentLibrary


class TestComponentLibrary:
    def test_adc_energy_decreases_with_resolution(self):
        lib = ComponentLibrary()
        assert lib.adc_energy_pj(7) < lib.adc_energy_pj(8) < lib.adc_energy_pj(10)

    def test_adc_energy_at_reference_resolution(self):
        lib = ComponentLibrary()
        assert lib.adc_energy_pj(8) == pytest.approx(lib.adc_energy_8b_pj)

    def test_adc_energy_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            ComponentLibrary().adc_energy_pj(0)

    def test_scaled_library(self):
        lib = ComponentLibrary().scaled(2.0)
        assert lib.adc_energy_8b_pj == pytest.approx(
            2 * ComponentLibrary().adc_energy_8b_pj
        )
        assert lib.sram_energy_per_byte_pj == pytest.approx(
            2 * ComponentLibrary().sram_energy_per_byte_pj
        )

    def test_timely_library_has_cheaper_converts(self):
        timely = ComponentLibrary.for_timely_components()
        assert timely.adc_energy_pj(8) < ComponentLibrary().adc_energy_pj(8)
        assert timely.name == "65nm_timely"


class TestOperandStatistics:
    def test_defaults_valid(self):
        stats = OperandStatistics()
        assert 0 <= stats.speculation_failure_rate <= 1

    def test_unsigned_weights_have_higher_conductance(self):
        assert (
            OperandStatistics.for_unsigned_weights().weight_conductance_fraction
            > OperandStatistics().weight_conductance_fraction
        )

    def test_bit_serial_statistics_need_fewer_pulses(self):
        assert (
            OperandStatistics.for_bit_serial_offsets().avg_input_pulses_per_operand
            < OperandStatistics().avg_input_pulses_per_operand
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            OperandStatistics(speculation_failure_rate=2.0)
        with pytest.raises(ValueError):
            OperandStatistics(weight_conductance_fraction=-0.1)


class TestArchitectureSpecs:
    def test_raella_defaults_follow_paper(self):
        assert RAELLA_ARCH.crossbar_rows == 512
        assert RAELLA_ARCH.adc_bits == 7
        assert RAELLA_ARCH.n_tiles == 743
        assert RAELLA_ARCH.typical_weight_slices == 3
        assert RAELLA_ARCH.cycles_per_presentation == 11

    def test_isaac_defaults_follow_paper(self):
        assert ISAAC_ARCH.crossbar_rows == 128
        assert ISAAC_ARCH.adc_bits == 8
        assert ISAAC_ARCH.n_tiles == 1024
        assert ISAAC_ARCH.typical_weight_slices == 4
        assert not ISAAC_ARCH.speculative

    def test_forms_is_pruned_isaac(self):
        assert FORMS_ARCH.mac_reduction_factor == pytest.approx(2.0)
        assert FORMS_ARCH.requires_retraining
        assert FORMS_ARCH.limits_weight_count

    def test_timely_metadata(self):
        assert TIMELY_ARCH.requires_retraining
        assert TIMELY_ARCH.fidelity_loss == "high"

    def test_no_spec_variants(self):
        assert not RAELLA_NO_SPEC_ARCH.speculative
        assert RAELLA_NO_SPEC_ARCH.cycles_per_presentation == 8
        assert not RAELLA_65NM_NO_SPEC_ARCH.speculative

    def test_65nm_variant_uses_timely_components(self):
        assert RAELLA_65NM_ARCH.components.name == "65nm_timely"

    def test_total_crossbars(self):
        assert RAELLA_ARCH.total_crossbars == 743 * 32

    def test_weight_slices_for_last_layer(self):
        assert RAELLA_ARCH.weight_slices_for_layer(9, 10) == 8
        assert RAELLA_ARCH.weight_slices_for_layer(0, 10) == 3

    def test_converts_per_column_with_speculation(self):
        expected = 3.0 + RAELLA_ARCH.operand_stats.speculation_failure_rate * 8
        assert RAELLA_ARCH.converts_per_column_per_presentation() == pytest.approx(
            expected
        )

    def test_converts_per_column_without_speculation(self):
        assert ISAAC_ARCH.converts_per_column_per_presentation() == pytest.approx(8.0)

    def test_with_changes_copy(self):
        changed = RAELLA_ARCH.with_changes(n_tiles=10)
        assert changed.n_tiles == 10 and RAELLA_ARCH.n_tiles == 743

    def test_rejects_invalid_spec(self):
        with pytest.raises(ValueError):
            ArchitectureSpec(name="bad", crossbar_rows=0)
        with pytest.raises(ValueError):
            ArchitectureSpec(name="bad", mac_reduction_factor=0.5)
