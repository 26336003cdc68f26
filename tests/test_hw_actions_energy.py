"""Tests for action counting, energy accounting and the Titanium Law."""

import pytest

from repro.hw.actions import count_layer_actions, count_model_actions
from repro.hw.architecture import (
    FORMS_ARCH,
    ISAAC_ARCH,
    RAELLA_ARCH,
    RAELLA_NO_SPEC_ARCH,
)
from repro.hw.energy import EnergyBreakdown, EnergyModel
from repro.hw.titanium import titanium_law
from repro.nn.zoo import LayerShape, model_shapes


@pytest.fixture
def conv_layer() -> LayerShape:
    return LayerShape(
        "conv",
        "conv",
        in_channels=64,
        out_channels=128,
        kernel_h=3,
        kernel_w=3,
        stride=1,
        input_size=28,
    )


@pytest.fixture
def bert_layer() -> LayerShape:
    return LayerShape(
        "ffn",
        "linear",
        in_channels=1024,
        out_channels=4096,
        input_size=384,
        signed_input=True,
    )


class TestActionCounts:
    def test_macs_match_layer_shape(self, conv_layer):
        actions = count_layer_actions(conv_layer, RAELLA_ARCH)
        assert actions.macs == pytest.approx(conv_layer.macs)

    def test_isaac_converts_per_mac_near_quarter(self):
        shapes = model_shapes("resnet18")
        actions = count_model_actions(shapes, ISAAC_ARCH)
        total_converts = sum(a.adc_converts for a in actions)
        total_macs = sum(a.macs for a in actions)
        assert 0.2 < total_converts / total_macs < 0.32

    def test_raella_converts_per_mac_near_paper_value(self):
        shapes = model_shapes("resnet18")
        actions = count_model_actions(shapes, RAELLA_ARCH)
        ratio = sum(a.adc_converts for a in actions) / sum(a.macs for a in actions)
        assert 0.01 < ratio < 0.04  # paper reports 0.018

    def test_row_chunking(self, conv_layer):
        actions = count_layer_actions(conv_layer, ISAAC_ARCH)
        assert actions.n_row_chunks == 5  # 576 rows over 128-row crossbars

    def test_signed_inputs_double_conversions(self, bert_layer):
        signed = count_layer_actions(bert_layer, RAELLA_ARCH)
        unsigned = count_layer_actions(
            LayerShape("ffn", "linear", 1024, 4096, input_size=384), RAELLA_ARCH
        )
        assert signed.adc_converts == pytest.approx(2 * unsigned.adc_converts)

    def test_pruning_reduces_macs(self, conv_layer):
        pruned = count_layer_actions(conv_layer, FORMS_ARCH)
        dense = count_layer_actions(conv_layer, ISAAC_ARCH)
        assert pruned.macs == pytest.approx(dense.macs / 2)

    def test_speculation_reduces_converts(self, conv_layer):
        spec = count_layer_actions(conv_layer, RAELLA_ARCH)
        serial = count_layer_actions(conv_layer, RAELLA_NO_SPEC_ARCH)
        assert spec.adc_converts < serial.adc_converts

    def test_center_ops_only_for_offset_architectures(self, conv_layer):
        assert count_layer_actions(conv_layer, RAELLA_ARCH).center_adds > 0
        assert count_layer_actions(conv_layer, ISAAC_ARCH).center_adds == 0

    def test_last_layer_uses_conservative_slicing(self):
        shapes = model_shapes("resnet18")
        actions = count_model_actions(shapes, RAELLA_ARCH)
        assert actions[-1].n_weight_slices == 8
        assert actions[0].n_weight_slices == 3

    def test_row_utilization_bounded(self, conv_layer):
        actions = count_layer_actions(conv_layer, RAELLA_ARCH)
        assert 0 < actions.row_utilization <= 1


class TestEnergyModel:
    def test_breakdown_totals(self):
        breakdown = EnergyBreakdown(
            name="x", components_pj={"adc": 2e6, "crossbar": 1e6}
        )
        assert breakdown.total_uj == pytest.approx(3.0)
        assert breakdown.fraction("adc") == pytest.approx(2 / 3)

    def test_breakdown_add_and_scale(self):
        a = EnergyBreakdown(name="a", components_pj={"adc": 1.0})
        b = EnergyBreakdown(name="b", components_pj={"adc": 2.0, "dac": 1.0})
        a.add(b)
        assert a.components_pj["adc"] == 3.0
        scaled = a.scaled(2.0)
        assert scaled.components_pj["adc"] == 6.0

    def test_isaac_is_adc_dominated(self):
        breakdown = EnergyModel(ISAAC_ARCH).model_energy(model_shapes("resnet18"))
        assert breakdown.fraction("adc") > 0.5

    def test_raella_uses_less_energy_than_isaac(self):
        shapes = model_shapes("resnet18")
        isaac = EnergyModel(ISAAC_ARCH).model_energy(shapes).total_uj
        raella = EnergyModel(RAELLA_ARCH).model_energy(shapes).total_uj
        assert 2.5 < isaac / raella < 5.5

    def test_batch_scaling(self):
        shapes = model_shapes("shufflenetv2")
        single = EnergyModel(RAELLA_ARCH).model_energy(shapes, batch_size=1).total_pj
        batch = EnergyModel(RAELLA_ARCH).model_energy(shapes, batch_size=4).total_pj
        assert batch == pytest.approx(4 * single)

    def test_energy_per_mac_under_2pj_for_raella(self):
        shapes = model_shapes("resnet50")
        total_pj = EnergyModel(RAELLA_ARCH).model_energy(shapes).total_pj
        assert 0.05 < total_pj / shapes.total_macs < 2.0

    def test_crossbar_energy_per_mac_under_100fj_for_isaac(self):
        shapes = model_shapes("resnet18")
        breakdown = EnergyModel(ISAAC_ARCH).model_energy(shapes)
        crossbar_fj_per_mac = breakdown.components_pj[
            "crossbar"
        ] / shapes.total_macs * 1e3
        assert crossbar_fj_per_mac < 150

    def test_summary_text(self):
        breakdown = EnergyModel(RAELLA_ARCH).model_energy(model_shapes("shufflenetv2"))
        assert "uJ" in breakdown.summary()


class TestTitaniumLaw:
    def test_terms_multiply_to_adc_energy(self):
        shapes = model_shapes("resnet18")
        terms = titanium_law(shapes, ISAAC_ARCH)
        breakdown = EnergyModel(ISAAC_ARCH).model_energy(shapes)
        assert terms.adc_energy_pj == pytest.approx(
            breakdown.components_pj["adc"], rel=1e-6
        )

    def test_raella_reduces_both_adc_terms(self):
        shapes = model_shapes("resnet18")
        isaac = titanium_law(shapes, ISAAC_ARCH)
        raella = titanium_law(shapes, RAELLA_ARCH)
        assert raella.energy_per_convert_pj < isaac.energy_per_convert_pj
        assert raella.converts_per_mac < isaac.converts_per_mac
        assert raella.macs_per_dnn == isaac.macs_per_dnn

    def test_utilization_bounded(self):
        terms = titanium_law(model_shapes("mobilenetv2"), RAELLA_ARCH)
        assert 0 < terms.utilization <= 1

    def test_pruning_reduces_macs_per_dnn(self):
        shapes = model_shapes("resnet18")
        assert (
            titanium_law(shapes, FORMS_ARCH).macs_per_dnn
            < titanium_law(shapes, ISAAC_ARCH).macs_per_dnn
        )

    def test_as_dict_keys(self):
        terms = titanium_law(model_shapes("shufflenetv2"), RAELLA_ARCH)
        assert set(terms.as_dict()) == {
            "energy_per_convert_pj",
            "converts_per_mac",
            "macs_per_dnn",
            "utilization",
            "adc_energy_uj",
        }
