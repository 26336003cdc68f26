"""Tests for the mapper and the throughput model."""

import pytest

from repro.hw.architecture import ISAAC_ARCH, RAELLA_ARCH, RAELLA_NO_SPEC_ARCH
from repro.hw.mapping import Mapper
from repro.hw.throughput import ThroughputModel, ThroughputReport
from repro.nn.zoo import model_shapes


class TestMapper:
    def test_mapping_fits_chip(self):
        mapping = Mapper(RAELLA_ARCH).map(model_shapes("resnet18"))
        assert mapping.fits()
        assert 0 < mapping.total_crossbars_used <= RAELLA_ARCH.total_crossbars

    def test_unreplicated_mapping_smaller_than_replicated(self):
        shapes = model_shapes("resnet18")
        bare = Mapper(RAELLA_ARCH).map(shapes, replicate=False)
        replicated = Mapper(RAELLA_ARCH).map(shapes, replicate=True)
        assert replicated.total_crossbars_used >= bare.total_crossbars_used

    def test_replication_improves_bottleneck(self):
        shapes = model_shapes("resnet18")
        bare = Mapper(RAELLA_ARCH).map(shapes, replicate=False)
        replicated = Mapper(RAELLA_ARCH).map(shapes, replicate=True)
        assert replicated.bottleneck.latency_cycles <= bare.bottleneck.latency_cycles

    def test_every_layer_is_mapped(self):
        shapes = model_shapes("mobilenetv2")
        mapping = Mapper(RAELLA_ARCH).map(shapes)
        assert len(mapping.layers) == shapes.n_layers

    def test_toeplitz_replication_only_for_small_conv_filters(self):
        shapes = model_shapes("resnet18")
        mapping = Mapper(RAELLA_ARCH).map(shapes, replicate=False)
        by_name = {m.layer_name: m for m in mapping.layers}
        assert by_name["conv1"].in_crossbar_replicas > 1  # K = 147 fits many copies
        assert by_name["fc"].in_crossbar_replicas == 1

    def test_no_toeplitz_support_disables_in_crossbar_replication(self):
        arch = RAELLA_ARCH.with_changes(supports_toeplitz=False)
        mapping = Mapper(arch).map(model_shapes("resnet18"), replicate=False)
        assert all(m.in_crossbar_replicas == 1 for m in mapping.layers)

    def test_isaac_needs_more_crossbars_than_raella(self):
        shapes = model_shapes("resnet50")
        isaac = Mapper(ISAAC_ARCH).map(shapes, replicate=False).total_crossbars_used
        raella = Mapper(RAELLA_ARCH).map(shapes, replicate=False).total_crossbars_used
        assert isaac > raella


class TestThroughputModel:
    def test_report_structure(self):
        report = ThroughputModel(RAELLA_ARCH).evaluate(model_shapes("resnet18"))
        assert report.throughput_samples_per_s > 0
        assert report.single_sample_latency_us >= report.steady_state_latency_us
        assert "samples/s" in report.summary()

    def test_raella_beats_isaac_on_large_models(self):
        shapes = model_shapes("resnet50")
        raella = ThroughputModel(RAELLA_ARCH).evaluate(shapes).throughput_samples_per_s
        isaac = ThroughputModel(ISAAC_ARCH).evaluate(shapes).throughput_samples_per_s
        assert raella > isaac

    def test_compact_models_favour_isaac(self):
        shapes = model_shapes("shufflenetv2")
        raella = ThroughputModel(RAELLA_ARCH).evaluate(shapes).throughput_samples_per_s
        isaac = ThroughputModel(ISAAC_ARCH).evaluate(shapes).throughput_samples_per_s
        assert raella < isaac

    def test_no_speculation_is_faster(self):
        shapes = model_shapes("resnet18")
        spec = ThroughputModel(RAELLA_ARCH).evaluate(shapes).throughput_samples_per_s
        no_spec = ThroughputModel(RAELLA_NO_SPEC_ARCH).evaluate(
            shapes
        ).throughput_samples_per_s
        assert no_spec > spec

    def test_bert_signed_inputs_halve_throughput(self):
        shapes = model_shapes("bert_large_ffn")
        report = ThroughputModel(RAELLA_ARCH).evaluate(shapes)
        # Signed inputs double cycles per presentation (22 vs 11).
        bottleneck = report.bottleneck
        assert bottleneck.latency_cycles > 0

    def test_latency_consistent_with_cycle_time(self):
        report = ThroughputModel(RAELLA_ARCH).evaluate(model_shapes("shufflenetv2"))
        timing = report.layer_timings[0]
        assert timing.latency_us == pytest.approx(
            timing.latency_cycles * RAELLA_ARCH.cycle_time_ns / 1e3
        )


class TestEmptyThroughputReport:
    """An empty report must fail loudly, not with a bare ``max()`` ValueError."""

    def _empty_report(self) -> ThroughputReport:
        return ThroughputReport(model_name="empty", arch_name="raella")

    @pytest.mark.parametrize(
        "accessor",
        [
            lambda r: r.bottleneck,
            lambda r: r.steady_state_latency_us,
            lambda r: r.throughput_samples_per_s,
            lambda r: r.single_sample_latency_us,
            lambda r: r.summary(),
        ],
        ids=[
            "bottleneck",
            "steady_state_latency_us",
            "throughput_samples_per_s",
            "single_sample_latency_us",
            "summary",
        ],
    )
    def test_empty_timings_raise_clear_error(self, accessor):
        with pytest.raises(ValueError, match="no layer timings"):
            accessor(self._empty_report())

    def test_populated_report_unaffected(self):
        report = ThroughputModel(RAELLA_ARCH).evaluate(model_shapes("resnet18"))
        assert report.bottleneck.latency_cycles > 0
        assert report.single_sample_latency_us > 0
