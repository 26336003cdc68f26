"""Per-layer action counts for the analytical cost model.

Given a full-scale :class:`~repro.nn.zoo.LayerShape`, an
:class:`~repro.hw.architecture.ArchitectureSpec` and the workload's
:class:`~repro.hw.architecture.OperandStatistics`, this module counts how many
times each hardware component is exercised to run the layer on one input
sample: ADC conversions, DAC pulses, device pulse-units, buffer and NoC bytes,
digital operations and crossbar cycles.  The energy model multiplies these by
per-action energies; the throughput model uses the cycle counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.architecture import ArchitectureSpec
from repro.nn.zoo import LayerShape, ModelShapes

__all__ = ["LayerActionCounts", "count_layer_actions", "count_model_actions"]


@dataclass(frozen=True)
class LayerActionCounts:
    """Action counts for one layer processing one input sample."""

    layer: LayerShape
    n_weight_slices: int
    n_row_chunks: int
    n_column_chunks: int
    crossbars_min: int
    presentations: int
    cycles_per_presentation: float
    macs: float
    adc_converts: float
    dac_pulses: float
    device_pulse_units: float
    column_periphery_ops: float
    shift_adds: float
    psum_buffer_bytes: float
    input_buffer_bytes: float
    edram_bytes: float
    router_bytes: float
    quantize_ops: float
    center_adds: float
    center_applies: float
    row_utilization: float

    @property
    def converts_per_mac(self) -> float:
        """ADC conversions per multiply-accumulate."""
        return self.adc_converts / self.macs if self.macs else 0.0


def _effective_reduction_dim(layer: LayerShape, arch: ArchitectureSpec) -> float:
    """Reduction dimension after any weight-count reduction (pruning)."""
    return layer.reduction_dim / arch.mac_reduction_factor


def count_layer_actions(
    layer: LayerShape,
    arch: ArchitectureSpec,
    layer_index: int = 0,
    n_layers: int = 1,
) -> LayerActionCounts:
    """Count per-sample hardware actions for one layer on one architecture."""
    stats = arch.operand_stats
    k_eff = _effective_reduction_dim(layer, arch)
    n_filters = layer.n_filters
    positions = layer.output_positions
    n_weight_slices = arch.weight_slices_for_layer(layer_index, n_layers)
    n_row_chunks = max(math.ceil(k_eff / arch.crossbar_rows), 1)
    n_column_chunks = max(
        math.ceil(n_filters * n_weight_slices / arch.crossbar_cols), 1
    )
    crossbars_min = n_row_chunks * n_column_chunks
    signed_factor = 2.0 if layer.signed_input else 1.0

    macs = positions * k_eff * n_filters
    converts_per_column = arch.converts_per_column_per_presentation()
    adc_converts = (
        positions
        * n_filters
        * n_weight_slices
        * n_row_chunks
        * converts_per_column
        * signed_factor
    )
    cycles_per_presentation = arch.cycles_per_presentation * signed_factor

    # ``avg_input_pulses_per_operand`` already accounts for every stream the
    # input is presented in (e.g. speculation + recovery); ``input_streams``
    # only multiplies buffer fetches below.
    dac_pulses = (
        positions
        * k_eff
        * stats.avg_input_pulses_per_operand
        * stats.input_nonzero_fraction
    )
    # Each input pulse drives every programmed column of its crossbar; on
    # average one device per 2T2R pair conducts, at a conductance that is a
    # small fraction of on-state for offset-encoded weights.
    device_pulse_units = (
        dac_pulses * n_filters * n_weight_slices * stats.weight_conductance_fraction
    )
    column_periphery_ops = (
        positions
        * n_filters
        * n_weight_slices
        * n_row_chunks
        * cycles_per_presentation
    )
    shift_adds = adc_converts
    psum_buffer_bytes = adc_converts * 3.0  # 16b psum read-modify-write + flags
    input_buffer_bytes = positions * k_eff * arch.input_streams * signed_factor
    input_tensor_bytes = float(
        layer.in_channels * layer.input_size**2
        if layer.kind != "linear"
        else layer.in_channels * layer.input_size
    )
    output_tensor_bytes = float(n_filters * positions)
    edram_bytes = input_tensor_bytes + output_tensor_bytes
    router_bytes = output_tensor_bytes
    quantize_ops = float(n_filters * positions)
    if arch.uses_center_offset:
        center_adds = positions * k_eff * signed_factor
        center_applies = positions * n_filters * n_row_chunks * signed_factor
    else:
        center_adds = 0.0
        center_applies = 0.0
    row_utilization = min(k_eff / (n_row_chunks * arch.crossbar_rows), 1.0)

    return LayerActionCounts(
        layer=layer,
        n_weight_slices=n_weight_slices,
        n_row_chunks=n_row_chunks,
        n_column_chunks=n_column_chunks,
        crossbars_min=crossbars_min,
        presentations=positions,
        cycles_per_presentation=cycles_per_presentation,
        macs=macs,
        adc_converts=adc_converts,
        dac_pulses=dac_pulses,
        device_pulse_units=device_pulse_units,
        column_periphery_ops=column_periphery_ops,
        shift_adds=shift_adds,
        psum_buffer_bytes=psum_buffer_bytes,
        input_buffer_bytes=input_buffer_bytes,
        edram_bytes=edram_bytes,
        router_bytes=router_bytes,
        quantize_ops=quantize_ops,
        center_adds=center_adds,
        center_applies=center_applies,
        row_utilization=row_utilization,
    )


def count_model_actions(
    shapes: ModelShapes, arch: ArchitectureSpec
) -> list[LayerActionCounts]:
    """Count actions for every layer of a full-scale model."""
    n_layers = shapes.n_layers
    return [
        count_layer_actions(layer, arch, layer_index=i, n_layers=n_layers)
        for i, layer in enumerate(shapes.layers)
    ]
