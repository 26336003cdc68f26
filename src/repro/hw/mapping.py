"""Layer-to-crossbar mapping and weight replication (Timeloop-lite).

The paper maps each DNN layer onto as many crossbars as its weights need,
optionally replicates weights *inside* a crossbar with a partial Toeplitz
expansion (computing several convolution steps per presentation), and then
greedily replicates the slowest layer across spare tiles until the chip is
full (Section 5.5).  This module reproduces that mapping at the granularity
the throughput model needs: per-layer crossbar counts, in-crossbar and
cross-tile replication factors, and chip utilisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.actions import LayerActionCounts, count_model_actions
from repro.hw.architecture import ArchitectureSpec
from repro.nn.zoo import ModelShapes

__all__ = ["LayerMapping", "DnnMapping", "Mapper"]


@dataclass
class LayerMapping:
    """Placement of one layer on the chip."""

    actions: LayerActionCounts
    in_crossbar_replicas: int
    cross_tile_replicas: int = 1

    @property
    def layer_name(self) -> str:
        """Name of the mapped layer."""
        return self.actions.layer.name

    @property
    def crossbars(self) -> int:
        """Crossbars occupied by this layer including replication."""
        return self.actions.crossbars_min * self.cross_tile_replicas

    @property
    def total_replicas(self) -> int:
        """Total weight copies able to work on different output positions."""
        return self.in_crossbar_replicas * self.cross_tile_replicas

    @property
    def presentations_per_replica(self) -> float:
        """Input presentations each replica must process per sample."""
        return self.actions.presentations / self.total_replicas

    @property
    def latency_cycles(self) -> float:
        """Crossbar cycles this layer needs per input sample."""
        return self.presentations_per_replica * self.actions.cycles_per_presentation


@dataclass
class DnnMapping:
    """The full mapping of one DNN onto one architecture."""

    arch: ArchitectureSpec
    model_name: str
    layers: list[LayerMapping] = field(default_factory=list)

    @property
    def total_crossbars_used(self) -> int:
        """Crossbars occupied across all layers."""
        return sum(m.crossbars for m in self.layers)

    @property
    def bottleneck(self) -> LayerMapping:
        """The layer with the highest per-sample latency."""
        return max(self.layers, key=lambda m: m.latency_cycles)

    def fits(self) -> bool:
        """Whether the mapping fits the chip's crossbar budget."""
        return self.total_crossbars_used <= self.arch.total_crossbars


class Mapper:
    """Maps full-scale DNN shape tables onto an architecture."""

    def __init__(self, arch: ArchitectureSpec):
        self.arch = arch

    def _in_crossbar_replicas(self, actions: LayerActionCounts) -> int:
        """Partial-Toeplitz replication factor inside one crossbar.

        When a convolution's filter occupies only a fraction of the crossbar
        rows, additional shifted copies of the filter can share the crossbar
        and compute neighbouring convolution steps from the same input
        presentation (Section 5.5).  Fully-connected layers and architectures
        without Toeplitz support get no in-crossbar replication.
        """
        if not self.arch.supports_toeplitz:
            return 1
        layer = actions.layer
        if layer.kind == "linear" or actions.n_row_chunks > 1:
            return 1
        k_eff = layer.reduction_dim / self.arch.mac_reduction_factor
        row_copies = max(int(self.arch.crossbar_rows // max(k_eff, 1.0)), 1)
        col_copies = max(
            int(
                self.arch.crossbar_cols
                // max(layer.n_filters * actions.n_weight_slices, 1)
            ),
            1,
        )
        # A Toeplitz copy needs both row space (for the shifted patch) and
        # column space (for the extra output's columns).
        replicas = min(row_copies, col_copies, layer.output_size)
        return max(replicas, 1)

    def map(self, shapes: ModelShapes, replicate: bool = True) -> DnnMapping:
        """Map a model onto the chip, optionally replicating for throughput."""
        actions = count_model_actions(shapes, self.arch)
        mapping = DnnMapping(arch=self.arch, model_name=shapes.name)
        for layer_actions in actions:
            mapping.layers.append(
                LayerMapping(
                    actions=layer_actions,
                    in_crossbar_replicas=self._in_crossbar_replicas(layer_actions),
                )
            )
        if not mapping.fits():
            # The chip cannot hold even one copy of the weights; the paper's
            # designs always fit, but we keep the mapping and report it.
            return mapping
        if replicate:
            self._replicate_greedily(mapping)
        return mapping

    def _replicate_greedily(self, mapping: DnnMapping) -> None:
        """While crossbars remain, replicate the slowest layer (Section 5.5)."""
        budget = self.arch.total_crossbars - mapping.total_crossbars_used
        # Guard against pathological loops on tiny layers.
        for _ in range(100_000):
            bottleneck = mapping.bottleneck
            cost = bottleneck.actions.crossbars_min
            if cost > budget:
                # Try the next-slowest layers that still fit.
                candidates = sorted(
                    (m for m in mapping.layers if m.actions.crossbars_min <= budget),
                    key=lambda m: m.latency_cycles,
                    reverse=True,
                )
                if not candidates:
                    return
                bottleneck = candidates[0]
                cost = bottleneck.actions.crossbars_min
            # Stop when replication no longer helps (everything is 1 cycle).
            if bottleneck.latency_cycles <= self.arch.cycles_per_presentation:
                return
            bottleneck.cross_tile_replicas += 1
            budget -= cost
            if budget <= 0:
                return
