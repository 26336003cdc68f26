"""Hardware-grounded per-layer cost tables for serve-time attribution.

The paper's headline numbers are energy and throughput (Fig. 12/13, Table 2),
computed by :mod:`repro.hw` from analytical action counts.  Those models are
exact but not free: counting actions for every layer on every request would
dominate the serving hot path.  :class:`CostModel` therefore precomputes, once
per (model, architecture) pair, a per-layer table of

* energy per input sample (pJ, via :class:`~repro.hw.energy.EnergyModel` over
  :func:`~repro.hw.actions.count_model_actions`), and
* latency per input sample (cycles/us, via the replicated
  :class:`~repro.hw.mapping.Mapper` pipeline and
  :class:`~repro.hw.throughput.ThroughputModel`),

so attribution at serve time is a float multiply per request.  Whole-model
totals agree with :meth:`EnergyModel.model_energy` (and hence the Fig. 12
harness) to float round-off -- ``tests/test_telemetry.py`` pins the match at
1e-6 relative.

Two entry points:

* :meth:`CostModel.from_shapes` for the full-scale zoo tables
  (:func:`repro.nn.zoo.model_shapes`), matching the paper's published scale;
* :meth:`CostModel.from_model` for a runnable compiled
  :class:`~repro.nn.model.QuantizedModel`, whose crossbar-mapped layers are
  first converted to an equivalent shape table with
  :func:`shapes_from_model`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.architecture import ArchitectureSpec
from repro.hw.energy import EnergyBreakdown, EnergyModel
from repro.hw.mapping import Mapper
from repro.hw.throughput import ThroughputModel, ThroughputReport
from repro.nn.layers import Conv2d, Linear
from repro.nn.model import QuantizedModel
from repro.nn.zoo import LayerShape, ModelShapes

__all__ = ["LayerCost", "CostModel", "shapes_from_model"]


def shapes_from_model(model: QuantizedModel) -> ModelShapes:
    """Convert a runnable model's crossbar-mapped layers to a shape table.

    Convolutions use the zoo tables' same-padding semantics
    (``output_size = ceil(input_size / stride)``), which matches the runnable
    zoo models exactly (they pad with ``kernel // 2``); spatial sizes are
    taken from the model's shape propagation.  Convolutions that break that
    assumption (``padding != kernel // 2``, or non-square inputs) would get
    silently wrong output-position counts, so they are rejected instead.
    Only crossbar-mapped layers appear -- pooling and reshaping cost nothing
    in the paper's model.
    """
    input_shapes = model.layer_input_shapes()
    layers = []
    for layer in model.matmul_layers():
        shape = input_shapes[layer.name]
        if isinstance(layer, Conv2d):
            if shape[1] != shape[2]:
                raise ValueError(
                    f"layer {layer.name!r}: cost tables assume square inputs, "
                    f"got {shape[1]}x{shape[2]}"
                )
            candidate = LayerShape(
                name=layer.name,
                kind="conv",
                in_channels=layer.in_channels,
                out_channels=layer.out_features,
                kernel_h=layer.kernel,
                kernel_w=layer.kernel,
                stride=layer.stride,
                input_size=int(shape[1]),
                signed_input=layer.signed_input,
            )
            # The analytical table assumes same-padding outputs
            # (ceil(input/stride)); verify against the layer's real output
            # size so padding/kernel combinations that break the assumption
            # fail loudly instead of silently mis-costing the tenant.
            _, out_h, out_w = layer.output_shape(shape)
            if candidate.output_size != out_h or out_h != out_w:
                raise ValueError(
                    f"layer {layer.name!r}: cost tables assume same-padding "
                    f"outputs ({candidate.output_size}x{candidate.output_size} "
                    f"for this input), but the layer produces {out_h}x{out_w} "
                    f"(kernel={layer.kernel}, stride={layer.stride}, "
                    f"padding={layer.padding}); the analytical LayerShape "
                    "would miscount output positions"
                )
            layers.append(candidate)
        elif isinstance(layer, Linear):
            layers.append(
                LayerShape(
                    name=layer.name,
                    kind="linear",
                    in_channels=layer.in_features,
                    out_channels=layer.out_features,
                    input_size=1,
                    signed_input=layer.signed_input,
                )
            )
        else:  # pragma: no cover - MatmulLayer has exactly these subclasses
            raise TypeError(f"cannot derive a LayerShape for {type(layer).__name__!r}")
    return ModelShapes(model.name, tuple(layers), signed_input=model.signed_input)


@dataclass(frozen=True)
class LayerCost:
    """Precomputed per-sample cost of one crossbar-mapped layer."""

    name: str
    energy: EnergyBreakdown
    latency_cycles: float
    latency_us: float
    replicas: int
    crossbars: int
    macs: float

    @property
    def energy_pj(self) -> float:
        """Energy per input sample in picojoules."""
        return self.energy.total_pj


class CostModel:
    """Per-layer energy/latency lookup tables for one (model, architecture).

    Construction runs the analytical cost pipeline once (action counts,
    energy accounting, crossbar mapping with greedy replication, pipeline
    timing) and keeps the per-sample scalars it yields; every serving-path
    accessor afterwards (energy, energy split, batch latency) is a
    dictionary lookup or a float multiply.
    """

    def __init__(
        self,
        shapes: ModelShapes,
        arch: ArchitectureSpec,
        replicate: bool = True,
    ):
        self.shapes = shapes
        self.arch = arch
        energy_model = EnergyModel(arch)
        mapping = Mapper(arch).map(shapes, replicate=replicate)
        self.report: ThroughputReport = ThroughputModel(arch).report_from_mapping(
            mapping
        )
        self.layer_costs: list[LayerCost] = [
            LayerCost(
                name=placed.layer_name,
                energy=energy_model.layer_energy(placed.actions),
                latency_cycles=timing.latency_cycles,
                latency_us=timing.latency_us,
                replicas=timing.replicas,
                crossbars=timing.crossbars,
                macs=placed.actions.macs,
            )
            for placed, timing in zip(mapping.layers, self.report.layer_timings)
        ]
        self._by_name = {cost.name: cost for cost in self.layer_costs}
        self._energy_per_sample_pj = float(
            sum(cost.energy_pj for cost in self.layer_costs)
        )
        # Per-sample DAC/ADC/crossbar/digital attribution: the analog front
        # end keeps its own buckets and "digital" is defined as the exact
        # remainder, so the four values reconcile with energy_pj() to float
        # round-off no matter how the per-layer sums associated.
        components = self.energy_breakdown().components_pj
        analog = {key: float(components[key]) for key in ("adc", "dac", "crossbar")}
        self._energy_split_per_sample_pj = {
            **analog,
            "digital": self._energy_per_sample_pj - sum(analog.values()),
        }
        self._single_sample_latency_us = self.report.single_sample_latency_us
        self._steady_state_latency_us = self.report.steady_state_latency_us

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_shapes(
        cls, shapes: ModelShapes, arch: ArchitectureSpec, replicate: bool = True
    ) -> "CostModel":
        """Cost tables for a full-scale zoo shape table."""
        return cls(shapes, arch, replicate=replicate)

    @classmethod
    def from_model(
        cls, model: QuantizedModel, arch: ArchitectureSpec, replicate: bool = True
    ) -> "CostModel":
        """Cost tables for a runnable compiled :class:`QuantizedModel`."""
        return cls(shapes_from_model(model), arch, replicate=replicate)

    # -- lookups --------------------------------------------------------------

    def layer_cost(self, name: str) -> LayerCost:
        """The precomputed cost entry of one layer."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"model {self.shapes.name!r} has no crossbar layer {name!r}"
            ) from None

    @property
    def energy_per_sample_pj(self) -> float:
        """Whole-model energy for one input sample (pJ)."""
        return self._energy_per_sample_pj

    @property
    def energy_per_sample_uj(self) -> float:
        """Whole-model energy for one input sample (uJ)."""
        return self._energy_per_sample_pj / 1e6

    def energy_pj(self, n_samples: int = 1) -> float:
        """Modeled energy of running ``n_samples`` inputs (pJ)."""
        return self._energy_per_sample_pj * n_samples

    def energy_breakdown(self) -> EnergyBreakdown:
        """Whole-model per-component breakdown (one sample)."""
        total = EnergyBreakdown(name=f"{self.shapes.name}@{self.arch.name}")
        for cost in self.layer_costs:
            total.add(cost.energy)
        return total

    def energy_split_pj(self, n_samples: int = 1) -> dict[str, float]:
        """Per-component energy attribution for ``n_samples`` inputs (pJ).

        The four buckets are the paper's analog front end -- ``"dac"``,
        ``"adc"``, ``"crossbar"`` -- plus ``"digital"`` for everything else
        (shift+add, center processing, buffers, eDRAM, router,
        quantization).  ``"digital"`` is computed as the remainder against
        :meth:`energy_pj`, so the buckets sum to the request's existing
        modeled total to float round-off; request traces carry this split so
        per-tenant accounting can answer *where* the energy went.
        """
        return {
            key: value * n_samples
            for key, value in self._energy_split_per_sample_pj.items()
        }

    @property
    def single_sample_latency_us(self) -> float:
        """End-to-end modeled latency of one sample through the pipeline."""
        return self._single_sample_latency_us

    @property
    def steady_state_latency_us(self) -> float:
        """Pipeline initiation interval: modeled time per sample, steady state."""
        return self._steady_state_latency_us

    @property
    def throughput_samples_per_s(self) -> float:
        """Modeled steady-state throughput (samples per second)."""
        return self.report.throughput_samples_per_s

    def batch_latency_us(self, n_samples: int) -> float:
        """Modeled latency of a batch: pipeline fill + steady-state drain.

        The first sample pays the full per-layer pipeline
        (:attr:`single_sample_latency_us`); each further sample leaves the
        pipeline one initiation interval later.
        """
        if n_samples < 1:
            return 0.0
        return (
            self._single_sample_latency_us
            + (n_samples - 1) * self._steady_state_latency_us
        )

    def batch_latency_s(self, n_samples: int) -> float:
        """Modeled batch latency in seconds (see :meth:`batch_latency_us`)."""
        return self.batch_latency_us(n_samples) / 1e6

    # -- reporting ------------------------------------------------------------

    def summary(self) -> str:
        """Human-readable per-layer cost table."""
        lines = [
            f"{self.shapes.name}@{self.arch.name}: "
            f"{self.energy_per_sample_uj:.3f} uJ/sample, "
            f"{self.single_sample_latency_us:.1f} us/sample "
            f"({self.throughput_samples_per_s:,.0f} samples/s steady state)",
            f"  {'layer':>24} {'energy uJ':>10} {'latency us':>11} "
            f"{'replicas':>8} {'crossbars':>9}",
        ]
        for cost in self.layer_costs:
            lines.append(
                f"  {cost.name:>24} {cost.energy_pj / 1e6:>10.4f} "
                f"{cost.latency_us:>11.2f} {cost.replicas:>8} {cost.crossbars:>9}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CostModel(model={self.shapes.name!r}, arch={self.arch.name!r}, "
            f"layers={len(self.layer_costs)}, "
            f"energy={self.energy_per_sample_uj:.3f}uJ/sample)"
        )
