"""The RAELLA accelerator model.

Ties the functional simulation (compiled programs and their measured
statistics) to the hardware cost model.  Both evaluation paths price a layer
through the one price list, :meth:`repro.hw.energy.EnergyModel.layer_energy`:

* :meth:`RaellaAccelerator.run` executes a compiled
  :class:`~repro.core.compiler.RaellaProgram` on real inputs.  It takes the
  analytic per-sample action counts that
  :meth:`repro.telemetry.cost.CostModel.from_model` prices and swaps in what
  the executors measured: MACs, ADC converts (with the shift-adds and psum
  bytes they drive), DAC pulses and crossbar activity.  Every other component
  comes from the layer shape, so it equals the analytic model's.
* :meth:`RaellaAccelerator.evaluate_shapes` evaluates a *full-scale* DNN shape
  table analytically through :mod:`repro.hw` -- this is what reproduces the
  paper's Fig. 12/13 energy and throughput numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.compiler import RaellaProgram
from repro.core.executor import LayerStatistics
from repro.hw.actions import LayerActionCounts, count_model_actions
from repro.hw.architecture import RAELLA_ARCH, ArchitectureSpec
from repro.hw.energy import EnergyBreakdown, EnergyModel
from repro.hw.throughput import ThroughputModel, ThroughputReport
from repro.nn.zoo import ModelShapes
from repro.telemetry.cost import shapes_from_model

__all__ = ["AcceleratorReport", "RaellaAccelerator"]


def _measured_actions(
    analytic: LayerActionCounts, stats: LayerStatistics, device_bits: int, n: int
) -> LayerActionCounts:
    """One layer's per-sample action counts, with the measured ones swapped in.

    Crossbar activity sums input pulses times programmed slice values;
    dividing by the largest value a ``device_bits`` device holds gives device
    pulse-units (pulses at on-state conductance).
    """
    converts = stats.total_adc_converts / n
    return replace(
        analytic,
        macs=stats.macs / n,
        adc_converts=converts,
        dac_pulses=stats.input_pulses / n,
        device_pulse_units=stats.crossbar_activity / (2**device_bits - 1) / n,
        shift_adds=converts,
        psum_buffer_bytes=converts * 3.0,
    )


@dataclass
class AcceleratorReport:
    """Result of running a compiled program on an accelerator model."""

    model_name: str
    arch: ArchitectureSpec
    outputs: np.ndarray
    statistics: LayerStatistics
    energy: EnergyBreakdown
    per_layer_statistics: dict[str, LayerStatistics] = field(default_factory=dict)

    @property
    def converts_per_mac(self) -> float:
        """Measured ADC conversions per MAC."""
        return self.statistics.converts_per_mac

    @property
    def speculation_failure_rate(self) -> float:
        """Measured speculation failure rate."""
        return self.statistics.speculation_failure_rate

    @property
    def fidelity_loss_rate(self) -> float:
        """Measured rate of accepted saturations (fidelity loss)."""
        return self.statistics.fidelity_loss_rate

    def summary(self) -> str:
        """Human-readable report; energy is for the whole batch and per sample."""
        n = len(self.outputs)
        lines = [
            f"model: {self.model_name} on {self.arch.name}",
            f"  MACs simulated:        {self.statistics.macs:,}",
            f"  ADC converts/MAC:      {self.converts_per_mac:.4f}",
            f"  speculation failures:  {self.speculation_failure_rate:.2%}",
            f"  fidelity loss rate:    {self.fidelity_loss_rate:.2e}",
            f"  energy:                {self.energy.total_uj:.3f} uJ for {n} "
            f"samples ({self.energy.total_uj / n:.3f} uJ/sample)",
        ]
        return "\n".join(lines)


@dataclass
class RaellaAccelerator:
    """The RAELLA accelerator: functional + analytical evaluation."""

    arch: ArchitectureSpec = field(default_factory=lambda: RAELLA_ARCH)

    def run(self, program: RaellaProgram, inputs: np.ndarray) -> AcceleratorReport:
        """Execute a compiled program on inputs and report measured costs.

        Raises ``ValueError`` for a model :func:`shapes_from_model` cannot
        describe, as :class:`~repro.telemetry.cost.CostModel` does.
        """
        analytic = count_model_actions(shapes_from_model(program.model), self.arch)
        program.reset_statistics()
        outputs = program.run(inputs)
        per_layer = program.layer_statistics()
        n = len(inputs)
        energy_model = EnergyModel(self.arch)
        energy = EnergyBreakdown(name=f"{program.model.name}@{self.arch.name}")
        for actions in analytic:
            name = actions.layer.name
            device_bits = program.layers[name].executor.config.device_bits
            measured = _measured_actions(actions, per_layer[name], device_bits, n)
            energy.add(energy_model.layer_energy(measured))
        return AcceleratorReport(
            model_name=program.model.name,
            arch=self.arch,
            outputs=outputs,
            statistics=program.aggregate_statistics(),
            energy=energy.scaled(n),
            per_layer_statistics=per_layer,
        )

    def evaluate_shapes(
        self, shapes: ModelShapes
    ) -> tuple[EnergyBreakdown, ThroughputReport]:
        """Analytically evaluate a full-scale DNN shape table."""
        energy = EnergyModel(self.arch).model_energy(shapes)
        throughput = ThroughputModel(self.arch).evaluate(shapes)
        return energy, throughput
