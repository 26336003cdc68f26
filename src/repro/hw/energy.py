"""Energy accounting: action counts x per-action energies.

Produces per-component energy breakdowns (Fig. 1, Fig. 14) and whole-DNN
energy (Fig. 12, Fig. 13).  All results are reported in microjoules per input
sample unless noted otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.actions import LayerActionCounts, count_model_actions
from repro.hw.architecture import ArchitectureSpec
from repro.nn.zoo import ModelShapes

__all__ = ["EnergyBreakdown", "EnergyModel"]

#: Component keys reported in breakdowns, in display order.
COMPONENT_KEYS = (
    "adc",
    "crossbar",
    "dac",
    "column_periphery",
    "digital",
    "center_processing",
    "input_buffer",
    "psum_buffer",
    "edram",
    "router",
    "quantization",
)


@dataclass
class EnergyBreakdown:
    """Per-component energy (pJ) for some unit of work (layer or model)."""

    name: str
    components_pj: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key in COMPONENT_KEYS:
            self.components_pj.setdefault(key, 0.0)

    @property
    def total_pj(self) -> float:
        """Total energy in picojoules."""
        return float(sum(self.components_pj.values()))

    @property
    def total_uj(self) -> float:
        """Total energy in microjoules."""
        return self.total_pj / 1e6

    def fraction(self, key: str) -> float:
        """Fraction of total energy spent in one component."""
        total = self.total_pj
        return self.components_pj[key] / total if total else 0.0

    def add(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        """Accumulate another breakdown into this one (in place)."""
        for key, value in other.components_pj.items():
            self.components_pj[key] = self.components_pj.get(key, 0.0) + value
        return self

    def scaled(self, factor: float) -> "EnergyBreakdown":
        """Return a copy with every component multiplied by ``factor``."""
        return EnergyBreakdown(
            name=self.name,
            components_pj={k: v * factor for k, v in self.components_pj.items()},
        )

    def summary(self) -> str:
        """Human-readable component breakdown."""
        lines = [f"{self.name}: {self.total_uj:.2f} uJ"]
        for key in COMPONENT_KEYS:
            value = self.components_pj[key]
            if value:
                lines.append(f"  {key:>18}: {value / 1e6:9.3f} uJ ({self.fraction(key):5.1%})")
        return "\n".join(lines)


class EnergyModel:
    """Computes energy breakdowns for layers and whole DNNs."""

    def __init__(self, arch: ArchitectureSpec):
        self.arch = arch
        self.lib = arch.components

    def layer_energy(self, actions: LayerActionCounts) -> EnergyBreakdown:
        """Energy breakdown of one layer processing one input sample."""
        lib = self.lib
        adc = actions.adc_converts * lib.adc_energy_pj(self.arch.adc_bits)
        crossbar = actions.device_pulse_units * lib.reram_energy_per_device_pulse_pj
        dac = actions.dac_pulses * lib.dac_energy_per_pulse_pj
        periphery = actions.column_periphery_ops * lib.column_periphery_energy_pj
        digital = actions.shift_adds * lib.shift_add_energy_pj
        center = (
            actions.center_adds * lib.center_add_energy_pj
            + actions.center_applies * lib.center_apply_energy_pj
        )
        input_buffer = actions.input_buffer_bytes * lib.sram_energy_per_byte_pj
        psum_buffer = actions.psum_buffer_bytes * lib.sram_energy_per_byte_pj
        edram = actions.edram_bytes * lib.edram_energy_per_byte_pj
        router = actions.router_bytes * lib.router_energy_per_byte_pj
        quantization = actions.quantize_ops * lib.quantize_energy_pj
        return EnergyBreakdown(
            name=actions.layer.name,
            components_pj={
                "adc": adc,
                "crossbar": crossbar,
                "dac": dac,
                "column_periphery": periphery,
                "digital": digital,
                "center_processing": center,
                "input_buffer": input_buffer,
                "psum_buffer": psum_buffer,
                "edram": edram,
                "router": router,
                "quantization": quantization,
            },
        )

    def model_energy(self, shapes: ModelShapes, batch_size: int = 1) -> EnergyBreakdown:
        """Energy breakdown of a whole DNN for ``batch_size`` input samples."""
        total = EnergyBreakdown(name=f"{shapes.name}@{self.arch.name}")
        for actions in count_model_actions(shapes, self.arch):
            total.add(self.layer_energy(actions))
        if batch_size != 1:
            total = total.scaled(batch_size)
            total.name = f"{shapes.name}@{self.arch.name}x{batch_size}"
        return total
