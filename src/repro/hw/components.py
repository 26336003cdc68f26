"""Per-action energy of hardware components.

Constants follow the sources the paper uses: the Kull et al. 8-bit SAR ADC
(ISAAC's ADC) scaled across resolutions following Saberi et al., pulse-train
DACs and ReRAM crossbars modelled after NeuroSim with TIMELY's device
parameters (0.2 V read, 1 kOhm on-resistance), SRAM buffers after CACTI and
eDRAM/router numbers from ISAAC.  Values are architecture-level estimates --
the goal is to reproduce the paper's accounting methodology and relative
results, not SPICE-level accuracy.

All energies are in picojoules (pJ) per action, at the 32 nm node unless
scaled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ComponentLibrary", "TechnologyNode"]


@dataclass(frozen=True)
class TechnologyNode:
    """The technology node a component library's constants are expressed at.

    Only the 65 nm TIMELY comparison, where the paper rebuilds RAELLA with
    TIMELY's components, departs from 32 nm.
    """

    feature_nm: float = 32.0


@dataclass(frozen=True)
class ComponentLibrary:
    """Energy constants for one technology node and circuit family.

    The defaults model the 32 nm components shared by RAELLA, ISAAC and FORMS
    in the paper's apples-to-apples comparison.  ``for_timely_components``
    builds the 65 nm variant with TIMELY's analog front end (time-domain
    converters instead of SAR ADCs).
    """

    name: str = "32nm"
    technology: TechnologyNode = field(default_factory=TechnologyNode)

    # -- ADC -----------------------------------------------------------------
    #: Energy of one 8-bit conversion (Kull SAR ADC, ~3.1 mW at 1.2 GS/s).
    adc_energy_8b_pj: float = 2.0
    #: Resolution scaling base: E(b) = E(8) * base**(b - 8).  SAR converter
    #: energy scales between linearly and exponentially with resolution in the
    #: 6-9 bit regime (Saberi et al.); 1.3/bit is the effective value that
    #: calibrates the ISAAC baseline against its published breakdown.
    adc_resolution_energy_base: float = 1.3

    # -- DAC / row drivers -----------------------------------------------------
    #: Energy per emitted input pulse (flip-flop + AND + row driver).
    dac_energy_per_pulse_pj: float = 0.0008

    # -- ReRAM crossbar --------------------------------------------------------
    #: Energy of one device conducting at full (on-state) conductance for one
    #: 1 ns pulse: V^2 * G_on * t = 0.2^2 * 1e-3 * 1e-9 = 40 fJ.
    reram_energy_per_device_pulse_pj: float = 0.04

    # -- Column periphery ------------------------------------------------------
    #: Sample+hold plus current buffer, per column per cycle.
    column_periphery_energy_pj: float = 0.005

    # -- Digital ---------------------------------------------------------------
    #: Shift+add of one converted column sum into a psum.
    shift_add_energy_pj: float = 0.05
    #: Requantization (scale, bias, clamp) of one 8-bit output.
    quantize_energy_pj: float = 0.05
    #: One digital addition for the running input sum (Center+Offset).
    center_add_energy_pj: float = 0.003
    #: One multiply/subtract applying a center to a psum.
    center_apply_energy_pj: float = 0.03

    # -- Memories ---------------------------------------------------------------
    #: SRAM (input / psum / weight-center buffers), per byte accessed.
    sram_energy_per_byte_pj: float = 0.10
    #: Tile eDRAM buffer, per byte accessed.
    edram_energy_per_byte_pj: float = 0.5
    #: On-chip router/network, per byte moved between tiles.
    router_energy_per_byte_pj: float = 1.2

    def adc_energy_pj(self, bits: int) -> float:
        """Energy of one conversion at the given resolution.

        Library constants are already expressed at the library's technology
        node, so only the resolution scaling is applied here.
        """
        if not 1 <= bits <= 16:
            raise ValueError("ADC resolution must be in [1, 16]")
        return self.adc_energy_8b_pj * self.adc_resolution_energy_base ** (bits - 8)

    def scaled(self, factor: float) -> "ComponentLibrary":
        """Return a copy with all energies multiplied by ``factor``."""
        from dataclasses import replace

        fields_to_scale = [
            "adc_energy_8b_pj",
            "dac_energy_per_pulse_pj",
            "reram_energy_per_device_pulse_pj",
            "column_periphery_energy_pj",
            "shift_add_energy_pj",
            "quantize_energy_pj",
            "center_add_energy_pj",
            "center_apply_energy_pj",
            "sram_energy_per_byte_pj",
            "edram_energy_per_byte_pj",
            "router_energy_per_byte_pj",
        ]
        return replace(self, **{f: getattr(self, f) * factor for f in fields_to_scale})

    @classmethod
    def for_timely_components(cls) -> "ComponentLibrary":
        """65 nm library with TIMELY's analog front end.

        TIMELY replaces SAR ADCs with time-domain converters (TDCs), input
        adders and analog local buffers (charging + comparator), making each
        conversion and each psum accumulation cheaper, while digital logic and
        memories pay the 65 nm energy penalty.
        """
        node = TechnologyNode(feature_nm=65.0)
        return cls(
            name="65nm_timely",
            technology=node,
            # TDC-based conversion: cheaper per convert than a SAR ADC even at
            # the older node.
            adc_energy_8b_pj=1.6,
            adc_resolution_energy_base=1.7,
            dac_energy_per_pulse_pj=0.0016,
            reram_energy_per_device_pulse_pj=0.04,
            column_periphery_energy_pj=0.006,
            # Analog local accumulation replaces most per-convert digital work.
            shift_add_energy_pj=0.05,
            quantize_energy_pj=0.1,
            center_add_energy_pj=0.006,
            center_apply_energy_pj=0.06,
            sram_energy_per_byte_pj=0.25,
            edram_energy_per_byte_pj=1.0,
            router_energy_per_byte_pj=2.4,
        )
