"""Architecture specifications and workload operand statistics.

An :class:`ArchitectureSpec` captures everything the analytical cost model
needs to know about an accelerator: crossbar geometry, ADC resolution, how
weights and inputs are sliced, how many cycles and conversions one input
presentation takes, and the chip-level organisation (crossbars per IMA, IMAs
per tile, tiles per chip).  Predefined specs model RAELLA (with and without
speculation), ISAAC, FORMS-8 and TIMELY as evaluated in the paper.

:class:`OperandStatistics` carries the data-dependent factors (input bit
density, average programmed conductance, speculation failure rate) that the
energy model scales data-dependent components with.  Defaults correspond to
the bell-curve weight / right-skewed activation statistics of Fig. 8; they can
also be calibrated from a functional run
(:meth:`OperandStatistics.from_layer_statistics`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.hw.components import ComponentLibrary

__all__ = [
    "OperandStatistics",
    "ArchitectureSpec",
    "RAELLA_ARCH",
    "RAELLA_NO_SPEC_ARCH",
    "ISAAC_ARCH",
    "FORMS_ARCH",
    "TIMELY_ARCH",
    "RAELLA_65NM_ARCH",
    "RAELLA_65NM_NO_SPEC_ARCH",
]


@dataclass(frozen=True)
class OperandStatistics:
    """Data-dependent workload factors used by the analytical cost model."""

    #: Expected DAC pulses needed to stream one 8-bit input operand across
    #: *all* the streams it is presented in (speculation + recovery for
    #: RAELLA; a single bit-serial pass for ISAAC).
    avg_input_pulses_per_operand: float = 8.4
    #: Fraction of input operands that are non-zero.
    input_nonzero_fraction: float = 0.65
    #: Average programmed device conductance as a fraction of the on-state
    #: conductance.  Center+Offset offsets are small (sparse high bits), so
    #: RAELLA's devices sit near the low-conductance end.
    weight_conductance_fraction: float = 0.18
    #: Fraction of speculative conversions that saturate and need recovery.
    speculation_failure_rate: float = 0.02

    def __post_init__(self) -> None:
        if self.avg_input_pulses_per_operand < 0:
            raise ValueError("pulse count must be non-negative")
        if not 0 <= self.input_nonzero_fraction <= 1:
            raise ValueError("input_nonzero_fraction must be in [0, 1]")
        if not 0 <= self.weight_conductance_fraction <= 1:
            raise ValueError("weight_conductance_fraction must be in [0, 1]")
        if not 0 <= self.speculation_failure_rate <= 1:
            raise ValueError("speculation_failure_rate must be in [0, 1]")

    @classmethod
    def from_layer_statistics(cls, stats, macs_per_presentation_row: float = 1.0):
        """Calibrate statistics from functional :class:`LayerStatistics`.

        ``stats`` is a :class:`repro.core.executor.LayerStatistics` aggregate.
        Only the speculation failure rate and an activity-derived conductance
        fraction can be inferred; other fields keep their defaults.
        """
        failure = stats.speculation_failure_rate
        kwargs = {
            "speculation_failure_rate": failure
        } if stats.speculation_slots else {}
        return cls(**kwargs)

    #: Unsigned ISAAC-style weights have dense high-order bits, so the average
    #: programmed conductance is much higher than with offset encodings.
    @classmethod
    def for_unsigned_weights(cls) -> "OperandStatistics":
        """Statistics for architectures storing raw unsigned weight codes.

        Bit-serial 1-bit input slices need one pulse per set input bit
        (about 2.4 pulses per right-skewed 8-bit operand).
        """
        return cls(
            avg_input_pulses_per_operand=2.4,
            weight_conductance_fraction=0.45,
        )

    @classmethod
    def for_bit_serial_offsets(cls) -> "OperandStatistics":
        """Statistics for offset-encoded weights with bit-serial inputs."""
        return cls(avg_input_pulses_per_operand=2.4)


@dataclass(frozen=True)
class ArchitectureSpec:
    """Static description of a PIM accelerator for the analytical cost model."""

    name: str
    # Crossbar geometry.
    crossbar_rows: int = 512
    crossbar_cols: int = 512
    cell_devices: int = 2  # 2T2R
    adc_bits: int = 7
    adcs_per_crossbar: int = 4
    # Slicing.
    typical_weight_slices: int = 3
    last_layer_weight_slices: int = 8
    input_bits: int = 8
    # Input presentation schedule.
    converting_cycles_per_presentation: float = 3.0
    cycles_per_presentation: int = 11
    input_streams: int = 2  # inputs streamed for speculation and for recovery
    speculative: bool = True
    # Chip organisation (ISAAC-style hierarchy).
    crossbars_per_ima: int = 4
    imas_per_tile: int = 8
    n_tiles: int = 743
    edram_kb_per_tile: int = 64
    cycle_time_ns: float = 100.0
    # Mapping features / workload transformations.
    supports_toeplitz: bool = True
    mac_reduction_factor: float = 1.0  # >1 for pruned (Weight-Count-Limited) designs
    uses_center_offset: bool = True
    unsigned_weights: bool = False
    # Metadata for Table 3.
    requires_retraining: bool = False
    fidelity_loss: str = "low"
    limits_weight_count: bool = False
    components: ComponentLibrary = field(default_factory=ComponentLibrary)
    operand_stats: OperandStatistics = field(default_factory=OperandStatistics)

    def __post_init__(self) -> None:
        if min(
            self.crossbar_rows,
            self.crossbar_cols,
            self.adcs_per_crossbar,
            self.crossbars_per_ima,
            self.imas_per_tile,
            self.n_tiles,
        ) <= 0:
            raise ValueError("architecture dimensions must be positive")
        if self.mac_reduction_factor < 1.0:
            raise ValueError("mac_reduction_factor must be >= 1")

    # -- derived quantities ------------------------------------------------------

    @property
    def crossbars_per_tile(self) -> int:
        """Crossbars in one tile."""
        return self.crossbars_per_ima * self.imas_per_tile

    @property
    def total_crossbars(self) -> int:
        """Crossbars on the whole chip."""
        return self.crossbars_per_tile * self.n_tiles

    def weight_slices_for_layer(self, layer_index: int, n_layers: int) -> int:
        """Weight slices used by a layer (last layer is most conservative)."""
        if n_layers > 1 and layer_index == n_layers - 1:
            return self.last_layer_weight_slices
        return self.typical_weight_slices

    def converts_per_column_per_presentation(self) -> float:
        """Expected ADC conversions of one column for one input presentation."""
        if not self.speculative:
            return float(self.converting_cycles_per_presentation)
        expected_recovery = (
            self.operand_stats.speculation_failure_rate * self.input_bits
        )
        return float(self.converting_cycles_per_presentation) + expected_recovery

    def with_changes(self, **kwargs) -> "ArchitectureSpec":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


#: RAELLA as evaluated in Section 6: 512x512 2T2R crossbars, 7-bit ADC,
#: Center+Offset, adaptive weight slicing (3 slices typical), speculation.
RAELLA_ARCH = ArchitectureSpec(name="raella")

#: RAELLA with Dynamic Input Slicing speculation disabled: eight bit-serial
#: input cycles, every column converted each cycle.
RAELLA_NO_SPEC_ARCH = RAELLA_ARCH.with_changes(
    name="raella_no_spec",
    speculative=False,
    converting_cycles_per_presentation=8.0,
    cycles_per_presentation=8,
    input_streams=1,
    operand_stats=OperandStatistics.for_bit_serial_offsets(),
)

#: The 8-bit ISAAC baseline of Section 6.1.2: 128x128 1T1R crossbars, 8-bit
#: ADC, four 2-bit weight slices, eight 1-bit input slices, 1024 tiles.
ISAAC_ARCH = ArchitectureSpec(
    name="isaac",
    crossbar_rows=128,
    crossbar_cols=128,
    cell_devices=1,
    adc_bits=8,
    adcs_per_crossbar=1,
    typical_weight_slices=4,
    last_layer_weight_slices=4,
    converting_cycles_per_presentation=8.0,
    cycles_per_presentation=8,
    input_streams=1,
    speculative=False,
    n_tiles=1024,
    crossbars_per_ima=8,
    imas_per_tile=12,
    supports_toeplitz=True,
    uses_center_offset=False,
    unsigned_weights=True,
    requires_retraining=False,
    fidelity_loss="none",
    operand_stats=OperandStatistics.for_unsigned_weights(),
)

#: FORMS-8 (Weight-Count-Limited): ISAAC-like substrate with fine-grained
#: polarised pruning, modelled as a 2x MACs/DNN reduction (Section 2.6), no
#: partial-Toeplitz mapping, retraining required.
FORMS_ARCH = ISAAC_ARCH.with_changes(
    name="forms8",
    mac_reduction_factor=2.0,
    supports_toeplitz=False,
    requires_retraining=True,
    limits_weight_count=True,
)

#: TIMELY (Sum-Fidelity-Limited), 65 nm: very large analog accumulation with
#: time-domain converters, one cheap conversion per column per presentation,
#: two 4-bit weight slices, fidelity loss recovered by retraining.
TIMELY_ARCH = ArchitectureSpec(
    name="timely",
    crossbar_rows=256,
    crossbar_cols=256,
    cell_devices=1,
    adc_bits=8,
    adcs_per_crossbar=1,
    typical_weight_slices=2,
    last_layer_weight_slices=2,
    converting_cycles_per_presentation=1.0,
    cycles_per_presentation=8,
    input_streams=1,
    speculative=False,
    n_tiles=1024,
    supports_toeplitz=True,
    uses_center_offset=False,
    unsigned_weights=True,
    requires_retraining=True,
    fidelity_loss="high",
    components=ComponentLibrary.for_timely_components(),
    operand_stats=OperandStatistics(
        avg_input_pulses_per_operand=7.0, weight_conductance_fraction=0.45
    ),
)

#: RAELLA rebuilt with TIMELY's 65 nm analog components for the Fig. 13
#: comparison (Section 6.1).
RAELLA_65NM_ARCH = RAELLA_ARCH.with_changes(
    name="raella_65nm",
    components=ComponentLibrary.for_timely_components(),
)

#: The 65 nm RAELLA with speculation disabled -- the paper finds this the more
#: efficient configuration when the converter is already cheap (Section 6.4).
RAELLA_65NM_NO_SPEC_ARCH = RAELLA_65NM_ARCH.with_changes(
    name="raella_65nm_no_spec",
    speculative=False,
    converting_cycles_per_presentation=8.0,
    cycles_per_presentation=8,
    input_streams=1,
    operand_stats=OperandStatistics.for_bit_serial_offsets(),
)
