"""Dynamic Input Slicing: speculation and recovery scheduling (Section 4.3).

RAELLA feeds inputs to crossbars in *phases*.  With speculation enabled, each
of the three speculative slices (4b-2b-2b by default) is followed by its own
bit-serial recovery cycles: the speculative slice is re-sliced into 1-bit
slices, and ADCs re-convert only the columns whose speculative conversion
saturated.  Without speculation, all eight 1-bit slices are processed and every
column is converted in every cycle.

This module turns an input slicing into the ordered list of
:class:`InputPhase` objects the executor iterates over, and provides the
per-phase slice extraction.  Signed inputs (e.g. BERT activations) are handled
by the executor, which runs the positive and negative magnitudes in separate
passes (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from repro.arithmetic.slicing import (
    ISAAC_INPUT_SLICING,
    RAELLA_SPECULATIVE_INPUT_SLICING,
    Slicing,
)

__all__ = ["SpeculationMode", "InputPhase", "InputSlicePlan", "extract_input_slice"]


class SpeculationMode(Enum):
    """Whether Dynamic Input Slicing speculation is enabled."""

    SPECULATIVE = "speculative"
    BIT_SERIAL = "bit_serial"


@dataclass(frozen=True)
class InputPhase:
    """One crossbar cycle's worth of input slicing.

    Attributes
    ----------
    kind:
        ``"speculative"``, ``"recovery"`` or ``"serial"``.
    width:
        Bits in this phase's input slice.
    shift:
        Bit position of the slice's LSB within the full input operand.
    parent:
        For recovery phases, the index (within the plan's speculative phases)
        of the speculative slice being recovered; ``None`` otherwise.
    """

    kind: str
    width: int
    shift: int
    parent: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("speculative", "recovery", "serial"):
            raise ValueError(f"unknown phase kind {self.kind!r}")
        if self.width <= 0 or self.shift < 0:
            raise ValueError("phase width must be positive and shift non-negative")

    @property
    def magnitude_shift(self) -> int:
        """Shift applied to this phase's converted column sums."""
        return self.shift


@dataclass(frozen=True)
class InputSlicePlan:
    """The ordered input phases for one layer execution.

    With speculation (the default 4b-2b-2b slicing) the plan is::

        spec[7..4], rec bit7, rec bit6, rec bit5, rec bit4,
        spec[3..2], rec bit3, rec bit2,
        spec[1..0], rec bit1, rec bit0

    i.e. 3 speculative + 8 recovery = 11 cycles (Section 6.1.1).  Without
    speculation the plan is the 8 bit-serial cycles.
    """

    mode: SpeculationMode
    speculative_slicing: Slicing
    phases: tuple[InputPhase, ...]

    @classmethod
    @lru_cache(maxsize=None)
    def build(
        cls,
        mode: SpeculationMode = SpeculationMode.SPECULATIVE,
        speculative_slicing: Slicing = RAELLA_SPECULATIVE_INPUT_SLICING,
        input_bits: int = 8,
        serial_slicing: Slicing | None = None,
    ) -> "InputSlicePlan":
        """Build the phase schedule for the given mode.

        Plans are immutable, so equal arguments share one cached plan.
        """
        if mode is SpeculationMode.BIT_SERIAL:
            slicing = serial_slicing or Slicing((1,) * input_bits)
            if slicing.total_bits != input_bits:
                raise ValueError(
                    f"serial slicing covers {slicing.total_bits} bits, "
                    f"inputs have {input_bits}"
                )
            phases = tuple(
                InputPhase(kind="serial", width=w, shift=s)
                for w, s in zip(slicing.widths, slicing.shifts)
            )
            return cls(mode=mode, speculative_slicing=slicing, phases=phases)
        if speculative_slicing.total_bits != input_bits:
            raise ValueError(
                f"speculative slicing covers {speculative_slicing.total_bits} bits, "
                f"inputs have {input_bits}"
            )
        phases: list[InputPhase] = []
        for idx, (width, shift) in enumerate(
            zip(speculative_slicing.widths, speculative_slicing.shifts)
        ):
            phases.append(
                InputPhase(kind="speculative", width=width, shift=shift, parent=idx)
            )
            for bit in reversed(range(width)):
                phases.append(
                    InputPhase(kind="recovery", width=1, shift=shift + bit, parent=idx)
                )
        return cls(
            mode=mode, speculative_slicing=speculative_slicing, phases=tuple(phases)
        )

    @property
    def n_cycles(self) -> int:
        """Crossbar cycles per full input presentation (11 with speculation)."""
        return len(self.phases)

    @property
    def n_speculative(self) -> int:
        """Number of speculative phases."""
        return sum(1 for p in self.phases if p.kind == "speculative")

    @property
    def n_recovery(self) -> int:
        """Number of recovery phases."""
        return sum(1 for p in self.phases if p.kind == "recovery")

    @property
    def adc_converting_phases(self) -> tuple[InputPhase, ...]:
        """Phases in which ADCs convert every column (speculative / serial)."""
        return tuple(p for p in self.phases if p.kind != "recovery")


def extract_input_slice(input_codes: np.ndarray, phase: InputPhase) -> np.ndarray:
    """Extract the (non-negative) slice values a phase feeds to the DACs."""
    codes = np.asarray(input_codes, dtype=np.int64)
    if np.any(codes < 0):
        raise ValueError(
            "input codes must be non-negative; signed inputs are split into "
            "positive/negative magnitudes before slicing"
        )
    mask = (1 << phase.width) - 1
    return (codes >> phase.shift) & mask


#: ISAAC's input plan: eight 1-bit serial cycles.
ISAAC_INPUT_PLAN = InputSlicePlan.build(
    mode=SpeculationMode.BIT_SERIAL, serial_slicing=ISAAC_INPUT_SLICING
)
