"""Slicing descriptions: how an operand's bits are partitioned into slices.

A :class:`Slicing` is an ordered tuple of slice widths, most-significant slice
first.  RAELLA's Adaptive Weight Slicing chooses one slicing per DNN layer out
of all compositions of 8 bits into parts of at most 4 bits (108 options,
Section 4.2.2); its Dynamic Input Slicing switches between an aggressive
3-slice speculative slicing and a conservative 8x1-bit recovery slicing at
runtime (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from repro.arithmetic.bits import slice_shifts, unsigned_slices

__all__ = [
    "Slicing",
    "enumerate_slicings",
    "ISAAC_WEIGHT_SLICING",
    "ISAAC_INPUT_SLICING",
    "RAELLA_DEFAULT_WEIGHT_SLICING",
    "RAELLA_SPECULATIVE_INPUT_SLICING",
    "RAELLA_RECOVERY_INPUT_SLICING",
]


@dataclass(frozen=True)
class Slicing:
    """An ordered partition of an operand's bits into slices.

    Parameters
    ----------
    widths:
        Bits per slice, most-significant slice first.  ``Slicing((4, 2, 2))``
        describes an 8-bit operand split into a 4-bit high slice and two 2-bit
        low slices -- the slicing most RAELLA layers use for weights (Fig. 7).
    """

    widths: tuple[int, ...]

    def __init__(self, widths: Sequence[int]):
        widths = tuple(int(w) for w in widths)
        if not widths:
            raise ValueError("a Slicing needs at least one slice")
        if any(w <= 0 for w in widths):
            raise ValueError(f"slice widths must be positive, got {widths}")
        object.__setattr__(self, "widths", widths)

    @property
    def n_slices(self) -> int:
        """Number of slices."""
        return len(self.widths)

    @property
    def total_bits(self) -> int:
        """Total operand width covered by the slicing."""
        return sum(self.widths)

    @property
    def shifts(self) -> tuple[int, ...]:
        """LSB bit position of each slice (most-significant slice first)."""
        return slice_shifts(self.widths)

    @property
    def max_slice_bits(self) -> int:
        """Width of the widest slice."""
        return max(self.widths)

    def slice_unsigned(self, values: np.ndarray) -> list[np.ndarray]:
        """Slice unsigned integer values according to this slicing."""
        return unsigned_slices(values, self.widths)

    def __iter__(self) -> Iterator[int]:
        return iter(self.widths)

    def __len__(self) -> int:
        return self.n_slices

    def __str__(self) -> str:
        return "-".join(f"{w}b" for w in self.widths)


@lru_cache(maxsize=None)
def enumerate_slicings(
    total_bits: int = 8, max_slice_bits: int = 4
) -> tuple[Slicing, ...]:
    """Enumerate every slicing of ``total_bits`` with slices of at most ``max_slice_bits``.

    For 8-bit operands and 4-bit devices this yields the 108 slicings the paper
    iterates over when choosing a layer's weight slicing (Section 4.2.2).
    Slicings are returned sorted by (number of slices, widths) so that the
    densest (fewest-slice) options come first.
    """
    if total_bits <= 0:
        raise ValueError("total_bits must be positive")
    if max_slice_bits <= 0:
        raise ValueError("max_slice_bits must be positive")

    def compositions(remaining: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(1, min(max_slice_bits, remaining) + 1):
            for rest in compositions(remaining - first):
                yield (first,) + rest

    slicings = [Slicing(widths) for widths in compositions(total_bits)]
    slicings.sort(key=lambda s: (s.n_slices, s.widths))
    return tuple(slicings)


#: ISAAC stores weights as four 2-bit slices across columns (Section 7).
ISAAC_WEIGHT_SLICING = Slicing((2, 2, 2, 2))

#: ISAAC feeds inputs bit-serially: eight 1-bit input slices.
ISAAC_INPUT_SLICING = Slicing((1,) * 8)

#: Most RAELLA layers settle on a 4b-2b-2b weight slicing (Fig. 7).
RAELLA_DEFAULT_WEIGHT_SLICING = Slicing((4, 2, 2))

#: RAELLA speculates with three input slices of 4, 2 and 2 bits (Section 4.3).
RAELLA_SPECULATIVE_INPUT_SLICING = Slicing((4, 2, 2))

#: RAELLA recovers with the most conservative eight 1-bit input slices.
RAELLA_RECOVERY_INPUT_SLICING = Slicing((1,) * 8)
