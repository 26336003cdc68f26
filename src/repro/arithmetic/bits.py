"""Bit-level helpers: slicing operands into groups of bits.

PIM architectures cannot process full 8-bit operands in a single analog step.
Instead they *slice* operands into groups of bits (Section 2.3 of the paper):
weight slices are laid out spatially across crossbar columns and input slices
are fed temporally over multiple cycles.  This module provides the slicing
primitives, including the signed crop ``D(h, l, x)`` used by the
Center+Offset optimisation (Eq. 2), and the bit-density statistics behind
Fig. 8 of the paper.

All functions are vectorised over NumPy arrays and operate on integer dtypes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "unsigned_slices",
    "signed_crop",
    "bit_density",
]


def _as_int_array(values: np.ndarray | Sequence[int]) -> np.ndarray:
    """Return ``values`` as an int64 NumPy array (copying only if needed)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in ("i", "u"):
        if arr.dtype.kind == "f" and not np.allclose(arr, np.round(arr)):
            raise TypeError("bit operations require integer-valued inputs")
        arr = np.round(arr).astype(np.int64)
    return arr.astype(np.int64, copy=False)


def _validate_widths(
    widths: Sequence[int], total_bits: int | None = None
) -> tuple[int, ...]:
    """Validate a slice-width specification (most-significant slice first)."""
    widths = tuple(int(w) for w in widths)
    if not widths:
        raise ValueError("at least one slice width is required")
    if any(w <= 0 for w in widths):
        raise ValueError(f"slice widths must be positive, got {widths}")
    if total_bits is not None and sum(widths) != total_bits:
        raise ValueError(
            f"slice widths {widths} sum to {sum(widths)}, expected {total_bits}"
        )
    return widths


def slice_shifts(widths: Sequence[int]) -> tuple[int, ...]:
    """Return the LSB bit position of each slice, most-significant slice first.

    For widths ``(4, 2, 2)`` the slices cover bits ``[7..4], [3..2], [1..0]``
    so the shifts are ``(4, 2, 0)``.
    """
    widths = _validate_widths(widths)
    total = sum(widths)
    shifts = []
    consumed = 0
    for width in widths:
        consumed += width
        shifts.append(total - consumed)
    return tuple(shifts)


def unsigned_slices(
    values: np.ndarray | Sequence[int], widths: Sequence[int]
) -> list[np.ndarray]:
    """Slice unsigned integers into bit groups.

    Parameters
    ----------
    values:
        Array of non-negative integers representable in ``sum(widths)`` bits.
    widths:
        Bits per slice, most-significant slice first (e.g. ``(4, 2, 2)``).

    Returns
    -------
    list of arrays, one per slice (most-significant first).  Slice ``i`` holds
    the bits ``[shift_i + width_i - 1 .. shift_i]`` of each value, shifted so
    that its own LSB is bit 0.
    """
    arr = _as_int_array(values)
    widths = _validate_widths(widths)
    total = sum(widths)
    if np.any(arr < 0):
        raise ValueError("unsigned_slices requires non-negative values")
    if np.any(arr >= (1 << total)):
        raise ValueError(f"values exceed {total}-bit unsigned range")
    out = []
    for width, shift in zip(widths, slice_shifts(widths)):
        mask = (1 << width) - 1
        out.append(((arr >> shift) & mask).astype(np.int64))
    return out


def signed_crop(values: np.ndarray | Sequence[int], high: int, low: int) -> np.ndarray:
    """The paper's slicing function ``D(h, l, x)``.

    Crops signed integers to the bits between indices ``high`` and ``low``
    (inclusive, ``high >= low``), shifted so bit ``low`` becomes the LSB, and
    preserves the sign of the original value: ``D(h, l, x) = sign(x) *
    ((|x| >> l) & mask)`` where ``mask`` has ``h - l + 1`` ones.
    """
    if high < low:
        raise ValueError(f"high ({high}) must be >= low ({low})")
    if low < 0:
        raise ValueError(f"low ({low}) must be non-negative")
    arr = _as_int_array(values)
    width = high - low + 1
    mask = (1 << width) - 1
    magnitude = (np.abs(arr) >> low) & mask
    return (np.sign(arr) * magnitude).astype(np.int64)


def bit_density(values: np.ndarray | Sequence[int], n_bits: int = 8) -> np.ndarray:
    """Per-bit density: probability that each bit position is 1.

    Used to reproduce Fig. 8 of the paper.  Bit position 0 is the LSB.  Signed
    inputs are measured on their magnitudes (sign-magnitude view), matching the
    way offsets are programmed into crossbars.
    """
    if n_bits <= 0:
        raise ValueError("n_bits must be positive")
    arr = np.abs(_as_int_array(values)).ravel()
    if arr.size == 0:
        raise ValueError("bit_density requires at least one value")
    densities = np.empty(n_bits, dtype=np.float64)
    for bit in range(n_bits):
        densities[bit] = np.mean((arr >> bit) & 1)
    return densities
