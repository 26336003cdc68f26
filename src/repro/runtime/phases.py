"""Batched input-phase slice extraction in a narrow code dtype.

The per-phase executor calls
:func:`repro.core.dynamic_input.extract_input_slice` once per phase (11 times
per chunk with RAELLA's speculative schedule).  Here the whole schedule is
materialised at once: broadcasting the plan's shift and mask vectors over the
input codes yields the ``(n_phases, M, rows)`` tensor of every bit-plane slice
in a single NumPy expression.

The codes are cast once to the narrowest unsigned dtype holding
``input_bits`` bits (``uint8`` for RAELLA's 8-bit inputs) and every shift and
mask runs in that dtype.  The cast is exact for the slices: it keeps the low
bits of each code, and every phase reads only bits below ``input_bits``.

Activation dtype contract: the model path carries ``uint8`` codes from
quantization to :meth:`~repro.core.executor.PimLayerExecutor.matmul`, which
validates once per layer call and hands every row chunk unsigned codes
(splitting signed inputs into magnitudes), so :func:`narrow_codes` passes
``uint8`` chunks through without a sign check or cast.

:func:`pack_planes` builds the noiseless fast path's packed operand: two
planes per ``uint16`` value, one in the low :data:`PACKED_FIELD_BITS` bits
and one above them, so a single GEMM row carries both planes' products.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.dynamic_input import InputSlicePlan

__all__ = [
    "PACKED_FIELD_BITS",
    "extract_phase_tensor",
    "narrow_codes",
    "pack_planes",
    "plan_shift_masks",
    "slice_phases",
]

#: Bit offset of the second plane in a packed operand value (a 4096 factor).
PACKED_FIELD_BITS = 12


@lru_cache(maxsize=None)
def plan_shift_masks(plan: InputSlicePlan) -> tuple[np.ndarray, np.ndarray]:
    """Per-phase shift and mask vectors of a plan (treat as read-only).

    Both are in the plan's narrow code dtype: ``uint8`` for inputs of up to
    8 bits, ``uint16`` up to 16.
    """
    input_bits = plan.speculative_slicing.total_bits
    if input_bits > 16:
        raise ValueError(f"inputs of {input_bits} bits exceed the 16-bit code path")
    dtype = np.uint8 if input_bits <= 8 else np.uint16
    shifts = np.array([phase.shift for phase in plan.phases], dtype=dtype)
    masks = np.array([(1 << phase.width) - 1 for phase in plan.phases], dtype=dtype)
    shifts.setflags(write=False)
    masks.setflags(write=False)
    return shifts, masks


def narrow_codes(codes: np.ndarray, dtype: type) -> np.ndarray:
    """Validate non-negative input codes and cast them to ``dtype``.

    Codes already in ``dtype`` pass through untouched.
    """
    codes = np.asarray(codes)
    if codes.dtype == dtype:
        return codes
    if np.any(codes < 0):
        raise ValueError(
            "input codes must be non-negative; signed inputs are split into "
            "positive/negative magnitudes before slicing"
        )
    return codes.astype(dtype)


def slice_phases(
    codes: np.ndarray, shifts: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """Every phase's slice of ``(M, rows)`` codes: ``(n_phases, M, rows)``.

    ``shifts``/``masks`` are a plan's tables (:func:`plan_shift_masks`); the
    result has their narrow dtype.
    """
    codes = narrow_codes(codes, shifts.dtype)
    return (codes[np.newaxis, :, :] >> shifts[:, np.newaxis, np.newaxis]) & (
        masks[:, np.newaxis, np.newaxis]
    )


@lru_cache(maxsize=None)
def _shared_pair_gap(shifts: tuple, masks: tuple) -> int | None:
    """The one shift gap of every plane pair of ``uint8`` codes, if it exists.

    ``gap = shifts[j] - shifts[j + h]`` for every pair ``j`` when the plane
    count is even, every plane has one mask and every high plane
    ``j + h`` reads only the low ``16 - PACKED_FIELD_BITS`` bits of a code
    (speculative and bit-serial plans of 8-bit inputs do); else ``None``.
    """
    half = len(shifts) // 2
    gaps = {low - high for low, high in zip(shifts[:half], shifts[half:])}
    width = int(masks[0]).bit_length()
    if (
        len(shifts) % 2
        or len(set(masks)) != 1
        or len(gaps) != 1
        or min(gaps) < 0
        or max(shifts[half:]) + width > 16 - PACKED_FIELD_BITS
    ):
        return None
    return gaps.pop()


def pack_planes(codes: np.ndarray, shifts: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Two planes per value: ``(ceil(n/2), M, rows)`` ``uint16``, ``n = len(shifts)``.

    Entry ``[j, i, r]`` is ``plane_j + 2**PACKED_FIELD_BITS * plane_(j+h)``
    with ``h = ceil(n/2)``, where ``plane_b = (codes >> shifts[b]) &
    masks[b]``; for odd ``n`` the middle plane ``j = h - 1`` rides alone.
    ``codes`` are the ``(M, rows)`` unsigned codes; every mask must be at
    most 15 so a packed value fits ``uint16``.

    When every pair of ``uint8`` codes shares one shift gap
    (:func:`_shared_pair_gap`), both planes of pair ``j`` are read from one
    value per code, ``(codes << 12) | (codes >> gap)``, shifted right by
    ``shifts[j + h]`` and masked: two passes per pair instead of six.
    """
    half = (len(shifts) + 1) // 2
    wide = codes.astype(np.uint16)
    gap = (
        _shared_pair_gap(tuple(shifts.tolist()), tuple(masks.tolist()))
        if codes.dtype == np.uint8
        else None
    )
    if gap is not None:
        both = wide << PACKED_FIELD_BITS
        both |= wide >> gap
        packed = both[np.newaxis] >> shifts[half:, np.newaxis, np.newaxis]
        packed &= int(masks[0]) * ((1 << PACKED_FIELD_BITS) + 1)
        return packed
    wide = wide[np.newaxis]
    packed = (wide >> shifts[:half, np.newaxis, np.newaxis]) & (
        masks[:half, np.newaxis, np.newaxis]
    )
    high = (wide >> shifts[half:, np.newaxis, np.newaxis]) & (
        masks[half:, np.newaxis, np.newaxis]
    )
    high <<= PACKED_FIELD_BITS
    packed[: len(high)] |= high
    return packed


def extract_phase_tensor(codes: np.ndarray, plan: InputSlicePlan) -> np.ndarray:
    """All input slices of a batch in one shot: ``(n_phases, M, rows)``.

    ``codes`` is the non-negative ``(M, rows)`` input-code matrix; entry
    ``[p, i, r]`` is the value phase ``p`` feeds to the DAC of row ``r`` for
    input ``i``.  Identical to stacking ``extract_input_slice`` over the
    plan's phases.
    """
    return slice_phases(codes, *plan_shift_masks(plan))
