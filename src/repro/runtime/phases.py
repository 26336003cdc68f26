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
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.dynamic_input import InputSlicePlan

__all__ = ["extract_phase_tensor", "narrow_codes", "plan_shift_masks", "slice_phases"]


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


def extract_phase_tensor(codes: np.ndarray, plan: InputSlicePlan) -> np.ndarray:
    """All input slices of a batch in one shot: ``(n_phases, M, rows)``.

    ``codes`` is the non-negative ``(M, rows)`` input-code matrix; entry
    ``[p, i, r]`` is the value phase ``p`` feeds to the DAC of row ``r`` for
    input ``i``.  Identical to stacking ``extract_input_slice`` over the
    plan's phases.
    """
    return slice_phases(codes, *plan_shift_masks(plan))
