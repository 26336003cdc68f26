"""Bit-slicing and quantization substrate.

This subpackage implements the arithmetic building blocks the rest of the
library relies on:

* :mod:`repro.arithmetic.bits` -- bit manipulation: slicing unsigned and signed
  integers into groups of bits, the signed crop ``D(h, l, x)`` from the paper's
  Eq. (2), bit-density statistics, and reassembly of sliced values.
* :mod:`repro.arithmetic.slicing` -- the :class:`Slicing` value type describing
  how an 8-bit operand is partitioned into slices, enumeration of all legal
  slicings, and the named slicings used by RAELLA and the baselines.
* :mod:`repro.arithmetic.quantize` -- 8-bit per-channel and per-tensor affine
  quantization and dequantization.
"""

from repro.arithmetic.bits import (
    bit_density,
    signed_crop,
    unsigned_slices,
)
from repro.arithmetic.quantize import (
    QuantizationParams,
    dequantize,
    quantize_per_channel,
    quantize_tensor,
)
from repro.arithmetic.slicing import (
    ISAAC_INPUT_SLICING,
    ISAAC_WEIGHT_SLICING,
    RAELLA_RECOVERY_INPUT_SLICING,
    RAELLA_SPECULATIVE_INPUT_SLICING,
    Slicing,
    enumerate_slicings,
)

__all__ = [
    "bit_density",
    "signed_crop",
    "unsigned_slices",
    "QuantizationParams",
    "dequantize",
    "quantize_per_channel",
    "quantize_tensor",
    "Slicing",
    "enumerate_slicings",
    "ISAAC_INPUT_SLICING",
    "ISAAC_WEIGHT_SLICING",
    "RAELLA_SPECULATIVE_INPUT_SLICING",
    "RAELLA_RECOVERY_INPUT_SLICING",
]
