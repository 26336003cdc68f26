"""8-bit per-channel and per-tensor affine quantization.

RAELLA targets off-the-shelf 8-bit per-channel quantized DNNs with 16-bit
partial sums (Section 2.1).  This module implements that quantization scheme
for the NumPy DNN substrate:

* weights are quantized per output channel to unsigned 8-bit codes with a
  zero point (the crossbar stores unsigned codes; RAELLA's Center+Offset
  re-encodes them as ``center +- offset``),
* activations are quantized per tensor, unsigned for post-ReLU activations and
  signed for layers such as BERT's feed-forward blocks,
* layers accumulate integer partial sums and requantize them to 8-bit
  outputs (:class:`repro.nn.layers.MatmulLayer`), following the per-channel
  linear quantization of [Zhao et al., ICLR'20] referenced by the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantizationParams",
    "quantize_tensor",
    "quantize_per_channel",
    "dequantize",
]

#: Number of bits used for operands throughout the library.
OPERAND_BITS = 8


@dataclass(frozen=True)
class QuantizationParams:
    """Affine quantization parameters ``real = scale * (code - zero_point)``.

    ``scale`` and ``zero_point`` are scalars for per-tensor quantization or
    1-D arrays (one entry per output channel) for per-channel quantization.
    ``signed`` selects the code range: ``[-128, 127]`` if true, ``[0, 255]``
    otherwise.
    """

    scale: np.ndarray
    zero_point: np.ndarray
    signed: bool = False

    def __post_init__(self) -> None:
        scale = np.atleast_1d(np.asarray(self.scale, dtype=np.float64))
        zero_point = np.atleast_1d(np.asarray(self.zero_point, dtype=np.int64))
        if np.any(scale <= 0):
            raise ValueError("quantization scales must be positive")
        if scale.shape != zero_point.shape:
            raise ValueError("scale and zero_point must have the same shape")
        lo, hi = self.code_range_static(self.signed)
        if np.any(zero_point < lo) or np.any(zero_point > hi):
            raise ValueError("zero_point outside representable code range")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "zero_point", zero_point)

    @staticmethod
    def code_range_static(signed: bool) -> tuple[int, int]:
        """Return the (low, high) inclusive code range for 8-bit codes."""
        if signed:
            return -(1 << (OPERAND_BITS - 1)), (1 << (OPERAND_BITS - 1)) - 1
        return 0, (1 << OPERAND_BITS) - 1

    @property
    def code_range(self) -> tuple[int, int]:
        """Inclusive (low, high) code range."""
        return self.code_range_static(self.signed)

    @property
    def per_channel(self) -> bool:
        """Whether parameters are per-channel (more than one scale)."""
        return self.scale.size > 1


def _broadcast_params(
    params: QuantizationParams, values: np.ndarray, channel_axis: int
) -> tuple[np.ndarray, np.ndarray]:
    """Broadcast per-channel scale/zero_point along ``channel_axis``."""
    if not params.per_channel:
        return params.scale.reshape(()), params.zero_point.reshape(())
    if values.shape[channel_axis] != params.scale.size:
        raise ValueError(
            f"channel axis {channel_axis} has {values.shape[channel_axis]} "
            f"channels but params have {params.scale.size}"
        )
    shape = [1] * values.ndim
    shape[channel_axis] = params.scale.size
    return params.scale.reshape(shape), params.zero_point.reshape(shape)


def quantize_tensor(
    values: np.ndarray,
    params: QuantizationParams,
    channel_axis: int = 0,
) -> np.ndarray:
    """Quantize real values to integer codes with the given parameters."""
    values = np.asarray(values, dtype=np.float64)
    scale, zero_point = _broadcast_params(params, values, channel_axis)
    lo, hi = params.code_range
    codes = np.round(values / scale) + zero_point
    return np.clip(codes, lo, hi).astype(np.int64)


def dequantize(
    codes: np.ndarray,
    params: QuantizationParams,
    channel_axis: int = 0,
) -> np.ndarray:
    """Convert integer codes back to real values."""
    codes = np.asarray(codes, dtype=np.float64)
    scale, zero_point = _broadcast_params(params, codes, channel_axis)
    return (codes - zero_point) * scale


def quantize_per_channel(
    weights: np.ndarray, channel_axis: int = 0, signed: bool = False
) -> tuple[np.ndarray, QuantizationParams]:
    """Quantize weights per output channel to 8-bit codes.

    The quantization is asymmetric (a zero point per channel) so that the full
    unsigned 8-bit code range maps onto each channel's weight range, which is
    how crossbar-resident weights are stored before Center+Offset re-encoding.

    Returns the integer codes and the :class:`QuantizationParams`.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n_channels = weights.shape[channel_axis]
    moved = np.moveaxis(weights, channel_axis, 0).reshape(n_channels, -1)
    w_min = np.minimum(moved.min(axis=1), 0.0)
    w_max = np.maximum(moved.max(axis=1), 0.0)
    lo, hi = QuantizationParams.code_range_static(signed)
    span = np.maximum(w_max - w_min, 1e-12)
    scale = span / (hi - lo)
    zero_point = np.clip(np.round(lo - w_min / scale), lo, hi).astype(np.int64)
    params = QuantizationParams(scale=scale, zero_point=zero_point, signed=signed)
    codes = quantize_tensor(weights, params, channel_axis=channel_axis)
    return codes, params
