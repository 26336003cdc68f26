"""Quantized DNN layers.

Layers implement two execution paths:

* a float path (``forward_float``) used for calibration, training and as the
  accuracy reference, and
* an integer path (``forward_quantized``) that mirrors 8-bit per-channel
  quantized inference with 16-bit partial sums (Section 2.1 of the paper).

The integer path of matrix-multiply layers (:class:`Conv2d`, :class:`Linear`)
accepts a *PIM mat-mul hook*: a callable that replaces the exact integer
product of raw input codes and raw weight codes with the output of an analog
crossbar simulation.  Everything else (zero-point corrections, bias, ReLU,
requantization) stays digital, exactly as in the paper's architectures.

Activation codes travel between layers in their quantization's narrow code
dtype (:attr:`TensorQuant.code_dtype`: ``uint8`` unsigned, ``int8`` signed),
through pooling, flattening and im2col, into the PIM hook.  Code arithmetic
that can leave that range -- zero-point corrections, row sums, error
differences -- widens to ``int64`` or ``float64`` first.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.arithmetic.quantize import quantize_per_channel
from repro.nn import functional as F

__all__ = [
    "TensorQuant",
    "Layer",
    "MatmulLayer",
    "Conv2d",
    "Linear",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool",
    "Flatten",
    "PimMatmul",
]

#: Largest contiguous integer range float64 represents exactly (53-bit mantissa).
_FLOAT64_EXACT_LIMIT = 1 << 53


@dataclass(frozen=True)
class TensorQuant:
    """Per-tensor affine quantization of an activation tensor."""

    scale: float
    zero_point: int = 0
    signed: bool = False

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("activation scale must be positive")
        lo, hi = self.code_range
        if not lo <= self.zero_point <= hi:
            raise ValueError("zero point outside code range")

    @property
    def code_range(self) -> tuple[int, int]:
        """Inclusive 8-bit code range."""
        return (-128, 127) if self.signed else (0, 255)

    @property
    def code_dtype(self) -> np.dtype:
        """The narrowest integer dtype holding :attr:`code_range`."""
        return np.dtype(np.int8 if self.signed else np.uint8)

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Real values -> integer codes in :attr:`code_dtype`."""
        lo, hi = self.code_range
        codes = np.asarray(values, dtype=np.float64) / self.scale
        np.round(codes, out=codes)
        codes += self.zero_point
        np.clip(codes, lo, hi, out=codes)
        return codes.astype(self.code_dtype)

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        """Integer codes -> real values."""
        return (np.asarray(codes, dtype=np.float64) - self.zero_point) * self.scale

    @classmethod
    def from_values(cls, values: np.ndarray, signed: bool = False) -> "TensorQuant":
        """Fit a quantization spec to observed activation values."""
        values = np.asarray(values, dtype=np.float64)
        if signed:
            max_abs = max(float(np.abs(values).max(initial=0.0)), 1e-6)
            return cls(scale=max_abs / 127.0, zero_point=0, signed=True)
        lo = min(float(values.min(initial=0.0)), 0.0)
        hi = max(float(values.max(initial=0.0)), 1e-6)
        scale = (hi - lo) / 255.0
        zero_point = int(np.clip(round(-lo / scale), 0, 255))
        return cls(scale=scale, zero_point=zero_point, signed=False)


class PimMatmul(Protocol):
    """A hook replacing the exact integer code product with a PIM simulation."""

    def __call__(self, input_codes: np.ndarray, layer: "MatmulLayer") -> np.ndarray:
        """Return the (approximate) raw product ``input_codes @ weight_codes``.

        ``input_codes`` arrive in the narrow code dtype (``uint8`` or
        ``int8``): widen them before arithmetic that can leave its range.
        """
        ...


class Layer:
    """Base class for all layers."""

    def __init__(self, name: str):
        self.name = name

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        """Float-domain forward pass."""
        raise NotImplementedError

    def forward_quantized(
        self,
        codes: np.ndarray,
        quant: TensorQuant,
        pim_matmul: PimMatmul | None = None,
    ) -> tuple[np.ndarray, TensorQuant]:
        """Integer-domain forward pass.  Returns ``(codes, quant)``."""
        raise NotImplementedError

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Output tensor shape (excluding batch) for a given input shape."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class MatmulLayer(Layer):
    """Common machinery for layers that lower to a matrix multiplication.

    Subclasses provide the patch extraction (``_to_patches``) and the output
    reshaping (``_from_flat``); this class owns weight quantization, the
    integer mat-mul with zero-point corrections, bias addition, optional fused
    ReLU, and output requantization.
    """

    def __init__(
        self,
        name: str,
        weights: np.ndarray,
        bias: np.ndarray | None,
        out_features: int,
        fuse_relu: bool,
        signed_input: bool = False,
    ):
        super().__init__(name)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = (
            np.zeros(out_features)
            if bias is None
            else np.asarray(bias, dtype=np.float64)
        )
        if self.bias.shape != (out_features,):
            raise ValueError("bias must have one entry per output feature")
        self.out_features = out_features
        self.fuse_relu = fuse_relu
        self.signed_input = signed_input
        # Filled by quantize_weights():
        self.weight_codes: np.ndarray | None = None
        self.weight_scale: np.ndarray | None = None
        self.weight_zero_point: np.ndarray | None = None
        # Filled by calibration:
        self.input_quant: TensorQuant | None = None
        self.output_quant: TensorQuant | None = None
        self.quantize_weights()

    # -- weight quantization -------------------------------------------------

    @property
    def weight_matrix(self) -> np.ndarray:
        """Float weights flattened to ``(reduction_dim, out_features)``."""
        return self.weights.reshape(self.out_features, -1).T

    @property
    def reduction_dim(self) -> int:
        """Length of the dot-product (crossbar-row) dimension."""
        return self.weight_matrix.shape[0]

    @property
    def n_weights(self) -> int:
        """Number of weights in the layer."""
        return int(self.weights.size)

    def quantize_weights(self) -> None:
        """Quantize weights per output channel to unsigned 8-bit codes."""
        flat = self.weights.reshape(self.out_features, -1)
        codes, params = quantize_per_channel(flat, channel_axis=0, signed=False)
        self.weight_codes = codes.T.astype(np.int64)  # (K, out_features)
        self.weight_scale = params.scale
        self.weight_zero_point = params.zero_point
        self._weight_fingerprint: str | None = None
        self._weight_code_sums: np.ndarray | None = None
        self._float_weight_codes: np.ndarray | None = None

    @property
    def weight_fingerprint(self) -> str:
        """Content hash of the quantized weights (stable across instances).

        Keys the :mod:`repro.runtime` encoded-weight cache, so two executors
        built for layers with identical weight codes and zero points share one
        encoding.
        """
        if self._weight_fingerprint is None:
            digest = hashlib.sha1()
            digest.update(str(self.weight_codes.shape).encode())
            digest.update(np.ascontiguousarray(self.weight_codes).tobytes())
            digest.update(np.ascontiguousarray(self.weight_zero_point).tobytes())
            self._weight_fingerprint = digest.hexdigest()
        return self._weight_fingerprint

    @property
    def weight_code_sums(self) -> np.ndarray:
        """Per-filter column sums of the weight codes (zero-point correction)."""
        if self._weight_code_sums is None:
            self._weight_code_sums = self.weight_codes.sum(axis=0)
        return self._weight_code_sums

    def _exact_code_product(self, patch_codes: np.ndarray) -> np.ndarray:
        """``patch_codes @ weight_codes`` as a float64 GEMM proven exact.

        Weight codes are unsigned, so every product and partial sum of an
        output is an integer of magnitude at most ``max|code| * max_c sum_r
        w_rc``.  Below ``2**53`` float64 holds each one exactly, so the BLAS
        GEMM returns the integer product in any summation order.  Codes
        outside that range raise ``ValueError``.
        """
        if self._float_weight_codes is None:
            self._float_weight_codes = self.weight_codes.astype(np.float64)
        column_bound = int(self.weight_code_sums.max(initial=0))
        if np.issubdtype(patch_codes.dtype, np.integer):
            info = np.iinfo(patch_codes.dtype)
            max_code = max(int(info.max), -int(info.min))
        else:
            max_code = _FLOAT64_EXACT_LIMIT
        if max_code * column_bound >= _FLOAT64_EXACT_LIMIT and patch_codes.size:
            # The dtype alone does not prove it (e.g. int64): scan the codes.
            max_code = max(float(patch_codes.max()), -float(patch_codes.min()))
            if max_code * column_bound >= _FLOAT64_EXACT_LIMIT:
                raise ValueError(
                    f"layer {self.name!r}: input codes up to {max_code:.0f} "
                    "overflow the exact float64 product of weight columns "
                    f"summing to {column_bound}"
                )
        return patch_codes.astype(np.float64) @ self._float_weight_codes

    # -- calibration ---------------------------------------------------------

    def calibrate(
        self,
        float_inputs: np.ndarray,
        float_outputs: np.ndarray,
        signed_output: bool = False,
    ) -> None:
        """Set activation quantization from observed float tensors."""
        self.input_quant = TensorQuant.from_values(
            float_inputs, signed=self.signed_input
        )
        reference = (
            np.maximum(float_outputs, 0.0) if self.fuse_relu else float_outputs
        )
        self.output_quant = TensorQuant.from_values(reference, signed=signed_output)

    @property
    def is_calibrated(self) -> bool:
        """Whether activation quantization has been set."""
        return self.input_quant is not None and self.output_quant is not None

    # -- integer execution ---------------------------------------------------

    def _to_patches(
        self, codes: np.ndarray, pad_value: int
    ) -> tuple[np.ndarray, tuple]:
        """Convert an input code tensor into (patches, shape_info)."""
        raise NotImplementedError

    def _from_flat(self, flat: np.ndarray, shape_info: tuple, batch: int) -> np.ndarray:
        """Reshape flat per-output-feature results into the output tensor."""
        raise NotImplementedError

    def matmul_quantized(
        self,
        patch_codes: np.ndarray,
        pim_matmul: PimMatmul | None = None,
    ) -> np.ndarray:
        """Integer mat-mul with zero-point correction -> real-valued psums.

        ``patch_codes`` has shape ``(M, reduction_dim)`` and reaches the hook
        in its own dtype (the narrow code dtype on the model path).  The raw
        code product comes from the PIM hook or, without one, from a float64
        GEMM proven exact for the codes' range (codes outside it raise
        ``ValueError``); corrections involving zero points are always
        digital, with row sums in ``int64``.
        """
        if not self.is_calibrated:
            raise RuntimeError(f"layer {self.name!r} has not been calibrated")
        patch_codes = np.asarray(patch_codes)
        if pim_matmul is None:
            raw = self._exact_code_product(patch_codes)
        else:
            raw = np.asarray(pim_matmul(patch_codes, self), dtype=np.float64)
        zp_x = self.input_quant.zero_point
        zp_w = self.weight_zero_point  # (out_features,)
        input_sums = patch_codes.sum(axis=1, keepdims=True, dtype=np.int64)
        weight_sums = self.weight_code_sums
        k = self.reduction_dim
        # Same evaluation order as the plain expression (bit-identical even
        # for non-integer hook outputs), in place after the first term.
        real = np.subtract(raw, input_sums * zp_w[np.newaxis, :], dtype=np.float64)
        real -= zp_x * weight_sums[np.newaxis, :]
        real += k * zp_x * zp_w[np.newaxis, :]
        real *= (self.input_quant.scale * self.weight_scale)[np.newaxis, :]
        real += self.bias[np.newaxis, :]
        return real

    def forward_quantized(
        self,
        codes: np.ndarray,
        quant: TensorQuant,
        pim_matmul: PimMatmul | None = None,
    ) -> tuple[np.ndarray, TensorQuant]:
        if not self.is_calibrated:
            raise RuntimeError(f"layer {self.name!r} has not been calibrated")
        batch = codes.shape[0]
        patches, shape_info = self._to_patches(codes, self.input_quant.zero_point)
        real = self.matmul_quantized(patches, pim_matmul=pim_matmul)
        if self.fuse_relu:
            np.maximum(real, 0.0, out=real)
        out_codes_flat = self.output_quant.quantize(real)
        out = self._from_flat(out_codes_flat, shape_info, batch)
        return out, self.output_quant


class Conv2d(MatmulLayer):
    """Quantized 2-D convolution (optionally with fused ReLU)."""

    def __init__(
        self,
        name: str,
        weights: np.ndarray,
        bias: np.ndarray | None = None,
        stride: int = 1,
        padding: int = 0,
        fuse_relu: bool = True,
        signed_input: bool = False,
    ):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 4 or weights.shape[2] != weights.shape[3]:
            raise ValueError("conv weights must have shape (out_c, in_c, k, k)")
        self.stride = int(stride)
        self.padding = int(padding)
        self.kernel = int(weights.shape[2])
        self.in_channels = int(weights.shape[1])
        super().__init__(
            name,
            weights,
            bias,
            out_features=int(weights.shape[0]),
            fuse_relu=fuse_relu,
            signed_input=signed_input,
        )

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        out = F.conv2d(x, self.weights, self.bias, self.stride, self.padding)
        return F.relu(out) if self.fuse_relu else out

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(
                f"layer {self.name!r} expects {self.in_channels} channels, got {c}"
            )
        out_h = F.conv_output_size(h, self.kernel, self.stride, self.padding)
        out_w = F.conv_output_size(w, self.kernel, self.stride, self.padding)
        return (self.out_features, out_h, out_w)

    def macs(self, input_shape: tuple[int, ...]) -> int:
        """Multiply-accumulates for one input sample."""
        _, out_h, out_w = self.output_shape(input_shape)
        return self.n_weights * out_h * out_w

    def _to_patches(
        self, codes: np.ndarray, pad_value: int
    ) -> tuple[np.ndarray, tuple]:
        return F.im2col(codes, self.kernel, self.stride, self.padding, pad_value)

    def _from_flat(self, flat: np.ndarray, shape_info: tuple, batch: int) -> np.ndarray:
        out_h, out_w = shape_info
        return flat.reshape(batch, out_h, out_w, self.out_features).transpose(
            0, 3, 1, 2
        )


class Linear(MatmulLayer):
    """Quantized fully-connected layer (optionally with fused ReLU)."""

    def __init__(
        self,
        name: str,
        weights: np.ndarray,
        bias: np.ndarray | None = None,
        fuse_relu: bool = False,
        signed_input: bool = False,
    ):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError("linear weights must have shape (out_features, in_features)")
        self.in_features = int(weights.shape[1])
        super().__init__(
            name,
            weights,
            bias,
            out_features=int(weights.shape[0]),
            fuse_relu=fuse_relu,
            signed_input=signed_input,
        )

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weights.T + self.bias
        return F.relu(out) if self.fuse_relu else out

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if input_shape != (self.in_features,):
            raise ValueError(
                f"layer {self.name!r} expects ({self.in_features},), got {input_shape}"
            )
        return (self.out_features,)

    def macs(self, input_shape: tuple[int, ...]) -> int:
        """Multiply-accumulates for one input sample."""
        return self.n_weights

    def _to_patches(
        self, codes: np.ndarray, pad_value: int
    ) -> tuple[np.ndarray, tuple]:
        return np.asarray(codes), ()

    def _from_flat(self, flat: np.ndarray, shape_info: tuple, batch: int) -> np.ndarray:
        return flat.reshape(batch, self.out_features)


class ReLU(Layer):
    """Standalone ReLU (for layers where it is not fused)."""

    def __init__(self, name: str = "relu"):
        super().__init__(name)

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        return F.relu(x)

    def forward_quantized(self, codes, quant, pim_matmul=None):
        return np.maximum(codes, quant.zero_point), quant

    def output_shape(self, input_shape):
        return input_shape


class MaxPool2d(Layer):
    """Max pooling; pools codes directly, in their dtype, in the integer path."""

    def __init__(
        self,
        kernel: int,
        stride: int | None = None,
        padding: int = 0,
        name: str = "maxpool",
    ):
        super().__init__(name)
        self.kernel = kernel
        self.stride = kernel if stride is None else stride
        self.padding = padding

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        return F.maxpool2d(x, self.kernel, self.stride, self.padding)

    def forward_quantized(self, codes, quant, pim_matmul=None):
        return F.maxpool2d(codes, self.kernel, self.stride, self.padding), quant

    def output_shape(self, input_shape):
        c, h, w = input_shape
        return (
            c,
            F.conv_output_size(h, self.kernel, self.stride, self.padding),
            F.conv_output_size(w, self.kernel, self.stride, self.padding),
        )


class AvgPool2d(Layer):
    """Average pooling; the integer path averages codes and rounds.

    The pooled codes keep the input codes' dtype.
    """

    def __init__(
        self,
        kernel: int,
        stride: int | None = None,
        padding: int = 0,
        name: str = "avgpool",
    ):
        super().__init__(name)
        self.kernel = kernel
        self.stride = kernel if stride is None else stride
        self.padding = padding

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        return F.avgpool2d(x, self.kernel, self.stride, self.padding)

    def forward_quantized(self, codes, quant, pim_matmul=None):
        pooled = F.avgpool2d(codes, self.kernel, self.stride, self.padding)
        lo, hi = quant.code_range
        return np.clip(np.round(pooled), lo, hi).astype(codes.dtype), quant

    def output_shape(self, input_shape):
        c, h, w = input_shape
        return (
            c,
            F.conv_output_size(h, self.kernel, self.stride, self.padding),
            F.conv_output_size(w, self.kernel, self.stride, self.padding),
        )


class GlobalAvgPool(Layer):
    """Global average pooling NCHW -> NC; pooled codes keep the input dtype."""

    def __init__(self, name: str = "gap"):
        super().__init__(name)

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        return F.global_avg_pool(x)

    def forward_quantized(self, codes, quant, pim_matmul=None):
        pooled = F.global_avg_pool(codes)
        lo, hi = quant.code_range
        return np.clip(np.round(pooled), lo, hi).astype(codes.dtype), quant

    def output_shape(self, input_shape):
        c, _, _ = input_shape
        return (c,)


class Flatten(Layer):
    """Flatten all non-batch dimensions."""

    def __init__(self, name: str = "flatten"):
        super().__init__(name)

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def forward_quantized(self, codes, quant, pim_matmul=None):
        return codes.reshape(codes.shape[0], -1), quant

    def output_shape(self, input_shape):
        return (int(np.prod(input_shape)),)
