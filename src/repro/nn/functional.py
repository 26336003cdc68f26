"""Tensor operations for the NumPy DNN substrate.

All image tensors use NCHW layout.  Convolutions are lowered to matrix
multiplication via im2col, which mirrors how PIM accelerators map convolutions
onto crossbars (each filter becomes a crossbar column; each im2col patch
becomes an input vector).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "im2col",
    "conv_output_size",
    "conv2d",
    "maxpool2d",
    "avgpool2d",
    "global_avg_pool",
    "relu",
    "softmax",
    "cross_entropy",
    "one_hot",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
    pad_value: int | float = 0,
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold an NCHW tensor into convolution patches.

    Returns ``(patches, (out_h, out_w))`` where ``patches`` has shape
    ``(N * out_h * out_w, C * kernel * kernel)``.  Each row is one input patch
    in channel-major order, which is the reduction ("row") dimension a
    crossbar column sums over.  Padded positions hold ``pad_value`` (a
    quantized tensor pads with its zero point, the code of real zero).

    The patches keep ``x``'s dtype, widened only if ``pad_value`` does not
    fit it, so ``uint8`` activation codes unfold at one byte per entry.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError("im2col expects an NCHW tensor")
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    # Channels-last, so every kernel offset below copies whole channel
    # vectors; activations between layers are already laid out this way.
    x = x.transpose(0, 2, 3, 1)
    if padding > 0:
        if np.issubdtype(x.dtype, np.integer):
            info = np.iinfo(x.dtype)
            if not info.min <= pad_value <= info.max:
                x = x.astype(np.promote_types(x.dtype, np.min_scalar_type(pad_value)))
        x = np.pad(
            x,
            ((0, 0), (padding, padding), (padding, padding), (0, 0)),
            mode="constant",
            constant_values=pad_value,
        )
    patches = np.empty((n, out_h, out_w, c, kernel, kernel), dtype=x.dtype)
    rows = slice(None, stride * (out_h - 1) + 1, stride)
    cols = slice(None, stride * (out_w - 1) + 1, stride)
    for i in range(kernel):
        for j in range(kernel):
            patches[..., i, j] = x[:, i:, j:][:, rows, cols]
    return patches.reshape(n * out_h * out_w, c * kernel * kernel), (out_h, out_w)


def conv2d(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Float 2-D convolution. ``weights`` has shape (out_c, in_c, k, k)."""
    weights = np.asarray(weights, dtype=np.float64)
    out_c, in_c, k, _ = weights.shape
    n = x.shape[0]
    if x.shape[1] != in_c:
        raise ValueError(f"input has {x.shape[1]} channels, weights expect {in_c}")
    patches, (out_h, out_w) = im2col(x, k, stride, padding)
    flat = patches @ weights.reshape(out_c, -1).T
    if bias is not None:
        flat = flat + np.asarray(bias, dtype=np.float64)
    return flat.reshape(n, out_h, out_w, out_c).transpose(0, 3, 1, 2)


def _pool2d(
    x: np.ndarray, kernel: int, stride: int, padding: int, reducer
) -> np.ndarray:
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    if padding > 0:
        if reducer is not np.max:
            fill = 0.0
        elif np.issubdtype(x.dtype, np.integer):
            fill = np.iinfo(x.dtype).min
        else:
            fill = -np.inf
        x = np.pad(
            x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
            constant_values=fill,
        )
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride,
            strides[3] * stride,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    return reducer(windows, axis=(4, 5))


def maxpool2d(
    x: np.ndarray, kernel: int, stride: int | None = None, padding: int = 0
) -> np.ndarray:
    """Max pooling over an NCHW tensor.

    Integer tensors (activation codes) are pooled in their own dtype; any
    other input is pooled in float64.
    """
    stride = kernel if stride is None else stride
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.integer):
        x = x.astype(np.float64, copy=False)
    return _pool2d(x, kernel, stride, padding, np.max)


def avgpool2d(
    x: np.ndarray, kernel: int, stride: int | None = None, padding: int = 0
) -> np.ndarray:
    """Average pooling over an NCHW tensor."""
    stride = kernel if stride is None else stride
    return _pool2d(np.asarray(x, dtype=np.float64), kernel, stride, padding, np.mean)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Global average pooling: NCHW -> NC, averaged in float64."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError("global_avg_pool expects an NCHW tensor")
    return x.mean(axis=(2, 3), dtype=np.float64)


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """One-hot encode integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ValueError("labels out of range")
    out = np.zeros((labels.size, n_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy loss of logits against integer labels."""
    probs = softmax(logits)
    labels = np.asarray(labels, dtype=np.int64)
    eps = 1e-12
    picked = probs[np.arange(labels.size), labels]
    return float(-np.mean(np.log(picked + eps)))
