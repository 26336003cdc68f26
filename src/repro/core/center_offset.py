"""Center+Offset weight encoding (Section 4.1 of the paper).

Each weight filter ``W`` (one dot product's worth of weights mapped into one
crossbar) is represented as a *center* ``phi`` plus signed *offsets*:

    ``W . I = (phi * sum(I)) + (W+ - W-) . I``                       (Eq. 1)

The offsets ``W+ = max(W - phi, 0)`` and ``W- = max(phi - W, 0)`` are sliced
and programmed into the positive/negative devices of 2T2R cells, so positive
and negative sliced products cancel in analog and column sums stay small.  The
center term is computed digitally.

Centers are chosen per filter by minimising Eq. 2: the sum over weight slices
of ``2**l_i * (sum_w D(h_i, l_i, w - phi))**4``, which balances the magnitudes
of positive and negative slices in every crossbar column.

Weights here are the unsigned 8-bit *codes* of the per-channel quantization
(:mod:`repro.arithmetic.quantize`); the code of real zero is the quantization
zero point.  Three encodings are supported:

* ``CENTER_OFFSET`` -- RAELLA: centers from Eq. 2.
* ``ZERO_OFFSET``   -- common-practice differential encoding: the center is
  the code of real zero (the weight zero point), so positive/negative offsets
  correspond to positive/negative real weights.
* ``UNSIGNED``      -- ISAAC-style: no offsets, raw codes in 1T1R cells.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.arithmetic.bits import signed_crop
from repro.arithmetic.slicing import Slicing

__all__ = [
    "WeightEncoding",
    "EncodedWeights",
    "CenterOffsetEncoder",
    "optimal_centers",
    "compute_offsets",
]

#: Candidate center values searched by Eq. 2 (the paper uses 1..255).
CENTER_CANDIDATES = np.arange(1, 256, dtype=np.int64)


class WeightEncoding(Enum):
    """How weight codes are mapped onto crossbar devices."""

    CENTER_OFFSET = "center_offset"
    ZERO_OFFSET = "zero_offset"
    UNSIGNED = "unsigned"

    @property
    def uses_centers(self) -> bool:
        """Whether the encoding stores offsets around a per-filter center."""
        return self is not WeightEncoding.UNSIGNED


def compute_offsets(
    weight_codes: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split weight codes into positive/negative offsets about per-filter centers.

    ``weight_codes`` has shape ``(rows, filters)`` and ``centers`` has shape
    ``(filters,)``.  Returns ``(w_plus, w_minus)`` with the same shape as the
    weights, where ``w_plus - w_minus == weight_codes - centers``.
    """
    weight_codes = np.asarray(weight_codes, dtype=np.int64)
    centers = np.asarray(centers, dtype=np.int64)
    if weight_codes.ndim != 2:
        raise ValueError("weight_codes must be 2-D (rows x filters)")
    if centers.shape != (weight_codes.shape[1],):
        raise ValueError("centers must have one entry per filter")
    delta = weight_codes - centers[np.newaxis, :]
    return np.maximum(delta, 0), np.maximum(-delta, 0)


def _slice_column_cost(
    offsets: np.ndarray, slicing: Slicing, power: float
) -> np.ndarray:
    """Eq. 2 cost of signed offsets, vectorised over leading axes.

    ``offsets`` has shape ``(..., rows)``; the cost is summed over slices with
    the ``2**l_i`` bit-position weighting and the per-column sum raised to
    ``power`` (4 in the paper).  This is the elementwise definition;
    :func:`optimal_centers` computes the same column sums from histograms.
    """
    cost = np.zeros(offsets.shape[:-1], dtype=np.float64)
    for width, shift in zip(slicing.widths, slicing.shifts):
        sliced = signed_crop(offsets, shift + width - 1, shift)
        column_sum = sliced.sum(axis=-1).astype(np.float64)
        cost += (2.0**shift) * np.abs(column_sum) ** power
    return cost


def optimal_centers(
    weight_codes: np.ndarray,
    slicing: Slicing,
    power: float = 4.0,
    candidates: np.ndarray | None = None,
) -> np.ndarray:
    """Solve Eq. 2 independently for every filter (column) of a weight matrix.

    ``weight_codes`` has shape ``(rows, filters)`` and holds unsigned 8-bit
    codes.  A filter's column sum ``sum_r D(h, l, w_r - c)`` depends only on
    how many of its rows hold each code ``v``, so every (candidate, filter)
    column sum of a slice is one GEMM of a ``(candidates, 256)`` table
    ``D(h, l, v - c)`` with the ``(256, filters)`` code histogram.  Every
    product and partial sum is an integer of magnitude below ``2**width *
    rows`` (``|D| < 2**width`` and a filter's counts sum to ``rows``), so
    the GEMM runs in float32 while that stays within ``2**24`` (every
    crossbar-sized chunk) and in float64 beyond; either way it is exact and
    the costs equal :func:`_slice_column_cost` bit for bit.
    """
    weight_codes = np.asarray(weight_codes, dtype=np.int64)
    if weight_codes.ndim != 2:
        raise ValueError("weight_codes must be 2-D (rows x filters)")
    if weight_codes.size and (weight_codes.min() < 0 or weight_codes.max() > 255):
        raise ValueError("weight codes must be unsigned 8-bit values")
    n_filters = weight_codes.shape[1]
    cands = CENTER_CANDIDATES if candidates is None else np.asarray(candidates)
    # hist[v, f] = number of rows of filter f holding code v.
    flat_index = weight_codes * n_filters + np.arange(n_filters)
    hist = np.bincount(flat_index.ravel(), minlength=256 * n_filters)
    exact32 = weight_codes.shape[0] << slicing.max_slice_bits <= 1 << 24
    gemm_dtype = np.float32 if exact32 else np.float64
    hist = hist.reshape(256, n_filters).astype(gemm_dtype)
    costs = np.zeros((cands.size, n_filters), dtype=np.float64)
    for width, shift in zip(slicing.widths, slicing.shifts):
        if candidates is None:
            table = _default_crop_table(shift + width - 1, shift)
        else:
            table = _crop_table(cands, shift + width - 1, shift)
        column_sum = table.astype(gemm_dtype) @ hist  # (candidates, filters)
        column_sum = column_sum.astype(np.float64, copy=False)
        costs += (2.0**shift) * np.abs(column_sum) ** power
    return cands[np.argmin(costs, axis=0)].astype(np.int64)


def _crop_table(candidates: np.ndarray, high: int, low: int) -> np.ndarray:
    """``T[c, v] = D(high, low, v - candidates[c])`` for every code ``v``."""
    offsets = np.arange(256, dtype=np.int64) - candidates[:, np.newaxis]
    return signed_crop(offsets, high, low)


@functools.lru_cache(maxsize=None)
def _default_crop_table(high: int, low: int) -> np.ndarray:
    """:func:`_crop_table` over :data:`CENTER_CANDIDATES`, built once per slice.

    Every offset is within +-255, so ``int16`` holds the table compactly.
    """
    table = _crop_table(CENTER_CANDIDATES, high, low).astype(np.int16)
    table.flags.writeable = False
    return table


@dataclass
class EncodedWeights:
    """Weights encoded and sliced for programming into crossbars.

    Attributes
    ----------
    encoding:
        The weight encoding used.
    slicing:
        The weight slicing (bits per device column).
    centers:
        Per-filter centers, shape ``(filters,)`` (all zeros for UNSIGNED).
    positive_slices / negative_slices:
        Arrays of shape ``(n_slices, rows, filters)`` holding the slice values
        programmed into positive / negative devices.  For UNSIGNED encoding the
        negative array is all zeros.
    """

    encoding: WeightEncoding
    slicing: Slicing
    centers: np.ndarray
    positive_slices: np.ndarray
    negative_slices: np.ndarray

    @property
    def rows(self) -> int:
        """Number of crossbar rows occupied."""
        return int(self.positive_slices.shape[1])

    @property
    def n_filters(self) -> int:
        """Number of filters (dot products) encoded."""
        return int(self.positive_slices.shape[2])

    @property
    def n_columns(self) -> int:
        """Number of physical crossbar columns (filters x slices)."""
        return self.n_filters * self.slicing.n_slices

    def reconstruct_codes(self) -> np.ndarray:
        """Reassemble the original weight codes (sanity check / tests)."""
        delta = np.zeros(self.positive_slices.shape[1:], dtype=np.int64)
        for i, shift in enumerate(self.slicing.shifts):
            delta += (self.positive_slices[i] - self.negative_slices[i]) << shift
        return delta + self.centers[np.newaxis, :]


@dataclass
class CenterOffsetEncoder:
    """Encodes weight-code matrices for crossbar programming.

    Parameters
    ----------
    slicing:
        Weight slicing (bits per device).
    encoding:
        Center+Offset (RAELLA), Zero+Offset (differential) or unsigned (ISAAC).
    power:
        Eq. 2 cost exponent.
    """

    slicing: Slicing
    encoding: WeightEncoding = WeightEncoding.CENTER_OFFSET
    power: float = 4.0

    def choose_centers(
        self, weight_codes: np.ndarray, zero_points: np.ndarray | None = None
    ) -> np.ndarray:
        """Choose per-filter centers according to the configured encoding."""
        weight_codes = np.asarray(weight_codes, dtype=np.int64)
        n_filters = weight_codes.shape[1]
        if self.encoding is WeightEncoding.UNSIGNED:
            return np.zeros(n_filters, dtype=np.int64)
        if self.encoding is WeightEncoding.ZERO_OFFSET:
            if zero_points is None:
                raise ValueError("Zero+Offset encoding needs weight zero points")
            zero_points = np.asarray(zero_points, dtype=np.int64)
            if zero_points.size == 1:
                return np.full(
                    n_filters, int(zero_points.reshape(-1)[0]), dtype=np.int64
                )
            if zero_points.shape != (n_filters,):
                raise ValueError("zero_points must have one entry per filter")
            return zero_points.copy()
        return optimal_centers(weight_codes, self.slicing, power=self.power)

    def encode(
        self, weight_codes: np.ndarray, zero_points: np.ndarray | None = None
    ) -> EncodedWeights:
        """Encode a ``(rows, filters)`` weight-code matrix."""
        weight_codes = np.asarray(weight_codes, dtype=np.int64)
        if weight_codes.ndim != 2:
            raise ValueError("weight_codes must be 2-D (rows x filters)")
        if np.any(weight_codes < 0) or np.any(weight_codes > 255):
            raise ValueError("weight codes must be unsigned 8-bit values")
        centers = self.choose_centers(weight_codes, zero_points)
        n_slices = self.slicing.n_slices
        rows, n_filters = weight_codes.shape
        positive = np.empty((n_slices, rows, n_filters), dtype=np.int64)
        negative = np.zeros_like(positive)
        if self.encoding is WeightEncoding.UNSIGNED:
            for i, part in enumerate(self.slicing.slice_unsigned(weight_codes)):
                positive[i] = part
        else:
            w_plus, w_minus = compute_offsets(weight_codes, centers)
            for i, part in enumerate(self.slicing.slice_unsigned(w_plus)):
                positive[i] = part
            for i, part in enumerate(self.slicing.slice_unsigned(w_minus)):
                negative[i] = part
        return EncodedWeights(
            encoding=self.encoding,
            slicing=self.slicing,
            centers=centers,
            positive_slices=positive,
            negative_slices=negative,
        )
