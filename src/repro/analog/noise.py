"""Analog variation and noise models for column sums.

Section 7.2 of the paper models analog variation as a Gaussian added to each
column sum: for a column whose positive and negative sliced-product sums are
``N+`` and ``N-``, the observed sum is drawn from ``Normal(N+ - N-,
(E * sqrt(N+ + N-))**2)`` where ``E`` is the noise level (up to 12% in the
paper's sweep).  Noise is additive across sliced products, so the standard
deviation grows with the total analog activity rather than with the net sum --
which is exactly why Center+Offset's cancellation also reduces noise impact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

__all__ = ["NoiseModel", "NoiselessModel", "GaussianColumnNoise"]


class NoiseModel(Protocol):
    """Protocol for column-sum noise models."""

    def apply(self, positive_sums: np.ndarray, negative_sums: np.ndarray) -> np.ndarray:
        """Return noisy column sums given positive/negative activity."""
        ...


@dataclass
class NoiselessModel:
    """Ideal crossbar: the column sum is exactly ``N+ - N-``."""

    def apply(self, positive_sums: np.ndarray, negative_sums: np.ndarray) -> np.ndarray:
        """Return the ideal column sums."""
        return np.asarray(positive_sums, dtype=np.float64) - np.asarray(
            negative_sums, dtype=np.float64
        )


@dataclass
class GaussianColumnNoise:
    """Gaussian column-sum noise with activity-dependent standard deviation.

    Parameters
    ----------
    level:
        The paper's noise level ``E`` (0.0 -- 0.12 in the Fig. 15 sweep).
    seed:
        Seed for the internal random generator, for reproducible experiments.
    """

    level: float
    seed: int | None = None
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("noise level must be non-negative")
        self._rng = np.random.default_rng(self.seed)

    def apply(self, positive_sums: np.ndarray, negative_sums: np.ndarray) -> np.ndarray:
        """Draw noisy column sums.

        The mean is the ideal sum ``N+ - N-`` and the standard deviation is
        ``level * sqrt(N+ + N-)``.
        """
        positive = np.asarray(positive_sums, dtype=np.float64)
        negative = np.asarray(negative_sums, dtype=np.float64)
        ideal = positive - negative
        if self.level == 0.0:
            return ideal
        activity = np.maximum(positive + negative, 0.0)
        sigma = self.level * np.sqrt(activity)
        return ideal + self._rng.normal(0.0, 1.0, size=ideal.shape) * sigma
