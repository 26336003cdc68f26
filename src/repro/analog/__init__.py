"""Column-sum noise models of the analog PIM substrate.

The executors form column sums, clip them to the ADC range and count
converts themselves; this subpackage only supplies the analog variation
they add to each column sum:

* :mod:`repro.analog.noise` -- the Gaussian column-sum noise model of
  Section 7.2 and the noiseless default.
"""

from repro.analog.noise import GaussianColumnNoise, NoiseModel, NoiselessModel

__all__ = [
    "GaussianColumnNoise",
    "NoiseModel",
    "NoiselessModel",
]
