"""Baseline accelerators the paper compares against.

* :mod:`repro.baselines.isaac`       -- the 8-bit ISAAC baseline (no retraining,
  high ADC cost): architecture spec plus a functional executor configuration.
* :mod:`repro.baselines.forms`       -- FORMS-8, Weight-Count-Limited: ISAAC-like
  substrate with fine-grained polarised pruning and retraining.
* :mod:`repro.baselines.timely`      -- TIMELY, Sum-Fidelity-Limited: huge analog
  accumulation, LSB-dropping conversion, retraining.
* :mod:`repro.baselines.zero_offset` -- the Zero+Offset (differential encoding)
  ablation of Center+Offset used in Table 4.
"""

from repro.baselines.forms import FormsBaseline
from repro.baselines.isaac import IsaacBaseline
from repro.baselines.timely import TimelyBaseline
from repro.baselines.zero_offset import zero_offset_config

__all__ = [
    "IsaacBaseline",
    "FormsBaseline",
    "TimelyBaseline",
    "zero_offset_config",
]
