"""Baseline accelerators the paper compares against.

* :mod:`repro.baselines.isaac`       -- the 8-bit ISAAC baseline (no retraining,
  high ADC cost): architecture spec plus a functional executor configuration.
* :mod:`repro.baselines.forms`       -- FORMS-8, Weight-Count-Limited: ISAAC-like
  substrate with fine-grained polarised pruning and retraining.
* :mod:`repro.baselines.timely`      -- TIMELY, Sum-Fidelity-Limited: huge analog
  accumulation, LSB-dropping conversion, retraining.

Table 4 also ablates Center+Offset against Zero+Offset, common-practice
differential encoding on RAELLA's own hardware: the per-filter center is
pinned at the code of real zero (the weight quantization zero point), so
positive offsets represent positive real weights and negative offsets
negative ones.  Filters whose weights skew negative then produce
mostly-negative slices, large negative column sums and frequent ADC
saturation -- the accuracy collapse shown in Table 4.  That ablation needs no
baseline class: it is :attr:`repro.core.center_offset.WeightEncoding.ZERO_OFFSET`,
and Table 4 keeps the slicings the Center+Offset compilation chose, so that
efficiency and throughput match and only the encoding differs, by
re-encoding the compiled program with
:func:`repro.experiments.table4_accuracy.clone_program_with_encoding`.
"""

from repro.baselines.forms import FormsBaseline
from repro.baselines.isaac import IsaacBaseline
from repro.baselines.timely import TimelyBaseline

__all__ = [
    "IsaacBaseline",
    "FormsBaseline",
    "TimelyBaseline",
]
