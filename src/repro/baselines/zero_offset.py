"""The Zero+Offset (differential encoding) ablation baseline.

Zero+Offset keeps RAELLA's hardware but replaces Center+Offset with
common-practice differential encoding: the per-filter center is pinned at the
code of real zero (the weight quantization zero point), so positive offsets
represent positive real weights and negative offsets represent negative real
weights.  Filters whose weights skew negative then produce mostly-negative
slices, large negative column sums and frequent ADC saturation -- the accuracy
collapse shown in Table 4.

Table 4 keeps the slicings the Center+Offset compilation chose, so that
efficiency and throughput match and only the encoding differs: it re-encodes
the compiled program with
:func:`repro.experiments.table4_accuracy.clone_program_with_encoding`.
"""

from __future__ import annotations

from repro.core.center_offset import WeightEncoding
from repro.core.executor import PimLayerConfig

__all__ = ["zero_offset_config"]


def zero_offset_config(base: PimLayerConfig | None = None) -> PimLayerConfig:
    """RAELLA's executor configuration with Zero+Offset encoding."""
    base = base or PimLayerConfig()
    return base.with_changes(weight_encoding=WeightEncoding.ZERO_OFFSET)
