"""The Zero+Offset (differential encoding) ablation baseline.

Zero+Offset keeps RAELLA's hardware but replaces Center+Offset with
common-practice differential encoding: the per-filter center is pinned at the
code of real zero (the weight quantization zero point), so positive offsets
represent positive real weights and negative offsets represent negative real
weights.  Filters whose weights skew negative then produce mostly-negative
slices, large negative column sums and frequent ADC saturation -- the accuracy
collapse shown in Table 4.
"""

from __future__ import annotations

from repro.core.center_offset import WeightEncoding
from repro.core.compiler import RaellaCompilerConfig
from repro.core.executor import PimLayerConfig

__all__ = ["zero_offset_config", "zero_offset_compiler_config"]


def zero_offset_config(base: PimLayerConfig | None = None) -> PimLayerConfig:
    """RAELLA's executor configuration with Zero+Offset encoding."""
    base = base or PimLayerConfig()
    return base.with_changes(weight_encoding=WeightEncoding.ZERO_OFFSET)


def zero_offset_compiler_config(
    base: RaellaCompilerConfig | None = None,
) -> RaellaCompilerConfig:
    """Compiler configuration matching RAELLA but with Zero+Offset encoding.

    Table 4 uses the *same slicings* for Center+Offset and Zero+Offset so that
    efficiency and throughput match and only the encoding differs; adaptive
    slicing is therefore disabled here and callers should copy the slicings
    chosen by the Center+Offset compilation (see
    :func:`repro.experiments.table4_accuracy.run_table4`).
    """
    from dataclasses import replace

    base = base or RaellaCompilerConfig()
    return replace(
        base,
        pim=zero_offset_config(base.pim),
        adaptive_slicing_enabled=False,
    )
