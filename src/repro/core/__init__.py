"""RAELLA's core contribution.

* :mod:`repro.core.center_offset`    -- Center+Offset weight encoding (Eq. 1/2).
* :mod:`repro.core.dynamic_input`    -- Dynamic Input Slicing: speculation and
  recovery scheduling (Section 4.3).
* :mod:`repro.core.executor`         -- the PIM layer executor: functional
  simulation of a layer on crossbars with any encoding / slicing / ADC policy.
* :mod:`repro.core.adaptive_slicing` -- Adaptive Weight Slicing (Algorithm 1).
* :mod:`repro.core.compiler`         -- compile a quantized model into a
  RAELLA program (per-layer slicings, centers, executors).
* :mod:`repro.core.accelerator`      -- the full-accelerator model combining
  functional statistics with the hardware cost model.
"""

from repro.core.accelerator import AcceleratorReport, RaellaAccelerator
from repro.core.adaptive_slicing import AdaptiveSlicingConfig, choose_weight_slicing
from repro.core.center_offset import (
    CenterOffsetEncoder,
    EncodedWeights,
    WeightEncoding,
    optimal_centers,
)
from repro.core.compiler import CompiledLayer, RaellaCompiler, RaellaProgram
from repro.core.dynamic_input import InputSlicePlan, SpeculationMode
from repro.core.executor import LayerStatistics, PimLayerConfig, PimLayerExecutor

__all__ = [
    "AcceleratorReport",
    "RaellaAccelerator",
    "AdaptiveSlicingConfig",
    "choose_weight_slicing",
    "CenterOffsetEncoder",
    "EncodedWeights",
    "WeightEncoding",
    "optimal_centers",
    "CompiledLayer",
    "RaellaCompiler",
    "RaellaProgram",
    "InputSlicePlan",
    "SpeculationMode",
    "LayerStatistics",
    "PimLayerConfig",
    "PimLayerExecutor",
]
