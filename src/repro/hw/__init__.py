"""Architecture-level hardware cost models (Accelergy/Timeloop-style).

The paper evaluates accelerators with Accelergy/Timeloop component models in
32 nm (and a 65 nm variant for the TIMELY comparison).  This subpackage
reproduces that methodology:

* :mod:`repro.hw.components`   -- per-action energy of every hardware
  component (ADC, DAC, ReRAM crossbar, SRAM/eDRAM buffers, router, digital
  logic) with ADC resolution scaling.
* :mod:`repro.hw.architecture` -- architecture specifications (RAELLA, ISAAC,
  FORMS, TIMELY) and workload operand statistics.
* :mod:`repro.hw.actions`      -- per-layer action counts (ADC converts, DAC
  pulses, device pulse-units, buffer/NoC traffic, cycles) derived analytically
  from full-scale layer shapes.
* :mod:`repro.hw.mapping`      -- layer-to-crossbar mapping, partial-Toeplitz
  in-crossbar replication and greedy cross-tile weight replication.
* :mod:`repro.hw.energy`       -- energy accounting and per-component breakdowns.
* :mod:`repro.hw.throughput`   -- pipeline latency / throughput model.
* :mod:`repro.hw.titanium`     -- the Titanium Law decomposition of ADC energy.
"""

from repro.hw.architecture import (
    ISAAC_ARCH,
    RAELLA_ARCH,
    RAELLA_NO_SPEC_ARCH,
    ArchitectureSpec,
    OperandStatistics,
)
from repro.hw.components import ComponentLibrary
from repro.hw.energy import EnergyBreakdown, EnergyModel
from repro.hw.mapping import DnnMapping, Mapper
from repro.hw.throughput import ThroughputModel, ThroughputReport
from repro.hw.titanium import TitaniumLawTerms, titanium_law

__all__ = [
    "ArchitectureSpec",
    "OperandStatistics",
    "RAELLA_ARCH",
    "RAELLA_NO_SPEC_ARCH",
    "ISAAC_ARCH",
    "ComponentLibrary",
    "EnergyBreakdown",
    "EnergyModel",
    "DnnMapping",
    "Mapper",
    "ThroughputModel",
    "ThroughputReport",
    "TitaniumLawTerms",
    "titanium_law",
]
