"""The TIMELY baseline (Li et al., ISCA 2020).

TIMELY is Sum-Fidelity-Limited: it pushes data movement into the analog
domain with analog local buffers, time-domain interfaces (TDCs instead of SAR
ADCs) and very large analog accumulation, reducing Converts/MAC by up to 512x
over ISAAC.  The cost is fidelity: 16 bits are dropped from each column sum,
so DNNs must be requantized and retrained.  The paper compares against
TIMELY's published numbers and rebuilds RAELLA with TIMELY's 65 nm analog
components for a like-for-like comparison (Fig. 13).

The cost model uses the 65 nm component library with cheap time-domain
conversions; the fidelity loss itself is not simulated: TIMELY keeps the top
8 bits of a 24-bit column sum and drops its 16 least significant bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.architecture import TIMELY_ARCH, ArchitectureSpec
from repro.hw.energy import EnergyBreakdown, EnergyModel
from repro.hw.throughput import ThroughputModel, ThroughputReport
from repro.nn.zoo import ModelShapes

__all__ = ["TimelyBaseline"]

#: Accuracy drops after requantization + retraining reported by TIMELY.
TIMELY_REPORTED_ACCURACY_DROP = {"resnet18": 0.1, "resnet50": 0.1}


@dataclass
class TimelyBaseline:
    """TIMELY: Sum-Fidelity-Limited architecture requiring retraining."""

    arch: ArchitectureSpec = field(default_factory=lambda: TIMELY_ARCH)

    @property
    def requires_retraining(self) -> bool:
        """TIMELY requantizes and retrains DNNs to tolerate fidelity loss."""
        return True

    def energy(self, shapes: ModelShapes, batch_size: int = 1) -> EnergyBreakdown:
        """Energy breakdown for a full-scale DNN."""
        return EnergyModel(self.arch).model_energy(shapes, batch_size=batch_size)

    def throughput(self, shapes: ModelShapes) -> ThroughputReport:
        """Throughput report for a full-scale DNN."""
        return ThroughputModel(self.arch).evaluate(shapes)
