"""The FORMS-8 baseline (Yuan et al., ISCA 2021).

FORMS is Weight-Count-Limited: it prunes DNN weights with fine-grained
polarisation to reduce MACs/DNN (2.0x on ResNet18 at the highest reported
pruning ratio) and retrains to recover the resulting accuracy loss.  The
substrate is ISAAC-like (128x128 crossbars, 8-bit ADC); the paper's
evaluation models it with the same components as ISAAC and RAELLA and reports
the retrained accuracy from the original publication.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.architecture import FORMS_ARCH, ArchitectureSpec
from repro.hw.energy import EnergyBreakdown, EnergyModel
from repro.hw.throughput import ThroughputModel, ThroughputReport
from repro.nn.zoo import ModelShapes

__all__ = ["FormsBaseline"]

#: Accuracy drops after pruning + retraining reported by FORMS (Table 4).
FORMS_REPORTED_ACCURACY_DROP = {"resnet18": 0.62, "resnet50": 0.70}


@dataclass
class FormsBaseline:
    """FORMS-8: pruned ISAAC-like architecture requiring retraining."""

    arch: ArchitectureSpec = field(default_factory=lambda: FORMS_ARCH)

    @property
    def requires_retraining(self) -> bool:
        """FORMS retrains to recover pruning-induced accuracy loss."""
        return True

    def energy(self, shapes: ModelShapes, batch_size: int = 1) -> EnergyBreakdown:
        """Energy breakdown for a full-scale DNN (after pruning)."""
        return EnergyModel(self.arch).model_energy(shapes, batch_size=batch_size)

    def throughput(self, shapes: ModelShapes) -> ThroughputReport:
        """Throughput report for a full-scale DNN (after pruning)."""
        return ThroughputModel(self.arch).evaluate(shapes)
