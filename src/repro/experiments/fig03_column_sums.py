"""Fig. 3: column-sum distributions under RAELLA's successive strategies.

Starting from a 512-row crossbar with 4-bit input and weight slices, the
paper applies Center+Offset, Adaptive Weight Slicing and Dynamic Input Slicing
in turn and shows how each tightens the column-sum distribution until a signed
7-bit ADC range ([-64, 64)) captures almost every sum.  This experiment
reproduces the distributions and the "fraction of column sums representable in
<= 7 bits" numbers (59.2% -> 82.1% -> 98.0% / 99.9% in the paper) on the
runnable shape-faithful models, plus the final accepted fidelity-loss rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arithmetic.slicing import Slicing
from repro.core.adaptive_slicing import AdaptiveSlicingConfig, choose_weight_slicing
from repro.core.center_offset import WeightEncoding
from repro.core.dynamic_input import SpeculationMode
from repro.core.executor import PimLayerConfig
from repro.experiments.runner import ExperimentResult
from repro.nn.model import QuantizedModel
from repro.nn.synthetic import synthetic_images
from repro.nn.zoo import resnet18_like
from repro.runtime import VectorizedLayerExecutor

__all__ = ["ColumnSumSetupResult", "Fig03Result", "run_fig03", "format_fig03"]

#: Signed 7-bit ADC range RAELLA captures without fidelity loss.
ADC_RANGE = (-64, 63)


@dataclass
class ColumnSumSetupResult:
    """Column-sum statistics for one strategy setup."""

    setup: str
    column_sums: dict[str, np.ndarray]
    fidelity_loss_rate: float
    speculation_failure_rate: float

    def within_adc_fraction(self, kind: str) -> float:
        """Fraction of column sums of one phase kind inside the 7b ADC range."""
        sums = self.column_sums.get(kind)
        if sums is None or sums.size == 0:
            return float("nan")
        lo, hi = ADC_RANGE
        return float(np.mean((sums >= lo) & (sums <= hi)))

    @property
    def primary_kind(self) -> str:
        """The phase kind whose distribution the figure plots for this setup."""
        if "speculative" in self.column_sums:
            return "speculative"
        return "serial"


@dataclass
class Fig03Result:
    """Column-sum statistics for the full strategy progression."""

    model_name: str
    layer_name: str
    setups: list[ColumnSumSetupResult] = field(default_factory=list)


def _collect(layer, patches, config, max_samples: int) -> ColumnSumSetupResult:
    # The vectorized runtime executor is bit-identical to the per-phase path
    # and shares weight encodings across the four setups.
    executor = VectorizedLayerExecutor(
        layer,
        config.with_changes(
            collect_column_sums=True, max_column_sum_samples=max_samples
        ),
    )
    executor.matmul(patches)
    sums = {
        kind: executor.stats.column_sum_array(kind)
        for kind in executor.stats.column_sums
    }
    return ColumnSumSetupResult(
        setup="",
        column_sums=sums,
        fidelity_loss_rate=executor.stats.fidelity_loss_rate,
        speculation_failure_rate=executor.stats.speculation_failure_rate,
    )


def run_fig03(
    model: QuantizedModel | None = None,
    layer_index: int = 3,
    n_inputs: int = 2,
    max_samples: int = 200_000,
    seed: int = 0,
) -> Fig03Result:
    """Measure column-sum distributions for the four strategy setups.

    The paper uses ResNet18 on ImageNet; here the runnable ResNet18-flavoured
    model with synthetic inputs stands in (see DESIGN.md).
    """
    model = model or resnet18_like(seed=seed)
    rng = np.random.default_rng(seed)
    inputs = synthetic_images(n_inputs, model.input_shape, rng)
    captured = model.capture_layer_inputs(inputs)
    layer = model.matmul_layers()[layer_index]
    patches = captured[layer.name].patch_codes

    four_bit = Slicing((4, 4))
    result = Fig03Result(model_name=model.name, layer_name=layer.name)

    # 1. Baseline: unsigned weights, 4b input/weight slices, 512 rows.
    baseline_cfg = PimLayerConfig(
        adc_bits=7,
        adc_signed=False,
        weight_encoding=WeightEncoding.UNSIGNED,
        weight_slicing=four_bit,
        speculation=SpeculationMode.BIT_SERIAL,
        serial_input_slicing=four_bit,
    )
    setup = _collect(layer, patches, baseline_cfg, max_samples)
    setup.setup = "baseline (unsigned, 4b/4b slices)"
    result.setups.append(setup)

    # 2. + Center+Offset.
    co_cfg = baseline_cfg.with_changes(
        adc_signed=True, weight_encoding=WeightEncoding.CENTER_OFFSET
    )
    setup = _collect(layer, patches, co_cfg, max_samples)
    setup.setup = "+ Center+Offset"
    result.setups.append(setup)

    # 3. + Adaptive Weight Slicing.
    choice = choose_weight_slicing(
        layer,
        patches,
        config=AdaptiveSlicingConfig(max_test_patches=256),
        pim_config=co_cfg,
    )
    aws_cfg = co_cfg.with_changes(weight_slicing=choice.slicing)
    setup = _collect(layer, patches, aws_cfg, max_samples)
    setup.setup = f"+ Adaptive Weight Slicing ({choice.slicing})"
    result.setups.append(setup)

    # 4. + Dynamic Input Slicing (speculation + recovery).
    raella_cfg = aws_cfg.with_changes(
        speculation=SpeculationMode.SPECULATIVE, serial_input_slicing=None
    )
    setup = _collect(layer, patches, raella_cfg, max_samples)
    setup.setup = "+ Dynamic Input Slicing (RAELLA)"
    result.setups.append(setup)
    return result


def format_fig03(result: Fig03Result) -> str:
    """Render the Fig. 3 saturation/fidelity table."""
    table = ExperimentResult(
        name=f"Fig. 3 -- column sums ({result.model_name}, {result.layer_name})",
        headers=(
            "setup",
            "phase",
            "<=7b fraction",
            "fidelity loss",
            "spec failures",
        ),
    )
    for setup in result.setups:
        for kind in sorted(setup.column_sums):
            table.add_row(
                setup.setup,
                kind,
                setup.within_adc_fraction(kind),
                setup.fidelity_loss_rate,
                setup.speculation_failure_rate,
            )
    return table.to_text()


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(format_fig03(run_fig03()))
