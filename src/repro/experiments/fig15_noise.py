"""Fig. 15: accuracy under increasing analog noise.

Column sums are perturbed with the Gaussian noise model of Section 7.2
(standard deviation ``E * sqrt(N+ + N-)``) and DNN accuracy is measured for
the four ablation setups.  The paper's findings, reproduced here on trained
synthetic-task models:

* ISAAC's dense unsigned slices generate large, high-noise analog values, so
  accuracy collapses at a few percent noise.
* Center+Offset moves much of the computation into the digital domain and
  increases bit sparsity, tolerating far more noise.
* Adaptive Weight Slicing is noise-aware: at higher noise it picks more,
  narrower slices and keeps accuracy.
* Speculation does not hurt accuracy because recovery re-converts failed
  columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analog.noise import GaussianColumnNoise
from repro.arithmetic.slicing import ISAAC_WEIGHT_SLICING
from repro.baselines.isaac import IsaacBaseline
from repro.core.adaptive_slicing import AdaptiveSlicingConfig
from repro.core.compiler import RaellaCompiler, RaellaCompilerConfig
from repro.core.dynamic_input import SpeculationMode
from repro.core.executor import PimLayerConfig
from repro.experiments.runner import ExperimentResult
from repro.nn.datasets import ClassificationDataset, gaussian_clusters
from repro.nn.training import evaluate_accuracy, train_mlp

__all__ = ["NoisePoint", "Fig15Result", "run_fig15", "format_fig15"]

#: Default noise levels swept (the paper sweeps up to 12%).
DEFAULT_NOISE_LEVELS = (0.0, 0.04, 0.08, 0.12)


@dataclass(frozen=True)
class NoisePoint:
    """Accuracy of one setup at one noise level."""

    setup: str
    noise_level: float
    accuracy: float
    accuracy_drop_pct: float


@dataclass
class Fig15Result:
    """Accuracy-vs-noise sweep results."""

    task_name: str
    quantized_accuracy: float
    points: list[NoisePoint] = field(default_factory=list)
    setup_names: tuple[str, ...] = ()

    def series(self, setup: str) -> list[NoisePoint]:
        """All points of one setup, ordered by noise level."""
        return sorted(
            (p for p in self.points if p.setup == setup), key=lambda p: p.noise_level
        )

    def drop_at(self, setup: str, noise_level: float) -> float:
        """Accuracy drop of a setup at a given noise level."""
        for point in self.points:
            if point.setup == setup and point.noise_level == noise_level:
                return point.accuracy_drop_pct
        raise KeyError(f"no point for {setup!r} at noise {noise_level}")


def _setup_configs() -> dict[str, RaellaCompilerConfig]:
    """Compiler configurations of the four ablation setups."""
    isaac_pim = IsaacBaseline().pim_config()
    center_offset_pim = PimLayerConfig(
        weight_slicing=ISAAC_WEIGHT_SLICING,
        speculation=SpeculationMode.BIT_SERIAL,
    )
    adaptive_pim = PimLayerConfig(speculation=SpeculationMode.BIT_SERIAL)
    raella_pim = PimLayerConfig()
    adaptive_cfg = AdaptiveSlicingConfig(max_test_patches=128)
    return {
        "isaac": RaellaCompilerConfig(
            pim=isaac_pim, adaptive_slicing_enabled=False, n_test_inputs=4
        ),
        "center_offset": RaellaCompilerConfig(
            pim=center_offset_pim, adaptive_slicing_enabled=False, n_test_inputs=4
        ),
        "center_offset+adaptive": RaellaCompilerConfig(
            pim=adaptive_pim, adaptive=adaptive_cfg, n_test_inputs=4
        ),
        "raella": RaellaCompilerConfig(
            pim=raella_pim, adaptive=adaptive_cfg, n_test_inputs=4
        ),
    }


def run_fig15(
    noise_levels: tuple[float, ...] = DEFAULT_NOISE_LEVELS,
    max_samples: int = 150,
    seed: int = 0,
    epochs: int = 25,
    dataset: ClassificationDataset | None = None,
) -> Fig15Result:
    """Sweep analog noise and measure accuracy for each ablation setup."""
    dataset = dataset or gaussian_clusters(seed=seed)
    training = train_mlp(dataset, epochs=epochs, seed=seed)
    model = training.model
    flat_dataset = replace(
        dataset,
        x_train=dataset.x_train.reshape(len(dataset.x_train), -1),
        x_test=dataset.x_test.reshape(len(dataset.x_test), -1),
    )
    configs = _setup_configs()
    result = Fig15Result(
        task_name=dataset.name,
        quantized_accuracy=training.quantized_accuracy,
        setup_names=tuple(configs),
    )
    test_inputs = flat_dataset.x_train[:4]
    for setup, config in configs.items():
        for level in noise_levels:
            noise = GaussianColumnNoise(level=level, seed=seed) if level else None
            program = RaellaCompiler(config, noise=noise).compile(
                model, test_inputs=test_inputs, seed=seed
            )
            accuracy = evaluate_accuracy(
                model,
                flat_dataset,
                pim_matmul=program.pim_matmul,
                max_samples=max_samples,
            )
            result.points.append(
                NoisePoint(
                    setup=setup,
                    noise_level=level,
                    accuracy=accuracy,
                    accuracy_drop_pct=100.0
                    * (training.quantized_accuracy - accuracy),
                )
            )
    return result


def format_fig15(result: Fig15Result) -> str:
    """Render the accuracy-vs-noise sweep."""
    table = ExperimentResult(
        name=f"Fig. 15 -- accuracy under analog noise ({result.task_name})",
        headers=("setup", "noise level", "accuracy", "drop (pp)"),
    )
    for setup in result.setup_names:
        for point in result.series(setup):
            table.add_row(
                setup, point.noise_level, point.accuracy, point.accuracy_drop_pct
            )
    return table.to_text()


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(format_fig15(run_fig15()))
