"""Noise-tolerance study: accuracy under analog variation (Fig. 15).

Trains an MLP on a synthetic classification task, then evaluates it on the
functional crossbar simulator under increasing Gaussian column-sum noise for
two setups: the ISAAC baseline (dense unsigned arithmetic) and full RAELLA
(Center+Offset + noise-aware Adaptive Weight Slicing + speculation/recovery).

Run with:  python examples/noise_tolerance.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.analog.noise import GaussianColumnNoise
from repro.baselines.isaac import IsaacBaseline
from repro.core.adaptive_slicing import AdaptiveSlicingConfig
from repro.core.compiler import RaellaCompiler, RaellaCompilerConfig
from repro.nn.datasets import gaussian_clusters
from repro.nn.training import evaluate_accuracy, train_mlp

NOISE_LEVELS = (0.0, 0.04, 0.08, 0.12)


def main() -> None:
    print("Training an MLP on the synthetic Gaussian-cluster task ...")
    dataset = gaussian_clusters(seed=0)
    training = train_mlp(dataset, epochs=25, seed=0)
    flat = replace(
        dataset,
        x_train=dataset.x_train.reshape(len(dataset.x_train), -1),
        x_test=dataset.x_test.reshape(len(dataset.x_test), -1),
    )
    print(f"float accuracy: {training.float_accuracy:.3f}, "
          f"exact 8-bit accuracy: {training.quantized_accuracy:.3f}\n")

    configs = {
        "isaac": RaellaCompilerConfig(
            pim=IsaacBaseline().pim_config(),
            adaptive_slicing_enabled=False,
            n_test_inputs=4,
        ),
        "raella": RaellaCompilerConfig(
            adaptive=AdaptiveSlicingConfig(max_test_patches=192), n_test_inputs=4
        ),
    }

    print(f"{'noise':>8s}  " + "  ".join(f"{name:>10s}" for name in configs))
    for level in NOISE_LEVELS:
        row = []
        for name, config in configs.items():
            noise = GaussianColumnNoise(level=level, seed=0) if level else None
            program = RaellaCompiler(config, noise=noise).compile(
                training.model, test_inputs=flat.x_train[:4]
            )
            accuracy = evaluate_accuracy(
                training.model,
                flat,
                pim_matmul=program.pim_matmul,
                max_samples=200,
                micro_batch=64,
            )
            row.append(accuracy)
        print(f"{level:8.2f}  " + "  ".join(f"{acc:10.3f}" for acc in row))

    print("\nRAELLA's noise-aware slicing search picks more, narrower weight "
          "slices as noise grows, preserving accuracy without retraining.")


if __name__ == "__main__":
    main()
