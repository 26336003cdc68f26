"""Quickstart: compile a DNN for RAELLA and run it on the accelerator model.

This example walks the full public API path:

1. build a runnable quantized model (a ResNet18-flavoured synthetic CNN),
2. compile it -- Adaptive Weight Slicing picks each layer's weight slicing and
   Center+Offset chooses per-filter centers,
3. execute it through the functional crossbar simulator with speculation and
   recovery, and
4. report accuracy fidelity against exact 8-bit execution plus the measured
   hardware costs (ADC converts/MAC, speculation failures, energy).

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core.accelerator import RaellaAccelerator
from repro.core.adaptive_slicing import AdaptiveSlicingConfig
from repro.core.compiler import RaellaCompiler, RaellaCompilerConfig
from repro.nn.synthetic import synthetic_images
from repro.nn.zoo import resnet18_like


def main() -> None:
    rng = np.random.default_rng(0)

    print("== 1. Build a quantized model ==")
    model = resnet18_like(seed=0)
    print(f"model: {model.name}, {len(model.matmul_layers())} crossbar-mapped layers, "
          f"{model.total_macs():,} MACs/sample")

    print("\n== 2. Compile for RAELLA (one-time preprocessing) ==")
    config = RaellaCompilerConfig(
        adaptive=AdaptiveSlicingConfig(error_budget=0.09, max_test_patches=256),
        n_test_inputs=2,
    )
    program = RaellaCompiler(config).compile(model, seed=0)
    for name, widths in program.slicing_summary().items():
        print(f"  {name:28s} -> {'-'.join(str(w) + 'b' for w in widths)}")

    print("\n== 3. Run inference through the analog crossbar simulator ==")
    inputs = synthetic_images(2, model.input_shape, rng)
    accelerator = RaellaAccelerator()
    report = accelerator.run(program, inputs)
    print(report.summary())

    print("\n== 4. Fidelity against exact 8-bit execution ==")
    exact = model.forward_quantized(inputs)
    error = np.abs(report.outputs - exact)
    print(f"  mean |output error|: {error.mean():.4f} "
          f"(output scale ~{np.abs(exact).max():.2f})")
    print(f"  ADC converts/MAC:    {report.converts_per_mac:.4f}")
    print(f"  speculation failures:{report.speculation_failure_rate:8.2%}")
    print(f"  fidelity loss rate:  {report.fidelity_loss_rate:.2e}")


if __name__ == "__main__":
    main()
