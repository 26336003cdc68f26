"""Transformer feed-forward example: RAELLA with signed activations.

BERT-Large's feed-forward layers have signed inputs (post-GELU activations),
which RAELLA handles by processing positive and negative input magnitudes in
separate crossbar cycles (Section 5.1).  This example runs a scaled-down
Transformer FFN stack through the functional simulator and evaluates the
full-scale BERT-Large FFN shapes through the cost model.

Run with:  python examples/bert_feedforward.py
"""

from __future__ import annotations

import numpy as np

from repro.core.accelerator import RaellaAccelerator
from repro.core.adaptive_slicing import AdaptiveSlicingConfig
from repro.core.compiler import RaellaCompiler, RaellaCompilerConfig
from repro.hw.architecture import ISAAC_ARCH, RAELLA_ARCH
from repro.nn.synthetic import synthetic_signed_activations
from repro.nn.zoo import bert_large_ffn_like, model_shapes


def main() -> None:
    print("== Functional simulation of a scaled-down Transformer FFN ==")
    model = bert_large_ffn_like(seed=0)
    config = RaellaCompilerConfig(
        adaptive=AdaptiveSlicingConfig(max_test_patches=128), n_test_inputs=8
    )
    program = RaellaCompiler(config).compile(model, seed=0)

    rng = np.random.default_rng(1)
    tokens = synthetic_signed_activations((16, *model.input_shape), rng)
    accelerator = RaellaAccelerator()
    report = accelerator.run(program, tokens)
    exact = model.forward_quantized(tokens)
    error = np.abs(report.outputs - exact).mean()
    print(report.summary())
    print(f"  mean |output error| vs exact 8-bit: {error:.4f}")
    print("  (signed inputs are processed as two positive/negative passes,")
    print("   doubling cycles but preserving exactness of the digital path)")

    print("\n== Full-scale BERT-Large FFN through the cost model ==")
    shapes = model_shapes("bert_large_ffn")
    raella = RaellaAccelerator(arch=RAELLA_ARCH)
    isaac = RaellaAccelerator(arch=ISAAC_ARCH)
    raella_energy, raella_tp = raella.evaluate_shapes(shapes)
    isaac_energy, isaac_tp = isaac.evaluate_shapes(shapes)
    print(f"  MACs per sequence:        {shapes.total_macs / 1e9:.1f} G")
    print(f"  ISAAC  energy/sequence:   {isaac_energy.total_uj / 1e3:.2f} mJ")
    print(f"  RAELLA energy/sequence:   {raella_energy.total_uj / 1e3:.2f} mJ "
          f"({isaac_energy.total_uj / raella_energy.total_uj:.1f}x better)")
    print(f"  throughput gain:          "
          f"{raella_tp.throughput_samples_per_s / isaac_tp.throughput_samples_per_s:.1f}x")


if __name__ == "__main__":
    main()
