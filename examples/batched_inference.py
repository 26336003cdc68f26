"""Batched inference with the vectorized runtime engine.

The :mod:`repro.runtime` subsystem rebuilds the simulator's hot path as a
batched execution engine: all 11 Dynamic Input Slicing phases of a crossbar
chunk are extracted in one tensor and pushed through a single fused GEMM, and
weight encodings are cached so repeated experiments never re-run center
optimisation.  This example shows the three pieces working together:

1. compile a model once into a :class:`~repro.runtime.NetworkEngine`,
2. stream a large batch through it with micro-batching,
3. rebuild the engine (as a repeated experiment would) and watch the
   encoded-weight cache make construction essentially free,

and verifies, on a 2-image subset, that the engine's outputs and every
statistics counter are bit-identical to per-phase oracle executors
(:class:`~repro.core.executor.PimLayerExecutor`) built from each compiled
layer's config.  It exits non-zero on a mismatch.

Run with:  python examples/batched_inference.py
"""

from __future__ import annotations

import time
from dataclasses import fields

import numpy as np

from repro.core.adaptive_slicing import AdaptiveSlicingConfig
from repro.core.compiler import RaellaCompilerConfig
from repro.core.executor import PimLayerExecutor
from repro.nn.synthetic import synthetic_images
from repro.nn.zoo import resnet18_like
from repro.runtime import GLOBAL_WEIGHT_CACHE, NetworkEngine


def counters(stats) -> dict:
    """The scalar statistics counters of one layer, for exact comparison."""
    skip = ("layer_name", "column_sums")
    return {f.name: getattr(stats, f.name) for f in fields(stats) if f.name not in skip}


def main() -> None:
    rng = np.random.default_rng(0)
    model = resnet18_like(seed=0)
    config = RaellaCompilerConfig(
        adaptive=AdaptiveSlicingConfig(max_test_patches=256), n_test_inputs=2
    )

    print("== 1. Compile once into a vectorized NetworkEngine ==")
    start = time.perf_counter()
    engine = NetworkEngine.compile(model, config=config, seed=0, micro_batch=8)
    first_build = time.perf_counter() - start
    print(f"  first compile: {first_build:.2f}s "
          f"(center optimisation + weight encoding, now cached)")

    print("\n== 2. Stream a batch through the engine ==")
    inputs = synthetic_images(16, model.input_shape, rng)
    start = time.perf_counter()
    outputs = engine.run(inputs)  # micro-batched: 8 samples per pass
    run_time = time.perf_counter() - start
    stats = engine.network_statistics()
    print(f"  {inputs.shape[0]} samples in {run_time:.2f}s "
          f"({inputs.shape[0] / run_time:.1f} samples/s)")
    print(f"  ADC converts/MAC:     {stats.converts_per_mac:.4f}")
    print(f"  speculation failures: {stats.speculation_failure_rate:.2%}")

    print("\n== 3. Rebuild the engine: encoded weights come from the cache ==")
    start = time.perf_counter()
    NetworkEngine.compile(model, config=config, seed=0)
    rebuild = time.perf_counter() - start
    print(f"  rebuild: {rebuild:.2f}s (was {first_build:.2f}s); "
          f"cache: {GLOBAL_WEIGHT_CACHE.hits} hits / "
          f"{GLOBAL_WEIGHT_CACHE.misses} misses")

    print("\n== 4. Verify against per-phase oracle executors ==")
    subset = inputs[:2]  # the oracle loops over phases in Python: keep it small
    oracle = NetworkEngine(
        model,
        {
            name: PimLayerExecutor(executor.layer, executor.config)
            for name, executor in engine.executors.items()
        },
    )
    engine.reset_statistics()
    fast = engine.run(subset)
    identical = np.array_equal(fast, oracle.run(subset))
    identical = identical and np.array_equal(fast, outputs[: len(subset)])
    mismatched = [
        name
        for name, stats in engine.layer_statistics().items()
        if counters(stats) != counters(oracle.executors[name].stats)
    ]
    print(f"  {len(subset)} images, outputs bit-identical: {identical}")
    print(f"  layers with differing counters: {mismatched or 'none'}")
    if not identical or mismatched:
        raise SystemExit("vectorized engine diverged from the per-phase oracle")


if __name__ == "__main__":
    main()
