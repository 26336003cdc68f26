"""Microbenchmarks of the core simulation kernels.

Not a paper artifact: these track the performance of the building blocks that
every experiment relies on (center optimisation, weight encoding, and the
crossbar executor in speculative and bit-serial modes), plus the vectorized
:mod:`repro.runtime` executor against the per-phase reference.
"""

import os
import time

import numpy as np
import pytest

from repro.arithmetic.slicing import RAELLA_DEFAULT_WEIGHT_SLICING
from repro.core.center_offset import (
    CENTER_CANDIDATES,
    CenterOffsetEncoder,
    _slice_column_cost,
    optimal_centers,
)
from repro.core.dynamic_input import SpeculationMode
from repro.core.executor import PimLayerConfig, PimLayerExecutor
from repro.nn.layers import Linear
from repro.nn.synthetic import synthetic_linear_weights
from repro.runtime import VectorizedLayerExecutor


@pytest.fixture(scope="module")
def medium_layer():
    rng = np.random.default_rng(0)
    layer = Linear(
        "bench_fc", synthetic_linear_weights(64, 384, rng, std=0.1), fuse_relu=True
    )
    inputs = np.abs(rng.normal(0, 1, size=(64, 384)))
    layer.calibrate(inputs, layer.forward_float(inputs))
    patches = layer.input_quant.quantize(inputs)
    return layer, patches


def test_kernel_center_optimisation(benchmark, medium_layer):
    layer, _ = medium_layer
    centers = benchmark(
        optimal_centers, layer.weight_codes, RAELLA_DEFAULT_WEIGHT_SLICING
    )
    assert centers.shape == (64,)


def test_center_search_speedup(medium_layer):
    """The histogram-GEMM Eq. 2 search must beat the elementwise one >= 10x.

    Both return bit-identical centers.  A 2-vCPU host measures ~175x
    (250 ms vs 1.4 ms).  MIN_CENTER_SEARCH_SPEEDUP relaxes the threshold on
    noisy shared runners without weakening the local bar.
    """
    minimum = float(os.environ.get("MIN_CENTER_SEARCH_SPEEDUP", "10.0"))
    layer, _ = medium_layer
    codes = layer.weight_codes
    slicing = RAELLA_DEFAULT_WEIGHT_SLICING

    def elementwise():
        offsets = codes.T[np.newaxis] - CENTER_CANDIDATES[:, np.newaxis, np.newaxis]
        costs = _slice_column_cost(offsets, slicing, 4.0)
        return CENTER_CANDIDATES[np.argmin(costs, axis=0)]

    def best_of(search, rounds):
        search()  # warm-up
        timings = []
        for _ in range(rounds):
            start = time.perf_counter()
            result = search()
            timings.append(time.perf_counter() - start)
        return min(timings), result

    reference_time, reference_centers = best_of(elementwise, 3)
    gemm_time, centers = best_of(lambda: optimal_centers(codes, slicing), 15)
    assert centers.tobytes() == reference_centers.tobytes()
    speedup = reference_time / gemm_time
    assert speedup >= minimum, f"center search speedup only {speedup:.1f}x"


def test_kernel_weight_encoding(benchmark, medium_layer):
    layer, _ = medium_layer
    encoder = CenterOffsetEncoder(RAELLA_DEFAULT_WEIGHT_SLICING)
    encoded = benchmark(encoder.encode, layer.weight_codes, layer.weight_zero_point)
    assert np.array_equal(encoded.reconstruct_codes(), layer.weight_codes)


def test_kernel_speculative_executor(benchmark, medium_layer):
    layer, patches = medium_layer
    executor = PimLayerExecutor(layer, PimLayerConfig())
    result = benchmark(executor.matmul, patches)
    assert result.shape == (64, 64)


def test_kernel_bit_serial_executor(benchmark, medium_layer):
    layer, patches = medium_layer
    executor = PimLayerExecutor(
        layer, PimLayerConfig(speculation=SpeculationMode.BIT_SERIAL)
    )
    result = benchmark(executor.matmul, patches)
    assert result.shape == (64, 64)


def test_kernel_speculative_executor_vectorized(benchmark, medium_layer):
    layer, patches = medium_layer
    executor = VectorizedLayerExecutor(layer, PimLayerConfig())
    result = benchmark(executor.matmul, patches)
    assert result.shape == (64, 64)


def test_kernel_bit_serial_executor_vectorized(benchmark, medium_layer):
    layer, patches = medium_layer
    executor = VectorizedLayerExecutor(
        layer, PimLayerConfig(speculation=SpeculationMode.BIT_SERIAL)
    )
    result = benchmark(executor.matmul, patches)
    assert result.shape == (64, 64)


def test_vectorized_speculative_speedup(medium_layer):
    """The batched engine must beat the per-phase RAELLA hot path >= 3x.

    Typical local measurements are 5-10x.  MIN_VECTORIZED_SPEEDUP relaxes the
    threshold on noisy shared runners (CI sets 1.5) without weakening the
    local bar.
    """
    minimum = float(os.environ.get("MIN_VECTORIZED_SPEEDUP", "3.0"))
    layer, patches = medium_layer
    config = PimLayerConfig()
    reference = PimLayerExecutor(layer, config)
    vectorized = VectorizedLayerExecutor(layer, config)

    def best_of(executor, rounds=7):
        executor.matmul(patches)  # warm-up
        timings = []
        for _ in range(rounds):
            start = time.perf_counter()
            result = executor.matmul(patches)
            timings.append(time.perf_counter() - start)
        return min(timings), result

    reference_time, reference_result = best_of(reference)
    vectorized_time, vectorized_result = best_of(vectorized)
    assert np.array_equal(reference_result, vectorized_result)
    speedup = reference_time / vectorized_time
    assert speedup >= minimum, f"vectorized speedup only {speedup:.2f}x"


@pytest.fixture(scope="module")
def conv1_shaped_layer():
    """A conv1-shaped matmul: 2048 patches of a 3x3x32 window, 32 filters."""
    rng = np.random.default_rng(1)
    layer = Linear(
        "bench_conv1", synthetic_linear_weights(32, 288, rng, std=0.1), fuse_relu=True
    )
    inputs = np.abs(rng.normal(0, 1, size=(2048, 288)))
    layer.calibrate(inputs[:256], layer.forward_float(inputs[:256]))
    patches = layer.input_quant.quantize(inputs)
    return layer, patches


def test_vectorized_large_batch_speedup(conv1_shaped_layer):
    """The planned kernel must beat the per-phase reference at large M too.

    The M=64 gate above misses the regime of an offline forward pass, where
    the bit-plane GEMM and the exact-product reassembly carry the work.  A
    2-vCPU host measures 43-60x here (best of 3 vs best of 7; the local bar
    of 25x sits near half the lowest).  MIN_LARGE_BATCH_SPEEDUP relaxes the
    threshold on noisy shared runners (CI sets 10).
    """
    minimum = float(os.environ.get("MIN_LARGE_BATCH_SPEEDUP", "25.0"))
    layer, patches = conv1_shaped_layer
    config = PimLayerConfig()
    reference = PimLayerExecutor(layer, config)
    vectorized = VectorizedLayerExecutor(layer, config)

    def best_of(executor, rounds):
        executor.matmul(patches)  # warm-up
        timings = []
        for _ in range(rounds):
            executor.reset_stats()
            start = time.perf_counter()
            result = executor.matmul(patches)
            timings.append(time.perf_counter() - start)
        return min(timings), result

    reference_time, reference_result = best_of(reference, 3)
    vectorized_time, vectorized_result = best_of(vectorized, 7)
    assert reference_result.tobytes() == vectorized_result.tobytes()
    assert vectorized.stats.fidelity_loss_events == reference.stats.fidelity_loss_events
    speedup = reference_time / vectorized_time
    assert speedup >= minimum, f"large-batch speedup only {speedup:.2f}x"
