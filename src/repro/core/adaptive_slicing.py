"""Adaptive Weight Slicing (Section 4.2, Algorithm 1).

For every DNN layer RAELLA chooses, at compilation time, how many bits to put
in each weight slice.  Fewer, wider slices are denser and need fewer ADC
conversions but produce larger column sums and more saturation; the algorithm
picks the slicing with the fewest slices whose measured output error stays
under an *error budget* (0.09 by default: roughly one in eleven 8-bit outputs
off by one).

Error is measured empirically, exactly as in the paper: the layer is simulated
on crossbars with a handful of test inputs and conservative 1-bit input
slices, outputs are requantized to 8 bits, and the mean absolute code error
over non-zero expected outputs is compared against the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analog.noise import NoiseModel
from repro.arithmetic.slicing import Slicing, enumerate_slicings
from repro.core.dynamic_input import SpeculationMode
from repro.core.executor import PimLayerConfig, PimLayerExecutor
from repro.nn.layers import MatmulLayer

__all__ = [
    "AdaptiveSlicingConfig",
    "SlicingChoice",
    "quantized_layer_outputs",
    "layer_output_error",
    "choose_weight_slicing",
]


@dataclass(frozen=True)
class AdaptiveSlicingConfig:
    """Configuration of the weight-slicing search.

    Parameters
    ----------
    error_budget:
        Mean absolute 8-bit output-code error allowed per non-zero output
        (0.09 in the paper).
    device_bits:
        Maximum bits per ReRAM device (4).
    weight_bits:
        Operand width (8).
    max_test_patches:
        Upper bound on the number of input patches used to measure error;
        patches beyond this are subsampled deterministically.  The paper uses
        activations from ten images, which for large layers is far more
        patches than needed to see order-of-magnitude error differences.
    group_early_stop:
        If true (default), slicings are evaluated in groups of increasing
        slice count and the search stops at the first group containing an
        under-budget slicing -- the outcome matches the exhaustive search of
        Algorithm 1 (fewest slices, then lowest error) at a fraction of the
        cost.  Set to false to sweep all 108 slicings.
    conservative_last_layer:
        Use the most conservative eight 1-bit weight slices for the model's
        last layer (Section 4.2.2).
    """

    error_budget: float = 0.09
    device_bits: int = 4
    weight_bits: int = 8
    max_test_patches: int = 512
    group_early_stop: bool = True
    conservative_last_layer: bool = True

    def __post_init__(self) -> None:
        if self.error_budget < 0:
            raise ValueError("error budget must be non-negative")
        if self.max_test_patches <= 0:
            raise ValueError("max_test_patches must be positive")

    @property
    def candidate_slicings(self) -> tuple[Slicing, ...]:
        """All candidate weight slicings (108 for 8-bit weights, 4-bit devices)."""
        return enumerate_slicings(self.weight_bits, self.device_bits)

    @property
    def most_conservative_slicing(self) -> Slicing:
        """The 1-bit-per-slice slicing."""
        return Slicing((1,) * self.weight_bits)


@dataclass
class SlicingChoice:
    """Result of the weight-slicing search for one layer."""

    layer_name: str
    slicing: Slicing
    mean_error: float
    within_budget: bool
    evaluated: list[tuple[Slicing, float]] = field(default_factory=list)

    @property
    def n_slices(self) -> int:
        """Number of weight slices chosen."""
        return self.slicing.n_slices


def _subsample_patches(patch_codes: np.ndarray, max_patches: int) -> np.ndarray:
    """Deterministically subsample input patches to bound search cost."""
    patch_codes = np.asarray(patch_codes, dtype=np.int64)
    if patch_codes.shape[0] <= max_patches:
        return patch_codes
    stride = patch_codes.shape[0] / max_patches
    indices = (np.arange(max_patches) * stride).astype(np.int64)
    return patch_codes[indices]


def quantized_layer_outputs(
    layer: MatmulLayer, patch_codes: np.ndarray, pim_matmul=None
) -> np.ndarray:
    """8-bit output codes of one layer for a batch of input patches.

    Runs the layer's digital pipeline (zero-point correction, bias, fused ReLU
    and requantization) on top of either the exact integer mat-mul
    (``pim_matmul=None``) or a PIM simulation.  The codes are in the output
    quantization's narrow :attr:`~repro.nn.layers.TensorQuant.code_dtype`.
    """
    real = layer.matmul_quantized(patch_codes, pim_matmul=pim_matmul)
    if layer.fuse_relu:
        real = np.maximum(real, 0.0)
    return layer.output_quant.quantize(real)


def layer_output_error(
    layer: MatmulLayer,
    patch_codes: np.ndarray,
    pim_config: PimLayerConfig,
    noise: NoiseModel | None = None,
    expected: np.ndarray | None = None,
    executor_factory: type[PimLayerExecutor] | None = None,
) -> float:
    """Mean absolute 8-bit output error of a PIM configuration on test inputs.

    The error is averaged over outputs whose expected code is non-zero,
    matching the error-budget definition of Section 4.2.1.
    ``executor_factory`` swaps in a different executor implementation (the
    vectorized runtime executor keeps the search bit-identical while caching
    trial encodings).
    """
    if expected is None:
        expected = quantized_layer_outputs(layer, patch_codes)
    factory = executor_factory or PimLayerExecutor
    executor = factory(layer, pim_config, noise=noise)
    actual = quantized_layer_outputs(layer, patch_codes, pim_matmul=executor)
    # Output codes come in the narrow code dtype, where a difference would
    # wrap around: widen before subtracting.
    expected = np.asarray(expected, dtype=np.int64)
    actual = actual.astype(np.int64)
    nonzero = expected != 0
    if not np.any(nonzero):
        return float(np.mean(np.abs(expected - actual)))
    return float(np.mean(np.abs(expected[nonzero] - actual[nonzero])))


def choose_weight_slicing(
    layer: MatmulLayer,
    patch_codes: np.ndarray,
    config: AdaptiveSlicingConfig | None = None,
    pim_config: PimLayerConfig | None = None,
    noise: NoiseModel | None = None,
    is_last_layer: bool = False,
    executor_factory: type[PimLayerExecutor] | None = None,
) -> SlicingChoice:
    """Choose a layer's weight slicing (Algorithm 1, ``FindBestSlicing``).

    Parameters
    ----------
    layer:
        The calibrated mat-mul layer.
    patch_codes:
        Test-input patch codes captured for this layer
        (:meth:`repro.nn.model.QuantizedModel.capture_layer_inputs`).
    config:
        Search configuration (budget, early stopping, ...).
    pim_config:
        Base PIM configuration (crossbar size, ADC, encoding).  The search
        always measures error with conservative 1-bit input slices, as in the
        paper; only the weight slicing varies.
    noise:
        Optional analog noise model -- the search is noise-aware (Section 7.2).
    is_last_layer:
        Force the most conservative slicing for the model's last layer.
    """
    config = config or AdaptiveSlicingConfig()
    pim_config = pim_config or PimLayerConfig()
    if is_last_layer and config.conservative_last_layer:
        return SlicingChoice(
            layer_name=layer.name,
            slicing=config.most_conservative_slicing,
            mean_error=0.0,
            within_budget=True,
        )

    patches = _subsample_patches(patch_codes, config.max_test_patches)
    expected = quantized_layer_outputs(layer, patches)
    # The paper compares slicings with the most conservative 1-bit input
    # slices (Section 4.2.2), regardless of the runtime input slicing.
    search_config = pim_config.with_changes(
        speculation=SpeculationMode.BIT_SERIAL,
        serial_input_slicing=None,
        device_bits=config.device_bits,
    )

    evaluated: list[tuple[Slicing, float]] = []
    best: tuple[Slicing, float] | None = None
    current_group: int | None = None
    for slicing in config.candidate_slicings:
        if (
            config.group_early_stop
            and best is not None
            and slicing.n_slices > current_group
        ):
            break
        error = layer_output_error(
            layer,
            patches,
            search_config.with_changes(weight_slicing=slicing),
            noise=noise,
            expected=expected,
            executor_factory=executor_factory,
        )
        evaluated.append((slicing, error))
        current_group = slicing.n_slices
        is_better = best is None or (slicing.n_slices, error) < (
            best[0].n_slices,
            best[1],
        )
        if error < config.error_budget and is_better:
            best = (slicing, error)

    if best is None:
        # No slicing met the budget; fall back to the most conservative one.
        fallback = config.most_conservative_slicing
        error = layer_output_error(
            layer,
            patches,
            search_config.with_changes(weight_slicing=fallback),
            noise=noise,
            expected=expected,
            executor_factory=executor_factory,
        )
        return SlicingChoice(
            layer_name=layer.name,
            slicing=fallback,
            mean_error=error,
            within_budget=error < config.error_budget,
            evaluated=evaluated,
        )
    return SlicingChoice(
        layer_name=layer.name,
        slicing=best[0],
        mean_error=best[1],
        within_budget=True,
        evaluated=evaluated,
    )
