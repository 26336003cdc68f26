"""Compile a quantized model into a RAELLA program.

Compilation is the paper's one-time preprocessing (Algorithm 1 +
``FindOptimalCenters``): for every crossbar-mapped layer it

1. captures a handful of test-input activations,
2. chooses the layer's weight slicing under the error budget
   (:mod:`repro.core.adaptive_slicing`),
3. computes per-filter centers and encodes the weights
   (:mod:`repro.core.center_offset`), and
4. builds the layer's :class:`~repro.runtime.vectorized.VectorizedLayerExecutor`.

The slicing trials run that executor too.  It is bit-identical to the
per-phase :class:`~repro.core.executor.PimLayerExecutor` oracle, and it is
imported where it is built because :mod:`repro.runtime` imports this module.

The resulting :class:`RaellaProgram` plugs straight into
:meth:`repro.nn.model.QuantizedModel.forward_quantized` as the PIM mat-mul
hook and aggregates per-layer execution statistics for the hardware model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analog.noise import NoiseModel
from repro.core.adaptive_slicing import (
    AdaptiveSlicingConfig,
    SlicingChoice,
    choose_weight_slicing,
)
from repro.core.executor import LayerStatistics, PimLayerConfig, PimLayerExecutor
from repro.nn.layers import MatmulLayer
from repro.nn.model import QuantizedModel
from repro.nn.synthetic import synthetic_images, synthetic_signed_activations

__all__ = ["CompiledLayer", "RaellaProgram", "RaellaCompilerConfig", "RaellaCompiler"]


@dataclass
class CompiledLayer:
    """One layer's compilation result."""

    layer: MatmulLayer
    choice: SlicingChoice
    executor: PimLayerExecutor

    @property
    def name(self) -> str:
        """Layer name."""
        return self.layer.name

    @property
    def n_weight_slices(self) -> int:
        """Chosen number of weight slices."""
        return self.choice.slicing.n_slices

    @property
    def centers(self) -> np.ndarray:
        """Per-filter centers of the first crossbar row chunk."""
        return self.executor.encoded_chunks[0].centers


@dataclass
class RaellaProgram:
    """A compiled model: per-layer executors plus aggregate statistics."""

    model: QuantizedModel
    layers: dict[str, CompiledLayer]
    config: "RaellaCompilerConfig"

    def pim_matmul(self, input_codes: np.ndarray, layer: MatmulLayer) -> np.ndarray:
        """PIM mat-mul hook dispatching to the layer's executor."""
        compiled = self.layers.get(layer.name)
        if compiled is None:
            raise KeyError(f"layer {layer.name!r} was not compiled")
        return compiled.executor.matmul(input_codes)

    def run(self, inputs: np.ndarray, return_codes: bool = False) -> np.ndarray:
        """Run the model's integer path through the compiled executors."""
        return self.model.forward_quantized(
            inputs, pim_matmul=self.pim_matmul, return_codes=return_codes
        )

    def layer_statistics(self) -> dict[str, LayerStatistics]:
        """Per-layer accumulated statistics."""
        return {name: c.executor.stats for name, c in self.layers.items()}

    def aggregate_statistics(self) -> LayerStatistics:
        """Sum of all layers' statistics (totals, including crossbar counts)."""
        total = LayerStatistics(layer_name=self.model.name)
        for compiled in self.layers.values():
            total.merge_layers(compiled.executor.stats)
        return total

    def reset_statistics(self) -> None:
        """Clear accumulated statistics on every executor."""
        for compiled in self.layers.values():
            compiled.executor.reset_stats()

    def slicing_summary(self) -> dict[str, tuple[int, ...]]:
        """Chosen weight slicing widths per layer (Fig. 7 data)."""
        return {name: c.choice.slicing.widths for name, c in self.layers.items()}


@dataclass(frozen=True)
class RaellaCompilerConfig:
    """Compiler configuration.

    Parameters
    ----------
    pim:
        Base PIM configuration used for the final executors (crossbar size,
        ADC resolution, encoding, speculation mode).
    adaptive:
        Adaptive Weight Slicing search configuration.
    adaptive_slicing_enabled:
        If false, every layer uses ``pim.weight_slicing`` unchanged (used by
        the ablation setups).
    n_test_inputs:
        Number of test inputs used for preprocessing (10 in the paper).
    """

    pim: PimLayerConfig = field(default_factory=PimLayerConfig)
    adaptive: AdaptiveSlicingConfig = field(default_factory=AdaptiveSlicingConfig)
    adaptive_slicing_enabled: bool = True
    n_test_inputs: int = 10


class RaellaCompiler:
    """Compiles calibrated quantized models for PIM execution.

    Parameters
    ----------
    config:
        Compiler configuration.
    noise:
        Optional column-sum noise model shared by all executors.
    executor_factory:
        Executor class for the final per-layer executors; defaults to
        :class:`~repro.runtime.vectorized.VectorizedLayerExecutor`.  It stays
        only because ``perfbench/offline.py`` passes it; the slicing search
        always runs the vectorized executor.
    """

    def __init__(
        self,
        config: RaellaCompilerConfig | None = None,
        noise: NoiseModel | None = None,
        executor_factory: type[PimLayerExecutor] | None = None,
    ):
        self.config = config or RaellaCompilerConfig()
        self.noise = noise
        if executor_factory is None:
            from repro.runtime.vectorized import VectorizedLayerExecutor

            executor_factory = VectorizedLayerExecutor
        self.executor_factory = executor_factory

    def _default_test_inputs(self, model: QuantizedModel, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        n = self.config.n_test_inputs
        if len(model.input_shape) == 3:
            return synthetic_images(n, model.input_shape, rng)
        if model.signed_input:
            return synthetic_signed_activations((n, *model.input_shape), rng)
        return np.abs(rng.normal(0.0, 1.0, size=(n, *model.input_shape)))

    def compile(
        self,
        model: QuantizedModel,
        test_inputs: np.ndarray | None = None,
        seed: int = 0,
    ) -> RaellaProgram:
        """Compile a calibrated model into a :class:`RaellaProgram`.

        Parameters
        ----------
        model:
            A calibrated :class:`~repro.nn.model.QuantizedModel`.
        test_inputs:
            Inputs used for preprocessing (ten validation images in the
            paper); synthetic inputs matching the model's input shape are
            generated when omitted.
        seed:
            Seed for generated test inputs.
        """
        if not model.is_calibrated:
            raise ValueError("model must be calibrated before compilation")
        if test_inputs is None:
            test_inputs = self._default_test_inputs(model, seed)
        captured = model.capture_layer_inputs(test_inputs)
        matmul_layers = model.matmul_layers()
        compiled: dict[str, CompiledLayer] = {}
        for index, layer in enumerate(matmul_layers):
            is_last = index == len(matmul_layers) - 1
            patch_codes = captured[layer.name].patch_codes
            if self.config.adaptive_slicing_enabled:
                choice = choose_weight_slicing(
                    layer,
                    patch_codes,
                    config=self.config.adaptive,
                    pim_config=self.config.pim,
                    noise=self.noise,
                    is_last_layer=is_last,
                )
            else:
                choice = SlicingChoice(
                    layer_name=layer.name,
                    slicing=self.config.pim.weight_slicing,
                    mean_error=float("nan"),
                    within_budget=True,
                )
            executor = self.executor_factory(
                layer,
                self.config.pim.with_changes(weight_slicing=choice.slicing),
                noise=self.noise,
            )
            compiled[layer.name] = CompiledLayer(
                layer=layer, choice=choice, executor=executor
            )
        return RaellaProgram(model=model, layers=compiled, config=self.config)
