"""Quantized model container.

:class:`QuantizedModel` chains layers sequentially, runs float and integer
forward passes, calibrates activation quantization from sample data, and lets
PIM executors replace the integer mat-mul of every crossbar-mapped layer via a
hook (see :class:`repro.nn.layers.MatmulLayer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.nn.layers import Layer, MatmulLayer, PimMatmul, TensorQuant

__all__ = ["QuantizedModel", "LayerActivation"]


@dataclass
class LayerActivation:
    """Captured integer inputs of one mat-mul layer.

    ``patch_codes`` is the ``(M, reduction_dim)`` matrix of raw input codes the
    layer's crossbars would see -- exactly the "test inputs" RAELLA's
    preprocessing (Algorithm 1) consumes.  It is ``int64`` (widened from the
    narrow code dtype the forward pass carries), so callers may subtract.
    """

    layer_name: str
    patch_codes: np.ndarray


class QuantizedModel:
    """A sequential 8-bit quantized DNN.

    Parameters
    ----------
    name:
        Human-readable model name.
    layers:
        Layers applied in order.
    input_shape:
        Shape of one input sample (excluding the batch dimension).
    signed_input:
        Whether the model input is quantized with a signed code range (e.g. the
        token embeddings feeding BERT's feed-forward blocks).
    """

    def __init__(
        self,
        name: str,
        layers: Sequence[Layer],
        input_shape: tuple[int, ...],
        signed_input: bool = False,
    ):
        if not layers:
            raise ValueError("a model needs at least one layer")
        self.name = name
        self.layers = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        self.signed_input = signed_input
        self.input_quant: TensorQuant | None = None
        self._validate_shapes()

    # -- structure -----------------------------------------------------------

    def _validate_shapes(self) -> None:
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
        self.output_shape = shape

    def matmul_layers(self) -> list[MatmulLayer]:
        """Layers that map onto PIM crossbars, in execution order."""
        return [layer for layer in self.layers if isinstance(layer, MatmulLayer)]

    def layer_input_shapes(self) -> dict[str, tuple[int, ...]]:
        """Input shape (excluding batch) of every layer, keyed by name."""
        shapes = {}
        shape = self.input_shape
        for layer in self.layers:
            shapes[layer.name] = shape
            shape = layer.output_shape(shape)
        return shapes

    def total_macs(self) -> int:
        """Total multiply-accumulates per input sample."""
        shapes = self.layer_input_shapes()
        return sum(layer.macs(shapes[layer.name]) for layer in self.matmul_layers())

    def total_weights(self) -> int:
        """Total weight count across mat-mul layers."""
        return sum(layer.n_weights for layer in self.matmul_layers())

    # -- float path ----------------------------------------------------------

    def forward_float(self, x: np.ndarray) -> np.ndarray:
        """Run the float reference forward pass."""
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward_float(out)
        return out

    # -- calibration ---------------------------------------------------------

    @property
    def is_calibrated(self) -> bool:
        """Whether activation quantization parameters have been fitted."""
        return self.input_quant is not None and all(
            layer.is_calibrated for layer in self.matmul_layers()
        )

    def calibrate(self, calibration_inputs: np.ndarray) -> None:
        """Fit activation quantization from a batch of calibration inputs.

        Runs the float forward pass once, recording each mat-mul layer's input
        and output tensors, and sets its :class:`TensorQuant` specs.  The last
        mat-mul layer keeps a signed output quantization (logits).
        """
        x = np.asarray(calibration_inputs, dtype=np.float64)
        self.input_quant = TensorQuant.from_values(x, signed=self.signed_input)
        matmuls = self.matmul_layers()
        last_matmul = matmuls[-1] if matmuls else None
        out = x
        for layer in self.layers:
            layer_input = out
            out = layer.forward_float(out)
            if isinstance(layer, MatmulLayer):
                signed_output = layer is last_matmul and not layer.fuse_relu
                layer.calibrate(layer_input, out, signed_output=signed_output)

    # -- integer path --------------------------------------------------------

    def forward_quantized(
        self,
        x: np.ndarray,
        pim_matmul: PimMatmul | None = None,
        return_codes: bool = False,
        micro_batch: int | None = None,
    ) -> np.ndarray:
        """Run the integer forward pass.

        Parameters
        ----------
        x:
            Real-valued input batch; it is quantized with the model's input
            spec first.
        pim_matmul:
            Optional hook replacing every mat-mul layer's exact integer
            product with an analog-PIM simulation.
        return_codes:
            If true, return the final layer's integer codes (as ``int64``)
            instead of the dequantized real values.
        micro_batch:
            If set, run the batch through the network ``micro_batch`` samples
            at a time and concatenate the outputs.  Bounds the working-set
            size of large batches (im2col patches, PIM phase tensors).
        """
        if not self.is_calibrated:
            raise RuntimeError("model must be calibrated before quantized inference")
        x = np.asarray(x, dtype=np.float64)
        if micro_batch is not None:
            if micro_batch <= 0:
                raise ValueError("micro_batch must be positive")
            if x.shape[0] > micro_batch:
                parts = [
                    self.forward_quantized(
                        x[start : start + micro_batch],
                        pim_matmul=pim_matmul,
                        return_codes=return_codes,
                    )
                    for start in range(0, x.shape[0], micro_batch)
                ]
                return np.concatenate(parts, axis=0)
        codes = self.input_quant.quantize(x)
        quant = self.input_quant
        for layer in self.layers:
            codes, quant = layer.forward_quantized(codes, quant, pim_matmul=pim_matmul)
        if return_codes:
            return codes.astype(np.int64)
        return quant.dequantize(codes)

    def predict(
        self,
        x: np.ndarray,
        pim_matmul: PimMatmul | None = None,
        micro_batch: int | None = None,
    ) -> np.ndarray:
        """Class predictions from the integer path."""
        logits = self.forward_quantized(
            x, pim_matmul=pim_matmul, micro_batch=micro_batch
        )
        return np.argmax(logits, axis=-1)

    def predict_float(self, x: np.ndarray) -> np.ndarray:
        """Class predictions from the float reference path."""
        return np.argmax(self.forward_float(x), axis=-1)

    # -- introspection for PIM compilation ------------------------------------

    def capture_layer_inputs(
        self, x: np.ndarray, layer_names: Iterable[str] | None = None
    ) -> dict[str, LayerActivation]:
        """Record the raw patch codes each mat-mul layer sees for input ``x``.

        These are the per-layer "test inputs" that RAELLA's compile-time
        preprocessing (center selection and adaptive weight slicing) operates
        on.  The forward pass uses the exact integer path.
        """
        if not self.is_calibrated:
            raise RuntimeError("model must be calibrated before capturing inputs")
        wanted = set(layer_names) if layer_names is not None else None
        captured: dict[str, LayerActivation] = {}
        codes = self.input_quant.quantize(np.asarray(x, dtype=np.float64))
        quant = self.input_quant
        for layer in self.layers:
            if isinstance(layer, MatmulLayer) and (
                wanted is None or layer.name in wanted
            ):
                patches, _ = layer._to_patches(codes, layer.input_quant.zero_point)
                captured[layer.name] = LayerActivation(
                    layer_name=layer.name,
                    patch_codes=np.asarray(patches, dtype=np.int64),
                )
            codes, quant = layer.forward_quantized(codes, quant)
        return captured

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantizedModel(name={self.name!r}, layers={len(self.layers)}, "
            f"macs={self.total_macs()}, weights={self.total_weights()})"
        )
