"""Functional PIM layer executor.

:class:`PimLayerExecutor` simulates one quantized DNN layer running on ReRAM
crossbars.  It is the workhorse behind every functional experiment in the
paper: RAELLA (Center+Offset, adaptive weight slicing, speculation/recovery),
the Zero+Offset differential baseline, and the ISAAC-style unsigned baseline
all run through the same executor with different :class:`PimLayerConfig`
settings, which is what makes the ablations apples-to-apples.

The executor computes the *raw* integer product of input codes and weight
codes (``sum_r I_r * W_r``) the way the hardware would: weights are encoded
and sliced across columns, inputs are sliced across cycles, analog column sums
are perturbed by the noise model, converted by a resolution-limited ADC, and
reassembled with digital shift+add.  Zero-point corrections, bias and
requantization stay in the digital layer code
(:class:`repro.nn.layers.MatmulLayer`).

Cost-relevant event counts (ADC conversions, speculation failures, crossbar
activity, DAC pulses, cycles) are accumulated in :class:`LayerStatistics`,
which the hardware model (:mod:`repro.hw`) converts into energy and latency.
Statistics semantics worth knowing:

* saturation means *clipping*: a column sum landing exactly on an ADC rail is
  converted without loss and is not counted as a speculation failure or
  fidelity-loss event;
* aggregating statistics has two flavours -- :meth:`LayerStatistics.merge_runs`
  for re-executions of the same layer (crossbar footprint takes the max) and
  :meth:`LayerStatistics.merge_layers` for totals across different layers of a
  network (everything sums).

This executor iterates the input-phase schedule in Python, one matmul per
phase; :mod:`repro.runtime` provides a bit-identical vectorized drop-in
(:class:`~repro.runtime.VectorizedLayerExecutor`) that batches all phases
into fused GEMMs and caches weight encodings -- prefer it on hot paths.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.analog.noise import NoiseModel, NoiselessModel
from repro.arithmetic.slicing import (
    RAELLA_DEFAULT_WEIGHT_SLICING,
    RAELLA_SPECULATIVE_INPUT_SLICING,
    Slicing,
)
from repro.core.center_offset import CenterOffsetEncoder, EncodedWeights, WeightEncoding
from repro.core.dynamic_input import (
    InputPhase,
    InputSlicePlan,
    SpeculationMode,
    extract_input_slice,
)
from repro.nn.layers import MatmulLayer

__all__ = ["PimLayerConfig", "LayerStatistics", "PimLayerExecutor"]


@dataclass(frozen=True)
class PimLayerConfig:
    """Configuration of the PIM execution of one layer.

    The defaults describe RAELLA: a 512x512 2T2R crossbar, a signed 7-bit
    LSB-capture ADC, Center+Offset encoding, a 4b-2b-2b weight slicing and
    speculative 4b-2b-2b input slicing with bit-serial recovery.
    """

    crossbar_rows: int = 512
    crossbar_cols: int = 512
    adc_bits: int = 7
    adc_signed: bool = True
    weight_encoding: WeightEncoding = WeightEncoding.CENTER_OFFSET
    weight_slicing: Slicing = RAELLA_DEFAULT_WEIGHT_SLICING
    speculation: SpeculationMode = SpeculationMode.SPECULATIVE
    speculative_input_slicing: Slicing = RAELLA_SPECULATIVE_INPUT_SLICING
    serial_input_slicing: Slicing | None = None
    input_bits: int = 8
    device_bits: int = 4
    center_power: float = 4.0
    collect_column_sums: bool = False
    max_column_sum_samples: int = 200_000

    def __post_init__(self) -> None:
        if self.crossbar_rows <= 0 or self.crossbar_cols <= 0:
            raise ValueError("crossbar dimensions must be positive")
        if not 1 <= self.adc_bits <= 16:
            raise ValueError("ADC resolution must be in [1, 16]")
        if self.weight_slicing.total_bits != 8:
            raise ValueError("weight slicing must cover 8 bits")
        if self.weight_slicing.max_slice_bits > self.device_bits:
            raise ValueError(
                f"weight slices of {self.weight_slicing.max_slice_bits}b exceed "
                f"{self.device_bits}b devices"
            )
        if not self.adc_signed and self.weight_encoding.uses_centers:
            raise ValueError("offset encodings need a signed (2T2R) crossbar/ADC")
        if (
            self.serial_input_slicing is not None
            and self.serial_input_slicing.total_bits != self.input_bits
        ):
            raise ValueError("serial input slicing must cover input_bits")

    @property
    def adc_min(self) -> int:
        """Lower ADC bound."""
        return -(1 << (self.adc_bits - 1)) if self.adc_signed else 0

    @property
    def adc_max(self) -> int:
        """Upper ADC bound."""
        if self.adc_signed:
            return (1 << (self.adc_bits - 1)) - 1
        return (1 << self.adc_bits) - 1

    def with_changes(self, **kwargs) -> "PimLayerConfig":
        """Return a copy with selected fields replaced."""
        from dataclasses import replace

        return replace(self, **kwargs)


@dataclass
class LayerStatistics:
    """Cost-relevant event counts accumulated while executing a layer."""

    layer_name: str = ""
    n_inputs: int = 0
    macs: int = 0
    n_crossbars: int = 0
    n_columns: int = 0
    cycles: int = 0
    adc_converts_speculative: int = 0
    adc_converts_recovery: int = 0
    adc_converts_serial: int = 0
    speculation_slots: int = 0
    speculation_failures: int = 0
    fidelity_loss_events: int = 0
    fidelity_loss_opportunities: int = 0
    crossbar_activity: float = 0.0
    input_pulses: int = 0
    psums_produced: int = 0
    column_sums: dict[str, list] = field(default_factory=dict)

    @property
    def total_adc_converts(self) -> int:
        """All ADC conversions performed."""
        return (
            self.adc_converts_speculative
            + self.adc_converts_recovery
            + self.adc_converts_serial
        )

    @property
    def converts_per_mac(self) -> float:
        """ADC conversions per multiply-accumulate."""
        return self.total_adc_converts / self.macs if self.macs else 0.0

    @property
    def speculation_failure_rate(self) -> float:
        """Fraction of speculative conversions that saturated."""
        if self.speculation_slots == 0:
            return 0.0
        return self.speculation_failures / self.speculation_slots

    @property
    def fidelity_loss_rate(self) -> float:
        """Fraction of accepted conversions that saturated (lost fidelity)."""
        if self.fidelity_loss_opportunities == 0:
            return 0.0
        return self.fidelity_loss_events / self.fidelity_loss_opportunities

    def column_sum_array(self, kind: str) -> np.ndarray:
        """Collected pre-ADC column sums for a phase kind."""
        return np.concatenate(self.column_sums.get(kind, [np.empty(0)]))

    def merge_runs(self, other: "LayerStatistics") -> "LayerStatistics":
        """Accumulate another run of the *same* layer into this one (in place).

        Event counts sum; the structural fields ``n_crossbars``/``n_columns``
        describe the layer's fixed crossbar footprint, so re-running the same
        layer keeps their maximum rather than double-counting hardware.
        """
        self._accumulate_events(other)
        self.n_crossbars = max(self.n_crossbars, other.n_crossbars)
        self.n_columns = max(self.n_columns, other.n_columns)
        return self

    def merge_layers(self, other: "LayerStatistics") -> "LayerStatistics":
        """Aggregate statistics of a *different* layer into this one (in place).

        Across distinct layers of a network every field is a total, including
        the crossbar/column footprint.
        """
        self._accumulate_events(other)
        self.n_crossbars += other.n_crossbars
        self.n_columns += other.n_columns
        return self

    def _accumulate_events(self, other: "LayerStatistics") -> None:
        self.n_inputs += other.n_inputs
        self.macs += other.macs
        self.cycles += other.cycles
        self.adc_converts_speculative += other.adc_converts_speculative
        self.adc_converts_recovery += other.adc_converts_recovery
        self.adc_converts_serial += other.adc_converts_serial
        self.speculation_slots += other.speculation_slots
        self.speculation_failures += other.speculation_failures
        self.fidelity_loss_events += other.fidelity_loss_events
        self.fidelity_loss_opportunities += other.fidelity_loss_opportunities
        self.crossbar_activity += other.crossbar_activity
        self.input_pulses += other.input_pulses
        self.psums_produced += other.psums_produced
        for kind, chunks in other.column_sums.items():
            self.column_sums.setdefault(kind, []).extend(chunks)


@dataclass
class _EncodedChunk:
    """Weights of one crossbar (row chunk) pre-arranged for fast matmuls."""

    row_start: int
    rows: int
    encoded: EncodedWeights
    diff_flat: np.ndarray  # (rows, n_slices * filters): W+ - W-
    sum_flat: np.ndarray  # (rows, n_slices * filters): W+ + W-


def _unsigned_codes(codes: np.ndarray) -> np.ndarray:
    """Non-negative integer codes in the narrowest unsigned dtype holding them."""
    return codes.astype(np.min_scalar_type(codes.max(initial=0)), copy=False)


class PimLayerExecutor:
    """Simulate one quantized mat-mul layer on PIM crossbars.

    Parameters
    ----------
    layer:
        The calibrated :class:`~repro.nn.layers.MatmulLayer` to execute.
    config:
        Crossbar / ADC / encoding / slicing configuration.
    noise:
        Column-sum noise model (ideal by default).
    """

    def __init__(
        self,
        layer: MatmulLayer,
        config: PimLayerConfig | None = None,
        noise: NoiseModel | None = None,
    ):
        self.layer = layer
        self.config = config or PimLayerConfig()
        self.noise = noise or NoiselessModel()
        self.plan = InputSlicePlan.build(
            mode=self.config.speculation,
            speculative_slicing=self.config.speculative_input_slicing,
            input_bits=self.config.input_bits,
            serial_slicing=self.config.serial_input_slicing,
        )
        self.encoder = CenterOffsetEncoder(
            slicing=self.config.weight_slicing,
            encoding=self.config.weight_encoding,
            power=self.config.center_power,
        )
        self.stats = LayerStatistics(layer_name=layer.name)
        self._chunks: list[_EncodedChunk] = []
        self._encode_weights()

    # -- weight programming ----------------------------------------------------

    def _encode_weights(self) -> None:
        codes = self.layer.weight_codes  # (K, filters)
        if codes is None:
            raise RuntimeError("layer weights have not been quantized")
        self._chunks = self._build_encoded_chunks()
        n_filters = codes.shape[1]
        filters_per_crossbar = max(
            self.config.crossbar_cols // self.config.weight_slicing.n_slices, 1
        )
        self.stats.n_crossbars = len(self._chunks) * int(
            np.ceil(n_filters / filters_per_crossbar)
        )
        self.stats.n_columns = (
            n_filters * self.config.weight_slicing.n_slices * len(self._chunks)
        )

    def _build_encoded_chunks(self) -> list[_EncodedChunk]:
        """Encode the layer's weights into per-row-chunk crossbar arrays.

        Subclasses may override this to serve pre-encoded chunks (the
        :mod:`repro.runtime` weight cache does) -- the returned chunks are
        treated as immutable.
        """
        codes = self.layer.weight_codes
        rows = self.config.crossbar_rows
        zero_points = self.layer.weight_zero_point
        chunks: list[_EncodedChunk] = []
        for row_start in range(0, codes.shape[0], rows):
            block = codes[row_start : row_start + rows]
            encoded = self.encoder.encode(block, zero_points)
            diff = encoded.positive_slices - encoded.negative_slices
            total = encoded.positive_slices + encoded.negative_slices
            # Both lie within +-2 * (2**bits - 1): keep them in the narrowest
            # signed dtype holding that (int8 up to 6-bit slices); products
            # with int64 slice values still accumulate in int64.  One
            # casting copy lays each out (rows, slices, filters).
            bound = 2 * ((1 << encoded.slicing.max_slice_bits) - 1)
            dtype = np.min_scalar_type(-bound)
            diff_flat = np.ascontiguousarray(diff.transpose(1, 0, 2), dtype=dtype)
            sum_flat = np.ascontiguousarray(total.transpose(1, 0, 2), dtype=dtype)
            chunks.append(
                _EncodedChunk(
                    row_start=row_start,
                    rows=block.shape[0],
                    encoded=encoded,
                    diff_flat=diff_flat.reshape(block.shape[0], -1),
                    sum_flat=sum_flat.reshape(block.shape[0], -1),
                )
            )
        return chunks

    @property
    def encoded_chunks(self) -> list[EncodedWeights]:
        """Encoded weights, one entry per crossbar row chunk."""
        return [chunk.encoded for chunk in self._chunks]

    @property
    def n_row_chunks(self) -> int:
        """Number of crossbar row chunks the reduction dimension spans."""
        return len(self._chunks)

    # -- statistics helpers -----------------------------------------------------

    def reset_stats(self) -> None:
        """Clear accumulated statistics."""
        n_crossbars, n_columns = self.stats.n_crossbars, self.stats.n_columns
        self.stats = LayerStatistics(layer_name=self.layer.name)
        self.stats.n_crossbars = n_crossbars
        self.stats.n_columns = n_columns

    def _record_column_sums(self, kind: str, sums: np.ndarray) -> None:
        if not self.config.collect_column_sums:
            return
        bucket = self.stats.column_sums.setdefault(kind, [])
        collected = sum(chunk.size for chunk in bucket)
        remaining = self.config.max_column_sum_samples - collected
        if remaining <= 0:
            return
        flat = np.asarray(sums).ravel()
        if flat.size > remaining:
            # Subsample at evenly-spaced deterministic positions across the
            # whole phase output (exactly ``remaining`` samples); taking a
            # contiguous prefix would bias the distribution towards the
            # first columns of the first batches.
            indices = (np.arange(remaining) * (flat.size / remaining)).astype(np.int64)
            flat = flat[indices]
        bucket.append(flat.astype(np.float64, copy=True))

    # -- execution ---------------------------------------------------------------

    def __call__(
        self, input_codes: np.ndarray, layer: MatmulLayer | None = None
    ) -> np.ndarray:
        """PIM mat-mul hook interface (see :class:`repro.nn.layers.PimMatmul`)."""
        if layer is not None and layer is not self.layer:
            raise ValueError(
                f"executor built for layer {self.layer.name!r} got {layer.name!r}"
            )
        return self.matmul(input_codes)

    def matmul(self, input_codes: np.ndarray) -> np.ndarray:
        """Compute the raw code product ``input_codes @ weight_codes``.

        ``input_codes`` has shape ``(M, reduction_dim)``; the result has shape
        ``(M, n_filters)`` and approximates the exact integer product up to
        ADC fidelity loss and analog noise.

        This is the one place input codes are validated: ``uint8`` codes
        pass straight through; any other dtype is checked and cast once per
        call to the narrowest unsigned dtype holding it, and signed inputs
        with a negative code are split into positive and negative
        magnitudes, so every row chunk below sees unsigned codes.
        """
        codes = np.asarray(input_codes)
        if codes.ndim != 2 or codes.shape[1] != self.layer.reduction_dim:
            raise ValueError(
                f"expected inputs of shape (M, {self.layer.reduction_dim})"
            )
        if codes.dtype == np.uint8:
            raw = self._matmul_unsigned(codes)
        else:
            if not np.issubdtype(codes.dtype, np.integer):
                codes = codes.astype(np.int64)
            if np.issubdtype(codes.dtype, np.signedinteger) and np.any(codes < 0):
                # Widen first: the magnitude of int8's -128 needs 8 value bits.
                wide = codes.astype(np.promote_types(codes.dtype, np.int16))
                positive = _unsigned_codes(np.maximum(wide, 0))
                negative = _unsigned_codes(np.maximum(-wide, 0))
                raw = self._matmul_unsigned(positive) - self._matmul_unsigned(negative)
            else:
                raw = self._matmul_unsigned(_unsigned_codes(codes))
        self.stats.n_inputs += codes.shape[0]
        self.stats.macs += codes.shape[0] * codes.shape[1] * self.layer.out_features
        self.stats.psums_produced += codes.shape[0] * self.layer.out_features
        return raw

    def _matmul_unsigned(self, codes: np.ndarray) -> np.ndarray:
        m = codes.shape[0]
        n_filters = self.layer.out_features
        raw = np.zeros((m, n_filters), dtype=np.float64)
        for chunk_index, chunk in enumerate(self._chunks):
            chunk_codes = codes[:, chunk.row_start : chunk.row_start + chunk.rows]
            raw += self._chunk_matmul(chunk_codes, chunk, chunk_index)
        # All row chunks operate on parallel crossbars, so latency is set by
        # one chunk's schedule; a batch of M input vectors is processed
        # sequentially through each crossbar.
        self.stats.cycles += m * self.plan.n_cycles
        return raw

    def _convert(self, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """ADC conversion: returns (clipped integer values, saturation mask).

        Saturation is detected from the pre-clip rounded value: a column sum
        that lands exactly on an ADC rail is converted without any clipping,
        so it is not a saturation event.  Both rails count -- an unsigned
        column sum is non-negative in the ideal case, but analog noise can
        drive it below zero, and clipping it back to the bottom rail loses
        fidelity just like overflow does.
        """
        rounded = np.round(sums)
        clipped = np.clip(rounded, self.config.adc_min, self.config.adc_max)
        saturated = (rounded < self.config.adc_min) | (rounded > self.config.adc_max)
        return clipped, saturated

    def _chunk_matmul(
        self, codes: np.ndarray, chunk: _EncodedChunk, chunk_index: int = 0
    ) -> np.ndarray:
        """One row chunk's contribution, shaped ``(M, n_filters)``.

        Runs the plan's speculation/recovery (or bit-serial) schedule on the
        chunk's stream of phase column sums, :meth:`_chunk_phase_sums`.
        ``chunk_index`` is the chunk's position in :attr:`_chunks`; subclasses
        keying per-chunk state (GEMM operands, compiled plans) index by it
        rather than by object identity, which keeps that state picklable and
        immune to ``id()`` reuse.
        """
        encoded = chunk.encoded
        phase_sums = self._chunk_phase_sums(codes, chunk, chunk_index)
        weight_shifts = np.array(encoded.slicing.shifts, dtype=np.int64)
        if self.plan.mode is SpeculationMode.SPECULATIVE:
            analog = self._run_speculative(phase_sums, weight_shifts)
        else:
            analog = self._run_serial(phase_sums, weight_shifts)
        if not encoded.encoding.uses_centers:
            return analog
        return analog + encoded.centers[np.newaxis, :].astype(np.float64) * codes.sum(
            axis=1, keepdims=True, dtype=np.int64
        )

    def _chunk_phase_sums(
        self, codes: np.ndarray, chunk: _EncodedChunk, chunk_index: int
    ) -> Iterator[np.ndarray]:
        """Yield each phase's column sums ``(M, n_slices, filters)``, in plan order.

        The reference extracts one phase's slice and runs its matmuls only
        when the schedule asks for the phase (:meth:`_reference_phase_sums`),
        so no slice tensor outlives its phase.  The vectorized runtime
        executor overrides this to serve the same stream from one batched
        GEMM per chunk.
        """
        noiseless = isinstance(self.noise, NoiselessModel)
        sum_rowsum = chunk.sum_flat.sum(axis=1) if noiseless else None
        for phase in self.plan.phases:
            yield self._reference_phase_sums(codes, chunk, phase, sum_rowsum)

    def _reference_phase_sums(
        self,
        codes: np.ndarray,
        chunk: _EncodedChunk,
        phase: InputPhase,
        sum_rowsum: np.ndarray | None,
    ) -> np.ndarray:
        """One phase's column sums from its own slice and matmuls."""
        slice_values = extract_input_slice(codes, phase)
        total = None if sum_rowsum is not None else slice_values @ chunk.sum_flat
        return self._phase_column_sums(
            slice_values @ chunk.diff_flat,
            total,
            slice_values.sum(axis=0),
            sum_rowsum,
        )

    def _phase_column_sums(
        self,
        diff: np.ndarray,
        total: np.ndarray | None,
        row_pulses: np.ndarray,
        sum_rowsum: np.ndarray | None,
    ) -> np.ndarray:
        """Account one phase and return its column sums ``(M, n_slices, filters)``.

        ``diff`` and ``total`` are the phase's exact ``(M, n_slices *
        filters)`` products with the chunk's ``W+ - W-`` and ``W+ + W-``
        slices, ``row_pulses`` its DAC pulses per crossbar row.  Without
        noise ``total`` is ``None``: the sums are ``diff`` and the analog
        activity has a closed form over ``sum_rowsum``, the row sums of
        ``W+ + W-``.  Under noise the positive and negative column currents
        take one noise draw.  Every phase of both executors is accounted
        here, in plan order.
        """
        diff = np.asarray(diff, dtype=np.float64)
        if total is None:
            sums = diff
            activity = float(row_pulses @ sum_rowsum)
        else:
            total = np.asarray(total, dtype=np.float64)
            positive = 0.5 * (total + diff)
            negative = 0.5 * (total - diff)
            activity = float(total.sum())
            sums = self.noise.apply(positive, negative)
        self.stats.crossbar_activity += activity
        self.stats.input_pulses += int(row_pulses.sum())
        return sums.reshape(len(diff), -1, self.layer.out_features)

    def _run_serial(
        self, phase_sums: Iterator[np.ndarray], weight_shifts: np.ndarray
    ) -> np.ndarray:
        accum = 0.0
        for phase in self.plan.phases:
            sums = next(phase_sums)
            self._record_column_sums("serial", sums)
            converted, saturated = self._convert(sums)
            self.stats.adc_converts_serial += converted.size
            self.stats.fidelity_loss_events += int(saturated.sum())
            self.stats.fidelity_loss_opportunities += converted.size
            scale = 2.0 ** (phase.shift + weight_shifts)
            accum += (converted * scale[np.newaxis, :, np.newaxis]).sum(axis=1)
        return accum

    def _run_speculative(
        self, phase_sums: Iterator[np.ndarray], weight_shifts: np.ndarray
    ) -> np.ndarray:
        phases = self.plan.phases
        starts = [i for i, phase in enumerate(phases) if phase.kind == "speculative"]
        assert starts[0] == 0
        accum = 0.0
        for start, stop in zip(starts, starts[1:] + [len(phases)]):
            accum += self._speculate_and_recover(
                phase_sums, weight_shifts, phases[start], phases[start + 1 : stop]
            )
        return accum

    def _speculate_and_recover(
        self,
        phase_sums: Iterator[np.ndarray],
        weight_shifts: np.ndarray,
        spec_phase: InputPhase,
        recovery_phases: tuple[InputPhase, ...],
    ) -> np.ndarray:
        # Speculative cycle: all columns converted.
        sums = next(phase_sums)
        self._record_column_sums("speculative", sums)
        converted, saturated = self._convert(sums)
        self.stats.adc_converts_speculative += converted.size
        self.stats.speculation_slots += converted.size
        self.stats.speculation_failures += int(saturated.sum())
        ok = ~saturated
        scale = 2.0 ** (spec_phase.shift + weight_shifts)
        accum = (np.where(ok, converted, 0.0) * scale[np.newaxis, :, np.newaxis]).sum(
            axis=1
        )
        # Recovery cycles: crossbars always run them; ADCs convert only the
        # columns whose speculative conversion saturated.
        for phase in recovery_phases:
            bit_sums = next(phase_sums)
            self._record_column_sums("recovery", bit_sums)
            converted_bits, bit_saturated = self._convert(bit_sums)
            needed = saturated
            self.stats.adc_converts_recovery += int(needed.sum())
            self.stats.fidelity_loss_events += int((bit_saturated & needed).sum())
            self.stats.fidelity_loss_opportunities += int(needed.sum())
            bit_scale = 2.0 ** (phase.shift + weight_shifts)
            contribution = converted_bits * bit_scale[np.newaxis, :, np.newaxis]
            accum += np.where(needed, contribution, 0.0).sum(axis=1)
        return accum
