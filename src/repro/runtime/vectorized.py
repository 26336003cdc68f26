"""Vectorized PIM layer executor: batched phases, fused GEMMs, cached weights.

:class:`VectorizedLayerExecutor` is a drop-in replacement for
:class:`~repro.core.executor.PimLayerExecutor` that replaces the per-phase
Python loop of the hot path with batched tensor operations:

* every input bit-plane slice of a chunk is extracted in one shot, in a
  narrow ``uint8`` code dtype (:func:`repro.runtime.phases.slice_phases`),
  and
* the ``n_phases`` per-phase matmuls are fused into a single BLAS GEMM over
  a ``(n_phases * M, rows)`` operand.

Bit-identity with the per-phase reference is by construction, not by luck:
slice values (< 2**4) and weight-slice values (< 2**device_bits) are tiny
integers, so every product and partial sum in the GEMM is an exact integer.
The GEMM runs in **float32** wherever every partial sum of a chunk provably
stays below float32's 24-bit integer-exact range
(:func:`float32_gemm_is_exact`), roughly twice the BLAS throughput at half
the memory traffic; other chunks stay float64, and ``float32=False`` forces
float64 everywhere.

Every executor compiles a :class:`~repro.runtime.plan.CompiledLayerPlan`
at construction (or boots from a shipped one, ``plan=...``).  In the
noiseless case every post-GEMM stage -- ADC clip, saturation masking,
speculation recovery, the phase x weight-slice scale-sum -- is also exact
integer arithmetic, so the eleven per-phase Python iterations collapse into
a handful of whole-tensor operations over the ``(n_phases, M, n_slices,
n_filters)`` block without moving a single bit of the result
(:meth:`_planned_chunk_matmul`).  Seeded noise draws and column-sum
sampling *are* order-sensitive, so noisy executors and column-sum
collection keep the inherited per-phase loop on float64 column sums, fed by
one batched GEMM through the ``_phase_sums`` hook.

Weight encoding is shared across executor instances through
:mod:`repro.runtime.cache`.
"""

from __future__ import annotations

import numpy as np

from repro.analog.noise import NoiseModel, NoiselessModel
from repro.core.dynamic_input import InputPhase
from repro.core.executor import PimLayerConfig, PimLayerExecutor, _EncodedChunk
from repro.nn.layers import MatmulLayer
from repro.runtime.cache import GLOBAL_WEIGHT_CACHE, EncodedWeightCache
from repro.runtime.phases import narrow_codes, slice_phases
from repro.runtime.plan import CompiledLayerPlan, float32_gemm_is_exact

__all__ = ["TILE_ELEMENTS", "VectorizedLayerExecutor", "float32_gemm_is_exact"]

#: Row-tile budget of the planned fast path, in phase-tensor plus product
#: values: a float32 tile's GEMM operand and products fit in 2 MB of L2.
TILE_ELEMENTS = 1 << 19


class VectorizedLayerExecutor(PimLayerExecutor):
    """Batched-phase executor, bit-identical to the per-phase reference.

    Parameters
    ----------
    layer, config, noise:
        As for :class:`~repro.core.executor.PimLayerExecutor`.
    weight_cache:
        Encoded-weight cache shared across executor instances; pass ``None``
        to encode privately.  Defaults to the process-wide cache.
    float32:
        Run each chunk's GEMM in float32 where :func:`float32_gemm_is_exact`
        proves the accumulation fits float32's 24-bit mantissa (the
        default); other chunks keep float64.  ``False`` forces float64.
        Results are bit-identical either way.
    plan:
        A :class:`~repro.runtime.plan.CompiledLayerPlan` compiled for exactly
        this (layer, config, noise-lessness, float32) combination.  When
        given, the executor boots from the plan's pre-encoded chunks and
        operand tables -- no weight encoding at all; otherwise it compiles
        its own.

    Memory note: outside the row-tiled noiseless fast path, each chunk's
    phase tensor holds ``n_phases * M * rows`` values; for very large
    batches run through :class:`~repro.runtime.engine.NetworkEngine`
    micro-batching.
    """

    def __init__(
        self,
        layer: MatmulLayer,
        config: PimLayerConfig | None = None,
        noise: NoiseModel | None = None,
        weight_cache: EncodedWeightCache | None = GLOBAL_WEIGHT_CACHE,
        float32: bool = True,
        plan: CompiledLayerPlan | None = None,
    ):
        self._weight_cache = weight_cache
        self.float32 = float32
        # Set before super().__init__: _build_encoded_chunks runs inside it
        # and serves the plan's chunks when present.
        self._plan_chunks = None if plan is None else plan.chunks
        super().__init__(layer, config, noise=noise)
        if plan is None:
            plan = CompiledLayerPlan.from_executor(self)
        elif not plan.matches(self.layer, self.config):
            raise ValueError(
                f"plan compiled for layer {plan.layer_name!r} "
                f"(fingerprint {plan.weight_fingerprint[:12]}...) does not "
                f"match executor for {self.layer.name!r}"
            )
        noiseless = isinstance(self.noise, NoiselessModel)
        if plan.noiseless != noiseless or plan.float32 != bool(float32):
            raise ValueError(
                "plan noiseless/float32 flags "
                f"({plan.noiseless}/{plan.float32}) do not match executor "
                f"({noiseless}/{bool(float32)})"
            )
        #: The compiled plan this executor runs.
        self.layer_plan = plan
        self._phase_sums_cache: list[np.ndarray] | None = None

    @property
    def gemm_dtypes(self) -> list[type]:
        """The GEMM dtype chosen for each row chunk, in chunk order."""
        return [operands.dtype for operands in self.layer_plan.operands]

    def _build_encoded_chunks(self) -> list[_EncodedChunk]:
        if self._plan_chunks is not None:
            return list(self._plan_chunks)
        if self._weight_cache is None:
            return super()._build_encoded_chunks()
        return self._weight_cache.encoded_chunks(
            self.layer, self.config, super()._build_encoded_chunks
        )

    # -- batched hot path -------------------------------------------------------

    def _chunk_matmul(
        self, codes: np.ndarray, chunk: _EncodedChunk, chunk_index: int = 0
    ) -> np.ndarray:
        if self.layer_plan.fast_path_eligible:
            return self._planned_chunk_matmul(codes, chunk, chunk_index)
        self._phase_sums_cache = self._batched_phase_sums(codes, chunk_index)
        try:
            return super()._chunk_matmul(codes, chunk, chunk_index)
        finally:
            self._phase_sums_cache = None

    def _phase_sums(
        self, codes: np.ndarray, chunk: _EncodedChunk, phase: InputPhase, index: int
    ) -> np.ndarray:
        return self._phase_sums_cache[index]

    def _phase_products(
        self, codes: np.ndarray, chunk_index: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The fused GEMM of every phase of one chunk.

        Returns the codes in the plan's narrow dtype, the ``(n_phases, M,
        rows)`` phase tensor and the ``(n_phases, M, columns)`` products of
        every phase slice with the chunk's weight operand, in the operand's
        dtype.
        """
        plan = self.layer_plan
        operands = plan.operands[chunk_index]
        narrow = narrow_codes(codes, plan.phase_shifts.dtype)
        phase_tensor = slice_phases(narrow, plan.phase_shifts, plan.phase_masks)
        flat = phase_tensor.reshape(-1, narrow.shape[1]).astype(operands.dtype)
        products = flat @ operands.weights
        return narrow, phase_tensor, products.reshape(phase_tensor.shape[:2] + (-1,))

    def _planned_chunk_matmul(
        self, codes: np.ndarray, chunk: _EncodedChunk, chunk_index: int
    ) -> np.ndarray:
        """One chunk through the compiled noiseless fast path.

        Replaces the inherited per-phase ADC/speculation loop with
        whole-tensor operations over the ``(P, M, S, F)`` product block:
        one clip/saturate pass, two fancy-index gathers to build every
        phase's conversion mask from the speculation-group tables, and one
        masked scale-sum.  Every intermediate is an exact integer in the
        GEMM's dtype: noiseless column sums are integers (so the ADC's
        rounding is the identity), ADC codes and power-of-two scales stay
        within float32's exact range, and the final sum accumulates in
        float64.  Regrouping the additions is therefore bit-identical to
        the reference loop -- including every statistics counter, which are
        integer totals and order-free.  Input rows are independent, so the
        block runs in row tiles of at most :data:`TILE_ELEMENTS` phase-tensor
        plus product values: the working set stays cache-sized for any
        ``M``, and a large batch does not stream every stage through main
        memory (whose speed swings with other processes' traffic).
        """
        plan = self.layer_plan
        m, rows = codes.shape
        per_row = plan.n_phases * (rows + plan.operands[chunk_index].n_columns)
        tile = max(1, TILE_ELEMENTS // per_row)
        analog = np.empty((m, plan.n_filters))
        for start in range(0, m, tile):
            tile_codes = codes[start : start + tile]
            analog[start : start + tile] = self._planned_tile(tile_codes, chunk_index)
        encoded = chunk.encoded
        if encoded.encoding.uses_centers:
            analog = analog + encoded.centers[np.newaxis, :].astype(
                np.float64
            ) * codes.sum(axis=1, keepdims=True)
        return analog

    def _planned_tile(self, codes: np.ndarray, chunk_index: int) -> np.ndarray:
        """The fast path's analog sums of one row tile: ``(m, n_filters)``.

        The pulse counters come from the plan's per-code pulse table, one
        gather over the ``(m, rows)`` codes instead of a pass over the phase
        tensor.  The GEMM result is a fresh block owned by this call, so
        every stage after it works in place: besides the block, only
        boolean masks are allocated.
        """
        plan = self.layer_plan
        operands = plan.operands[chunk_index]
        stats = self.stats
        config = self.config
        m = codes.shape[0]

        narrow, phase_tensor, products = self._phase_products(codes, chunk_index)
        del phase_tensor  # pulses are counted from the codes instead
        products = products.reshape(plan.n_phases, m, plan.n_slices, plan.n_filters)
        # Each row's pulses over every input and phase: exact integers.
        row_pulses = plan.pulse_table[narrow].sum(axis=0)
        stats.input_pulses += int(row_pulses.sum())
        stats.crossbar_activity += float(row_pulses @ operands.sum_flat_rowsum)

        # One ADC pass over every phase at once (the reference does this
        # per phase; identical values, identical saturation decisions).
        saturated = products < config.adc_min
        saturated |= products > config.adc_max
        np.clip(products, config.adc_min, config.adc_max, out=products)

        if plan.spec_indices.size:
            spec_saturated = saturated[plan.spec_indices]  # (G, M, S, F)
            stats.adc_converts_speculative += spec_saturated.size
            stats.speculation_slots += spec_saturated.size
            stats.speculation_failures += int(spec_saturated.sum())
            # gathered[p] = the saturation mask of phase p's speculation
            # group; a speculative phase keeps its non-saturated columns,
            # its recovery phases replay exactly the saturated ones.
            gathered = spec_saturated[plan.group_of]  # (P, M, S, F)
            needed = gathered[plan.rec_indices]
            total_needed = int(needed.sum())
            stats.adc_converts_recovery += total_needed
            stats.fidelity_loss_opportunities += total_needed
            needed &= saturated[plan.rec_indices]
            stats.fidelity_loss_events += int(needed.sum())
            # Columns a phase converts: gathered XOR speculative.  Dropped
            # columns become zeros, possibly -0.0; the zero-initialised
            # accumulator in ``_matmul_unsigned`` turns a zero result into
            # +0.0, exactly as in the reference.
            gathered ^= plan.is_spec[:, np.newaxis, np.newaxis, np.newaxis]
            products *= gathered
        else:  # bit-serial: every column converts in every phase
            stats.adc_converts_serial += products.size
            stats.fidelity_loss_events += int(saturated.sum())
            stats.fidelity_loss_opportunities += products.size
        products *= plan.scales.astype(products.dtype, copy=False)
        return products.sum(axis=(0, 2), dtype=np.float64)

    def _batched_phase_sums(
        self, codes: np.ndarray, chunk_index: int
    ) -> list[np.ndarray]:
        """All phases' analog column sums for one chunk, one GEMM.

        Returns one ``(M, n_slices, filters)`` array per phase and performs
        the per-phase statistics / noise bookkeeping in plan order, exactly
        as the per-phase reference does.
        """
        plan = self.layer_plan
        operands = plan.operands[chunk_index]
        m = codes.shape[0]
        _, phase_tensor, products = self._phase_products(codes, chunk_index)
        # Float32 products are exact integers within float32's mantissa;
        # widening is lossless and keeps the ADC/noise stages on float64.
        products = np.asarray(products, dtype=np.float64)
        # Per-phase input pulses and the rows' pulse totals per phase.
        phase_row_pulses = phase_tensor.sum(axis=1, dtype=np.int64)
        pulses = phase_row_pulses.sum(axis=1)
        sums: list[np.ndarray] = []
        if operands.sum_flat_rowsum is not None:
            # Noiseless path: the products *are* the column sums; analog
            # activity has the reference's closed form per phase.
            activities = phase_row_pulses @ operands.sum_flat_rowsum
            for index in range(plan.n_phases):
                self.stats.crossbar_activity += float(activities[index])
                self.stats.input_pulses += int(pulses[index])
                sums.append(products[index].reshape(m, plan.n_slices, plan.n_filters))
        else:
            n_cols = operands.n_columns
            diff = products[:, :, :n_cols]
            total = products[:, :, n_cols:]
            for index in range(plan.n_phases):
                positive = 0.5 * (total[index] + diff[index])
                negative = 0.5 * (total[index] - diff[index])
                self.stats.crossbar_activity += float(total[index].sum())
                self.stats.input_pulses += int(pulses[index])
                noisy = self.noise.apply(positive, negative)
                sums.append(noisy.reshape(m, plan.n_slices, plan.n_filters))
        return sums
