"""Vectorized PIM layer executor: batched phases, fused GEMMs, cached weights.

:class:`VectorizedLayerExecutor` is a drop-in replacement for
:class:`~repro.core.executor.PimLayerExecutor` that replaces the per-phase
Python loop of the hot path with batched tensor operations:

* every input bit-plane slice of a chunk is extracted in one shot
  (:func:`repro.runtime.phases.extract_phase_tensor`), and
* the ``n_phases`` per-phase matmuls are fused into a single float64 BLAS
  GEMM over a ``(n_phases * M, rows)`` operand.

Bit-identity with the per-phase reference is by construction, not by luck:

* slice values (< 2**4) and weight-slice values (< 2**device_bits) are tiny
  integers, so every product and partial sum in the GEMM is an integer far
  below 2**53 -- float64 arithmetic is exact and matches the reference's
  int64 matmuls digit for digit;
* the ADC conversion, speculation/recovery masking, statistics accumulation
  and noise application still run through the *same* inherited per-phase code
  path (via the ``_phase_sums`` provider hook), in the same order and on
  arrays of the same shape, so seeded noise draws and all
  :class:`~repro.core.executor.LayerStatistics` counters are identical too.

The same argument admits an opt-in **float32 fast path** (``float32=True``):
when every partial sum of a chunk's GEMM is provably below float32's 24-bit
integer-exact range (:func:`float32_gemm_is_exact`), the GEMM runs in float32
(roughly twice the BLAS throughput, half the operand memory traffic) and the
products -- still exact integers -- are widened back to float64 before the
ADC/noise stages, keeping outputs and statistics bit-identical to the float64
path.  Chunks that cannot be proven safe silently stay on float64, so the
flag is always safe to set.  The multi-tenant serving layer
(:mod:`repro.serve`) enables it by default.

A :class:`~repro.runtime.plan.CompiledLayerPlan` takes the argument one step
further.  In the noiseless case every post-GEMM stage -- ADC round/clip,
saturation masking, speculation recovery, the phase x weight-slice scale-sum
-- is also exact integer arithmetic, so the eleven per-phase Python
iterations can be collapsed into a handful of whole-tensor operations over
the ``(n_phases, M, n_slices, n_filters)`` block without moving a single
bit of the result (:meth:`_planned_chunk_matmul`).  Seeded noise draws *are*
order-sensitive, so noisy executors keep the per-phase loop; the plan still
supplies their extraction tables and GEMM operands.  Plans are compiled once
(:meth:`compile_layer_plan`), adopted by pooled executors
(:meth:`adopt_plan`), and pickled to worker processes so replicas never
re-encode weights.

Weight encoding is shared across executor instances through
:mod:`repro.runtime.cache`.  It no longer dominates construction: the Eq. 2
center search is a histogram GEMM
(:func:`repro.core.center_offset.optimal_centers`).  Compiling
``resnet18_like`` (256 test patches, single-threaded BLAS on a 2-vCPU host)
takes ~2.3 s; ~70% of it is the adaptive-slicing trial runs (79 trial
executors' matmuls), ~15% weight encoding and ~8% the center search itself.
"""

from __future__ import annotations

import numpy as np

from repro.analog.noise import NoiseModel, NoiselessModel
from repro.core.dynamic_input import InputPhase
from repro.core.executor import PimLayerConfig, PimLayerExecutor, _EncodedChunk
from repro.nn.layers import MatmulLayer
from repro.runtime.cache import GLOBAL_WEIGHT_CACHE, EncodedWeightCache
from repro.runtime.phases import extract_phase_tensor
from repro.runtime.plan import (
    CompiledLayerPlan,
    _ChunkOperands,
    float32_gemm_is_exact,
)

__all__ = ["VectorizedLayerExecutor", "float32_gemm_is_exact"]


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
        Opt into the float32 GEMM fast path.  Applied per chunk only where
        :func:`float32_gemm_is_exact` proves the accumulation fits float32's
        24-bit mantissa; other chunks keep float64.  Results are bit-identical
        either way.
    plan:
        A :class:`~repro.runtime.plan.CompiledLayerPlan` compiled for exactly
        this (layer, config, noise-lessness, float32) combination.  When
        given, the executor boots from the plan's pre-encoded chunks and
        operand tables -- no weight encoding at all -- and (noiseless
        configurations only) runs batches through the planned fast path.

    Memory note: each chunk's batched phase tensor holds
    ``n_phases * M * rows`` values; for very large batches run through
    :class:`~repro.runtime.engine.NetworkEngine` micro-batching.
    """

    def __init__(
        self,
        layer: MatmulLayer,
        config: PimLayerConfig | None = None,
        noise: NoiseModel | None = None,
        weight_cache: EncodedWeightCache | None = GLOBAL_WEIGHT_CACHE,
        float32: bool = False,
        plan: CompiledLayerPlan | None = None,
    ):
        self._weight_cache = weight_cache
        self.float32 = float32
        # Set before super().__init__: _build_encoded_chunks runs inside it
        # and serves the plan's chunks when present.
        self._plan_chunks = None if plan is None else plan.chunks
        super().__init__(layer, config, noise=noise)
        noiseless = isinstance(self.noise, NoiselessModel)
        if plan is not None:
            # Positional operand views travel with the plan; reusing them
            # shares the (possibly float32) GEMM operands across every
            # executor running the same plan.
            self._operands: list[_ChunkOperands] = list(plan.operands)
        else:
            max_slice = max((1 << phase.width) - 1 for phase in self.plan.phases)
            self._operands = [
                _ChunkOperands(chunk, noiseless, float32, max_slice)
                for chunk in self._chunks
            ]
        self._phase_sums_cache: list[np.ndarray] | None = None
        self._layer_plan: CompiledLayerPlan | None = None
        self._fast_plan: CompiledLayerPlan | None = None
        if plan is not None:
            self.adopt_plan(plan)

    @property
    def gemm_dtypes(self) -> list[type]:
        """The GEMM dtype chosen for each row chunk, in chunk order."""
        return [operands.dtype for operands in self._operands]

    @property
    def layer_plan(self) -> CompiledLayerPlan | None:
        """The adopted compiled plan (``None`` until compiled or adopted)."""
        return self._layer_plan

    def _build_encoded_chunks(self) -> list[_EncodedChunk]:
        if self._plan_chunks is not None:
            return list(self._plan_chunks)
        if self._weight_cache is None:
            return super()._build_encoded_chunks()
        return self._weight_cache.encoded_chunks(
            self.layer, self.config, super()._build_encoded_chunks
        )

    # -- compiled plans ----------------------------------------------------------

    def compile_layer_plan(self) -> CompiledLayerPlan:
        """Compile (once) and adopt this executor's execution plan.

        Harvests the executor's already-derived state -- encoded chunks,
        operand views with proven dtypes, phase tables -- into an immutable
        :class:`~repro.runtime.plan.CompiledLayerPlan`; subsequent calls
        return the same object.  Compiling also *adopts* the plan, switching
        noiseless executors onto the planned fast path.
        """
        if self._layer_plan is None:
            self.adopt_plan(CompiledLayerPlan.from_executor(self))
        return self._layer_plan

    def adopt_plan(self, plan: CompiledLayerPlan) -> None:
        """Execute future batches against ``plan`` (validated, bit-identical).

        Adoption is safe mid-stream: the planned fast path only re-groups
        exact integer arithmetic, so outputs and statistics are bit-identical
        whether a batch (or even an individual chunk of one) runs before or
        after adoption.
        """
        if not plan.matches(self.layer, self.config):
            raise ValueError(
                f"plan compiled for layer {plan.layer_name!r} "
                f"(fingerprint {plan.weight_fingerprint[:12]}...) does not "
                f"match executor for {self.layer.name!r}"
            )
        noiseless = isinstance(self.noise, NoiselessModel)
        if plan.noiseless != noiseless or plan.float32 != bool(self.float32):
            raise ValueError(
                "plan noiseless/float32 flags "
                f"({plan.noiseless}/{plan.float32}) do not match executor "
                f"({noiseless}/{bool(self.float32)})"
            )
        self._layer_plan = plan
        self._fast_plan = plan if plan.fast_path_eligible else None

    # -- batched hot path -------------------------------------------------------

    def _chunk_matmul(
        self, codes: np.ndarray, chunk: _EncodedChunk, chunk_index: int = 0
    ) -> np.ndarray:
        if self._fast_plan is not None:
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

    def _planned_chunk_matmul(
        self, codes: np.ndarray, chunk: _EncodedChunk, chunk_index: int
    ) -> np.ndarray:
        """One chunk through the compiled noiseless fast path.

        Replaces the inherited per-phase ADC/speculation loop with
        whole-tensor operations over the ``(P, M, S, F)`` product block:
        one round/clip/saturate pass, two fancy-index gathers to build every
        phase's conversion mask from the speculation-group tables, and one
        masked scale-sum.  Every intermediate is an exact integer in float64
        (scales are powers of two), so regrouping the additions is
        bit-identical to the reference loop -- including every statistics
        counter, which are integer totals and order-free.  The GEMM result
        is a fresh block owned by this call, so every stage after it works
        in place: besides the block, only boolean masks are allocated.
        """
        plan = self._fast_plan
        operands = self._operands[chunk_index]
        stats = self.stats
        config = self.config
        m = codes.shape[0]

        phase_tensor = extract_phase_tensor(codes, self.plan)  # (P, M, rows)
        flat = phase_tensor.reshape(plan.n_phases * m, -1).astype(operands.dtype)
        products = np.asarray(flat @ operands.weights, dtype=np.float64).reshape(
            plan.n_phases, m, plan.n_slices, plan.n_filters
        )
        stats.input_pulses += int(phase_tensor.sum())
        stats.crossbar_activity += float(
            (phase_tensor.sum(axis=1) @ operands.sum_flat_rowsum).sum()
        )

        # One ADC pass over every phase at once (the reference does this
        # per phase; identical values, identical saturation decisions).
        np.round(products, out=products)
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
            # Columns a phase does not convert: gathered XOR not-speculative.
            gathered ^= ~plan.is_spec[:, np.newaxis, np.newaxis, np.newaxis]
            np.putmask(products, gathered, 0.0)
        else:  # bit-serial: every column converts in every phase
            stats.adc_converts_serial += products.size
            stats.fidelity_loss_events += int(saturated.sum())
            stats.fidelity_loss_opportunities += products.size
        products *= plan.scales
        analog = products.sum(axis=(0, 2))

        encoded = chunk.encoded
        if encoded.encoding.uses_centers:
            analog = analog + encoded.centers[np.newaxis, :].astype(
                np.float64
            ) * codes.sum(axis=1, keepdims=True)
        return analog

    def _batched_phase_sums(
        self, codes: np.ndarray, chunk_index: int
    ) -> list[np.ndarray]:
        """All phases' analog column sums for one chunk, one GEMM.

        Returns one ``(M, n_slices, filters)`` array per phase and performs
        the per-phase statistics / noise bookkeeping in plan order, exactly
        as the per-phase reference does.
        """
        chunk = self._chunks[chunk_index]
        operands = self._operands[chunk_index]
        n_phases = self.plan.n_cycles
        m = codes.shape[0]
        n_slices = chunk.encoded.slicing.n_slices
        n_filters = chunk.encoded.n_filters
        n_cols = operands.n_columns

        phase_tensor = extract_phase_tensor(codes, self.plan)  # (P, M, rows)
        flat = phase_tensor.reshape(n_phases * m, -1).astype(operands.dtype)
        products = (flat @ operands.weights).reshape(n_phases, m, -1)
        if operands.dtype is not np.float64:
            # Fast-path products are exact integers within float32's mantissa;
            # widening is lossless and keeps all downstream stages (ADC,
            # noise, statistics) on the reference float64 arrays.
            products = products.astype(np.float64)

        # Per-phase input pulses: integer counters, batched then accumulated.
        pulses = phase_tensor.sum(axis=(1, 2))
        sums: list[np.ndarray] = []
        if operands.sum_flat_rowsum is not None:
            # Noiseless path: the products *are* the column sums; analog
            # activity has the reference's closed form per phase.
            activities = phase_tensor.sum(axis=1) @ operands.sum_flat_rowsum
            for index in range(n_phases):
                self.stats.crossbar_activity += float(activities[index])
                self.stats.input_pulses += int(pulses[index])
                sums.append(products[index].reshape(m, n_slices, n_filters))
        else:
            diff = products[:, :, :n_cols]
            total = products[:, :, n_cols:]
            for index in range(n_phases):
                positive = 0.5 * (total[index] + diff[index])
                negative = 0.5 * (total[index] - diff[index])
                self.stats.crossbar_activity += float(total[index].sum())
                self.stats.input_pulses += int(pulses[index])
                noisy = self.noise.apply(positive, negative)
                sums.append(noisy.reshape(m, n_slices, n_filters))
        return sums
