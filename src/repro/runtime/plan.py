"""Compile-once execution plans: derive the hot path once, execute it forever.

Profiling the serving stack at small batch sizes (M <= 4, the dispatch-storm
regime the micro-batching scheduler actually produces under latency SLOs)
shows the per-batch cost is no longer the GEMM: it is the per-phase Python
loop around it -- eleven ADC round/clip/saturate passes, speculation masking,
statistics bookkeeping and operand lookups, all re-derived from the layer
configuration on every batch.  None of that depends on the inputs; all of it
is a pure function of ``(model, config, noise-lessness, float32)``.

This module hoists that work into two pickle-able artifacts:

* :class:`CompiledLayerPlan` -- one layer's frozen execution recipe: the
  encoded weight chunks, positional GEMM operand views with their *proven*
  dtypes (:func:`float32_gemm_is_exact`), the narrow-dtype phase-extraction
  shift/mask tables with the per-code pulse table derived from them, and
  the bit-plane tables of the noiseless fast path (which planes to GEMM,
  how speculative sums combine them, how many pulses each plane's value
  stands for, the power-of-two loss scales) and, per chunk, whether two
  planes may share one float32 GEMM row (:func:`packed_gemm_is_exact`).
  Every :class:`~repro.runtime.vectorized.VectorizedLayerExecutor` compiles
  its plan at construction (or boots from a shipped one).
* :class:`ModelPlan` -- the per-layer plans of a whole model plus the
  micro-batch size, compiled once by
  :func:`compile_model_plan` (the registry does this at ``register`` time and
  caches it next to the encoded-weight cache) and then *executed* by
  :class:`~repro.runtime.engine.NetworkEngine`, shipped by value inside
  :class:`~repro.runtime.procpool.EngineSpec` so replica workers and rolling
  ``replace()`` never re-encode weights or re-derive schedules.

Bit-identity of the planned fast path is an arithmetic argument, not a hope:
in the noiseless pipeline every column sum, ADC-converted value, scale factor
(a power of two) and digital-centers term is an exact integer in the GEMM's
dtype, and the final sums accumulate in float64 far below ``2**53``, so *any*
regrouping of the additions -- deriving speculative sums from bit-plane
sums, replacing the masked scale-sum by one exact product minus the clipped
excess, counting pulses from plane column sums rather than per phase --
produces bit-identical outputs and (integer) statistics counters.  Packing
two planes into one float32 operand value, ``plane_lo + 4096 * plane_hi``,
keeps that exactness where :func:`packed_gemm_is_exact` proves each plane's
column sum fits a 12-bit field.  Both exactness proofs bound a weight
column by its larger signed total, ``max(sum_r max(w, 0), sum_r max(-w,
0))``, not by ``sum_r |w|``: inputs are non-negative, so every partial sum,
in any summation order, lies between the column's negative and positive
totals, and Center+Offset's balanced columns about halve the bound.  Seeded
noise draws are order-sensitive, so noisy executors keep the reference
speculation/recovery schedule, fed one batched GEMM's phase sums per chunk
(the plan supplies the extraction tables and operands), and draw once per
(chunk, phase) in plan order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np

from repro.analog.noise import NoiseModel, NoiselessModel
from repro.core.dynamic_input import InputSlicePlan
from repro.core.executor import PimLayerConfig, _EncodedChunk
from repro.runtime.phases import PACKED_FIELD_BITS, plan_shift_masks, slice_phases

__all__ = [
    "CompiledLayerPlan",
    "ModelPlan",
    "compile_model_plan",
    "float32_gemm_is_exact",
    "packed_gemm_is_exact",
]

#: Largest contiguous integer range float32 represents exactly (24-bit mantissa).
_FLOAT32_EXACT_LIMIT = 1 << 24

#: Largest magnitude a packed field decodes exactly: below half the field.
PACKED_FIELD_MAX = (1 << (PACKED_FIELD_BITS - 1)) - 1


def _column_sum_bound(weights: np.ndarray) -> float:
    """The largest magnitude any partial column sum of ``x @ weights`` reaches
    per unit of input, for non-negative inputs ``x``.

    With ``x >= 0`` every term ``x_r * w_rc`` has the sign of ``w_rc``, and
    any partial sum (in any summation order) adds a subset of a column's
    terms, so it lies between ``max(x) * sum_r min(w_rc, 0)`` and
    ``max(x) * sum_r max(w_rc, 0)``.  This returns ``max_c max(sum_r
    max(w_rc, 0), sum_r max(-w_rc, 0))``, which is at most ``max_c sum_r
    |w_rc|`` and about half of it on the balanced columns Center+Offset
    encodes.
    """
    if weights.size == 0:
        return 0.0
    # max(sum w+, sum w-) = (sum |w| + |sum w|) / 2, exactly: both are integers.
    column_abs = np.abs(weights).sum(axis=0)
    column_sum = weights.sum(axis=0)
    return float((column_abs + np.abs(column_sum)).max()) / 2


def float32_gemm_is_exact(max_slice_value: int, weights: np.ndarray) -> bool:
    """Whether a slice-value x ``weights`` GEMM is provably exact in float32.

    Slice values are non-negative integers, so every product and running
    partial sum of the GEMM is an integer between ``max_slice_value`` times a
    column's negative total and its positive total, whatever the summation
    order: its magnitude is at most ``max_slice_value *
    _column_sum_bound(weights)``.  If that bound stays below
    ``2**24`` each intermediate is exactly representable in float32, making
    the float32 GEMM bit-identical to the float64 one regardless of BLAS
    summation order.
    """
    return max_slice_value * _column_sum_bound(weights) < _FLOAT32_EXACT_LIMIT


def packed_gemm_is_exact(max_plane_value: int, weights: np.ndarray) -> bool:
    """Whether a float32 GEMM of two packed planes x ``weights`` decodes exactly.

    A packed operand value is ``lo + 4096 * hi`` for two plane values ``lo``
    and ``hi`` of at most ``max_plane_value``, so a product row is
    ``S_lo + 4096 * S_hi`` for the two planes' column sums.  Plane values are
    non-negative, so each sum, and each partial sum on the way to it, is an
    integer between ``max_plane_value`` times a column's negative and
    positive weight totals: its magnitude is at most ``max_plane_value *
    _column_sum_bound(weights)``.  While that stays within
    :data:`PACKED_FIELD_MAX` (2047), ``hi = rint(X / 4096)`` and
    ``lo = X - 4096 * hi`` recover both exactly, and every partial sum stays
    below ``4097 * 2047 < 2**24``, so the float32 GEMM is exact in any
    summation order.  Plane values above 15 are refused: their packed value
    would not fit the ``uint16`` operand scratch.
    """
    if (max_plane_value + 1) << PACKED_FIELD_BITS > 1 << 16:
        return False
    return max_plane_value * _column_sum_bound(weights) <= PACKED_FIELD_MAX


class _ChunkOperands:
    """Float GEMM operands of one encoded chunk, prepared once per plan."""

    def __init__(
        self,
        chunk: _EncodedChunk,
        noiseless: bool,
        float32: bool,
        max_slice_value: int,
        code_mask: int,
        max_plane_value: int,
    ):
        self.combined = None
        if noiseless:
            # Noiseless sums only need W+ - W-; activity has a closed form.
            weights = chunk.diff_flat
            self.sum_flat_rowsum = chunk.sum_flat.sum(axis=1)
            # The exact product's operand: every weight slice's W+ - W-
            # shifted into place, sum_s 2**shift_s * diff[:, s, :].
            slicing = chunk.encoded.slicing
            shifts = np.array(slicing.shifts, dtype=np.int64)
            diff = chunk.diff_flat.reshape(chunk.rows, slicing.n_slices, -1)
            combined = (diff.astype(np.int64) << shifts[:, np.newaxis]).sum(axis=1)
            exact32 = float32 and float32_gemm_is_exact(code_mask, combined)
            self.combined = combined.astype(np.float32 if exact32 else np.float64)
        else:
            # Noise models need both N+ - N- and N+ + N-: stack the weight
            # operands so one GEMM produces both column-sum families.
            weights = np.hstack([chunk.diff_flat, chunk.sum_flat])
            self.sum_flat_rowsum = None
        # Weight slices are below 2**bits, so no operand entry exceeds
        # 2 * (2**bits - 1) in magnitude and no column's positive or
        # negative total exceeds ``rows`` such entries: when that bounds
        # :func:`_column_sum_bound` below 2**24, the scan of the actual
        # weights can be skipped.
        bits = chunk.encoded.slicing.max_slice_bits
        column_bound = max_slice_value * chunk.rows * 2 * ((1 << bits) - 1)
        self.dtype = (
            np.float32
            if float32
            and (
                column_bound < _FLOAT32_EXACT_LIMIT
                or float32_gemm_is_exact(max_slice_value, weights)
            )
            else np.float64
        )
        self.weights = weights.astype(self.dtype)
        self.n_columns = chunk.diff_flat.shape[1]
        #: Whether the noiseless fast path may GEMM two planes per float32
        #: operand row on this chunk (proven once, here).
        self.packed = (
            noiseless
            and self.dtype == np.float32
            and packed_gemm_is_exact(max_plane_value, weights)
        )


@lru_cache(maxsize=None)
def _phase_tables(input_plan: InputSlicePlan) -> dict[str, np.ndarray]:
    """The read-only tables a plan derives from its input schedule alone."""
    phase_shifts, phase_masks = plan_shift_masks(input_plan)
    every_code = np.arange(np.iinfo(phase_shifts.dtype).max + 1)
    pulses = slice_phases(every_code[np.newaxis, :], phase_shifts, phase_masks).sum(
        axis=(0, 1), dtype=np.int64
    )
    # The GEMMed planes: a speculative plan's 1-bit recovery planes (its
    # speculative sums are derived from them), a bit-serial plan's phases.
    phases = input_plan.phases
    speculative = [phase for phase in phases if phase.kind == "speculative"]
    planes = [i for i, phase in enumerate(phases) if phase.kind != "speculative"]
    group_weights = np.zeros((len(speculative), len(planes)), dtype=np.float32)
    for column, index in enumerate(planes):
        phase = phases[index]
        if phase.kind == "recovery":
            shift = phase.shift - speculative[phase.parent].shift
            group_weights[phase.parent, column] = 2.0**shift
    tables = dict(
        phase_shifts=phase_shifts,
        phase_masks=phase_masks,
        pulse_table=pulses.astype(np.min_scalar_type(pulses.max())),
        # A speculative phase's value is its group's planes combined, so a
        # code's pulses are linear in its plane values.
        pulse_coef=1 + group_weights.sum(axis=0),
        plane_shifts=phase_shifts[planes],
        plane_masks=phase_masks[planes],
        plane_group=np.array(
            [phases[i].parent for i in planes if phases[i].kind == "recovery"],
            dtype=np.intp,
        ),
        group_weights=group_weights,
        group_widths=np.array([phase.width for phase in speculative], dtype=np.int64),
    )
    for array in tables.values():
        array.setflags(write=False)
    return tables


@dataclass(frozen=True)
class CompiledLayerPlan:
    """One layer's frozen execution recipe (see module docstring).

    Instances are immutable, shareable across executors/threads, and
    pickle-able (the positional ``chunks``/``operands`` tuples replaced the
    old ``id()``-keyed operand dict precisely so plans survive the trip into
    worker processes).  ``phase_shifts``/``phase_masks`` are the narrow-dtype
    extraction tables of every phase (:func:`~repro.runtime.phases.slice_phases`);
    ``pulse_table[v]`` is the DAC pulse count of input code ``v`` summed over
    every phase, ``sum_p (v >> shift_p) & mask_p``, in the narrowest
    unsigned dtype holding it; ``pulse_coef`` gives the same count from the
    code's plane values, ``pulse_table[v] == pulse_coef @ planes(v)``.

    The noiseless fast path GEMMs only the ``plane_*`` phases: the 1-bit
    recovery planes of a speculative plan, or the phases of a bit-serial
    one.  On a chunk whose operands are ``packed``, calls of enough rows
    put plane ``b + ceil(B/2)`` in the same float32 operand value as plane
    ``b``, which halves the plane GEMM.  Row ``g`` of ``group_weights``
    rebuilds speculative group ``g``'s column sums from the planes'
    (``2**(shift_b - shift_g)`` for each plane ``b`` of the group);
    ``plane_group`` maps each recovery plane to its group and
    ``group_widths`` counts each group's planes -- all three are empty for
    bit-serial plans.  ``loss_scales[b, s]`` is
    ``2**(shift_b + weight_shift_s)``, the weight of plane ``b``'s clipped
    excess on weight slice ``s``, and ``code_mask`` keeps the
    ``input_bits`` low bits that the phases read.
    """

    layer_name: str
    weight_fingerprint: str
    config: PimLayerConfig
    input_plan: InputSlicePlan
    noiseless: bool
    float32: bool
    n_slices: int
    n_filters: int
    code_mask: int
    phase_shifts: np.ndarray
    phase_masks: np.ndarray
    pulse_table: np.ndarray
    pulse_coef: np.ndarray
    plane_shifts: np.ndarray
    plane_masks: np.ndarray
    plane_group: np.ndarray
    group_weights: np.ndarray
    group_widths: np.ndarray
    loss_scales: np.ndarray
    chunks: tuple[_EncodedChunk, ...] = field(repr=False)
    operands: tuple[_ChunkOperands, ...] = field(repr=False)

    @property
    def n_phases(self) -> int:
        """Crossbar cycles per full input presentation (11 with speculation)."""
        return len(self.input_plan.phases)

    @property
    def n_planes(self) -> int:
        """Input planes the noiseless fast path reads (8 with speculation)."""
        return len(self.plane_shifts)

    @property
    def fast_path_eligible(self) -> bool:
        """Whether the batched noiseless fast path may execute this plan.

        Noise draws are order-sensitive (seeded RNG state advances per
        phase) and column-sum collection subsamples in per-phase order, so
        both keep the reference schedule, which consumes every phase's
        column sums in plan order; everything else is exact integer
        arithmetic and may be re-grouped freely.
        """
        return self.noiseless and not self.config.collect_column_sums

    @classmethod
    def from_executor(cls, executor) -> "CompiledLayerPlan":
        """Compile the plan of a vectorized executor's encoded chunks."""
        input_plan: InputSlicePlan = executor.plan
        noiseless = isinstance(executor.noise, NoiselessModel)
        float32 = bool(executor.float32)
        tables = _phase_tables(input_plan)
        max_slice = int(tables["phase_masks"].max())
        max_plane = int(tables["plane_masks"].max())
        code_mask = (1 << input_plan.speculative_slicing.total_bits) - 1
        chunks = tuple(executor._chunks)
        operands = tuple(
            _ChunkOperands(chunk, noiseless, float32, max_slice, code_mask, max_plane)
            for chunk in chunks
        )
        slicing = (
            chunks[0].encoded.slicing if chunks else executor.config.weight_slicing
        )
        loss_scales = 2.0 ** (
            tables["plane_shifts"][:, np.newaxis]
            + np.array(slicing.shifts)[np.newaxis, :]
        )
        loss_scales.setflags(write=False)
        return cls(
            layer_name=executor.layer.name,
            weight_fingerprint=executor.layer.weight_fingerprint,
            config=executor.config,
            input_plan=input_plan,
            noiseless=noiseless,
            float32=float32,
            n_slices=slicing.n_slices,
            n_filters=executor.layer.out_features,
            code_mask=code_mask,
            loss_scales=loss_scales,
            chunks=chunks,
            operands=operands,
            **tables,
        )

    def matches(self, layer, config: PimLayerConfig) -> bool:
        """Whether this plan was compiled for ``layer`` under ``config``."""
        return (
            self.layer_name == layer.name
            and self.weight_fingerprint == layer.weight_fingerprint
            and self.config == config
        )


@dataclass(frozen=True)
class ModelPlan:
    """A whole model's compiled execution plan (one entry per matmul layer).

    Compiled once per ``(model weights, config, noise-lessness, float32,
    micro_batch)`` by :func:`compile_model_plan`, cached by the registry's
    :class:`~repro.runtime.cache.ModelPlanCache`, threaded through
    :meth:`NetworkEngine.build <repro.runtime.engine.NetworkEngine.build>`
    and pickled inside :class:`~repro.runtime.procpool.EngineSpec` so every
    replica worker boots from the already-encoded artifact.  A plan is the
    whole compiled description of an engine: ``build(model, noise=noise,
    plan=plan)`` takes the config, the micro-batch size and each layer's
    GEMM dtype flag from it.
    """

    model_name: str
    config: PimLayerConfig
    micro_batch: int | None
    layers: Mapping[str, CompiledLayerPlan] = field(repr=False)

    def layer_plan(self, layer_name: str) -> CompiledLayerPlan | None:
        """The compiled plan of one layer (``None`` for unknown names)."""
        return self.layers.get(layer_name)

    @staticmethod
    def cache_key(
        model,
        config: PimLayerConfig,
        noise: NoiseModel | None,
        micro_batch: int | None,
    ) -> tuple:
        """The identity a registry-compiled plan depends on (and nothing else).

        Mirrors the encoded-weight cache's keying discipline: weight
        *fingerprints* rather than object identity, the full frozen config,
        and the noise-lessness flag (a plan never holds RNG state, so two
        different seeded noise models share one plan).  The registry
        compiles every plan with the default float32 GEMMs, so the flag is
        not part of the key.
        """
        noiseless = noise is None or isinstance(noise, NoiselessModel)
        return (
            model.name,
            tuple(
                (layer.name, layer.weight_fingerprint)
                for layer in model.matmul_layers()
            ),
            config,
            noiseless,
            micro_batch,
        )


def compile_model_plan(
    model,
    config: PimLayerConfig | None = None,
    noise: NoiseModel | None = None,
    *,
    float32: bool | None = None,
    micro_batch: int | None = None,
    pool=None,
) -> ModelPlan:
    """Compile a :class:`ModelPlan` for ``model`` under one configuration.

    Builds (or reuses) one vectorized executor per matmul layer through
    ``pool`` -- sharing the pool's encoded-weight cache, so compilation costs
    one weight encoding at most -- and collects the
    :class:`CompiledLayerPlan` each executor compiled at construction.
    ``float32`` defaults to the pool's setting (float32 GEMMs wherever
    provably exact, unless the pool opted out).
    """
    from repro.runtime.cache import ExecutorPool

    config = config if config is not None else PimLayerConfig()
    pool = pool if pool is not None else ExecutorPool()
    layers = {}
    for layer in model.matmul_layers():
        executor = pool.get(layer, config, noise=noise, float32=float32)
        layers[layer.name] = executor.layer_plan
    return ModelPlan(
        model_name=model.name,
        config=config,
        micro_batch=micro_batch,
        layers=layers,
    )
