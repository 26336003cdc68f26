"""Vectorized PIM layer executor: batched phases, fused GEMMs, cached weights.

:class:`VectorizedLayerExecutor` is a drop-in replacement for
:class:`~repro.core.executor.PimLayerExecutor` that replaces the per-phase
Python loop of the hot path with batched tensor operations: input slices
are extracted in one shot in a narrow ``uint8`` code dtype
(:func:`repro.runtime.phases.slice_phases`) and their matmuls are fused
into a single BLAS GEMM per chunk.

Bit-identity with the per-phase reference is by construction, not by luck:
slice values (< 2**4) and weight-slice values (< 2**device_bits) are tiny
integers, so every product and partial sum in the GEMM is an exact integer.
The GEMM runs in **float32** wherever every partial sum of a chunk provably
stays below float32's 24-bit integer-exact range
(:func:`float32_gemm_is_exact`), roughly twice the BLAS throughput at half
the memory traffic; other chunks stay float64, and ``float32=False`` forces
float64 everywhere.

Every executor compiles a :class:`~repro.runtime.plan.CompiledLayerPlan`
at construction (or boots from a shipped one, ``plan=...``).  Noiseless
layers run :meth:`_planned_chunk_matmul`: one exact product of the codes
with the shifted-together weight slices, a GEMM of only the input *bit
planes* (8 with speculation, not 11 phases) whose sums also give every
speculative sum, and a correction at the rare positions where the ADC
clipped a conversion the reference keeps.  Seeded noise draws and
column-sum sampling *are* order-sensitive, so noisy executors and
column-sum collection keep the inherited per-phase loop on float64 column
sums, fed by one batched GEMM over every phase through the ``_phase_sums``
hook.

Threading model: the planned path runs each chunk in self-contained,
cache-sized row tiles (:data:`TILE_ELEMENTS`).  A chunk of two or more tiles
runs them on up to :data:`TILE_WORKERS` threads: the calling thread plus
threads started for that call alone and joined before it returns, so no
thread outlives a :meth:`matmul` (a long-lived pool would keep
:func:`~repro.runtime.procpool._default_start_method` off ``fork``).  The
budget is the usable cores per BLAS thread: every core where BLAS is pinned
to one thread, 1 where an unpinned BLAS pool already spans them, and 1 in a
replica worker.  Single-tile calls, noisy layers and column-sum collection
run on the calling thread alone.  One executor serves one call at a time;
distinct executors may run concurrently, as the thread-backend server runs
them.

Activation dtype contract: codes reach :meth:`matmul` in their narrow code
dtype (``uint8`` from unsigned quantization, pooling and im2col).  The
inherited :meth:`~repro.core.executor.PimLayerExecutor.matmul` validates
them once per layer call and hands every chunk unsigned codes, so
:func:`~repro.runtime.phases.narrow_codes` passes ``uint8`` chunks through
without a sign check or cast; row sums widen to ``int64``.

Weight encoding is shared across executor instances through
:mod:`repro.runtime.cache`.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.analog.noise import NoiseModel, NoiselessModel
from repro.core.dynamic_input import InputPhase
from repro.core.executor import (
    LayerStatistics,
    PimLayerConfig,
    PimLayerExecutor,
    _EncodedChunk,
)
from repro.nn.layers import MatmulLayer
from repro.runtime.cache import GLOBAL_WEIGHT_CACHE, EncodedWeightCache
from repro.runtime.phases import narrow_codes, slice_phases
from repro.runtime.plan import CompiledLayerPlan, float32_gemm_is_exact

__all__ = [
    "BLAS_ENV_VARS",
    "TILE_ELEMENTS",
    "TILE_WORKERS",
    "VectorizedLayerExecutor",
    "float32_gemm_is_exact",
]

#: Row-tile budget of the planned fast path, in plane-tensor plus product
#: values: a float32 tile's GEMM operand and products fit in 2 MB of L2.
TILE_ELEMENTS = 1 << 19


#: Environment variables that size BLAS/OpenMP thread pools.
BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _tile_workers() -> int:
    """Usable cores per BLAS thread, at least one.

    Row tiles and a multi-threaded BLAS pool compete for the same cores:
    GEMMs issued from several threads at once queue on the one pool.  So
    the tiles get the cores only where :data:`BLAS_ENV_VARS` pin BLAS below
    the core count; an unpinned pool already spans every core.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cores = os.cpu_count() or 1
    pins = [os.environ.get(var, "").strip() for var in BLAS_ENV_VARS]
    pinned = [int(pin) for pin in pins if pin.isdigit() and int(pin) > 0]
    return max(1, cores // min(pinned, default=cores))


#: Threads one planned chunk's row tiles run on at once (the calling thread
#: included): the usable cores per BLAS thread, read at import.  With BLAS
#: pinned to one thread, as the repository benchmark and replica workers
#: pin it, that is every usable core.  A replica worker sets it to 1: its
#: :attr:`~repro.runtime.procpool.EngineSpec.blas_threads` cores are its
#: BLAS pool's, so N replicas still divide the machine.
TILE_WORKERS = _tile_workers()


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

    Threads: a noiseless chunk of several row tiles runs them on up to
    :data:`TILE_WORKERS` call-scoped threads, all joined before
    :meth:`matmul` returns; extra threads count into private
    :class:`~repro.core.executor.LayerStatistics` merged into :attr:`stats`
    after the join, so outputs and counters do not depend on the thread
    count.  Do not call one executor from two threads at once.

    Memory note: outside the row-tiled noiseless fast path, each chunk's
    phase tensor holds ``n_phases * M * rows`` values; for very large
    batches run through :class:`~repro.runtime.engine.NetworkEngine`
    micro-batching.  On the fast path each tile worker holds one tile's
    working set (about :data:`TILE_ELEMENTS` values) at a time, so peak
    memory grows by one tile per extra worker.
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

    def _planned_chunk_matmul(
        self, codes: np.ndarray, chunk: _EncodedChunk, chunk_index: int
    ) -> np.ndarray:
        """One chunk through the compiled noiseless fast path.

        Without noise, a speculative group's column sums are the
        power-of-two combination of its recovery planes' sums, and a
        conversion that does not saturate returns its sum unchanged.  So
        the reference's whole speculation/recovery schedule equals the
        exact product ``(codes & code_mask) @ combined`` minus, at each
        *lossy* position -- a recovery plane out of ADC range whose group's
        speculative conversion saturated -- the clipped-off excess
        ``(V_b - clip(V_b)) * 2**(shift_b + shift_s)``.  The same holds for
        bit-serial plans with every saturated phase lossy.  Every term is an
        exact integer (noiseless sums are integers, so the ADC's rounding
        is the identity; the GEMMs are proven exact in their dtype; the
        correction runs in float64), so the regrouping is bit-identical to
        the reference loop, and so is every statistics counter, each an
        integer total.  (A zero may come out as -0.0; the zero-initialised
        accumulator in ``_matmul_unsigned`` turns it into +0.0, exactly as
        in the reference.)  Pulses come from the plan's per-code pulse table,
        one gather over the codes.

        Input rows are independent, so the chunk runs in row tiles of at
        most :data:`TILE_ELEMENTS` plane-tensor plus product values, each
        self-contained (:meth:`_planned_tile`): the working set stays
        cache-sized for any ``M``.  A chunk of several tiles runs them on
        up to :data:`TILE_WORKERS` cores (:meth:`_run_tiles_threaded`);
        every tile writes its own rows of the output and counts integer
        totals, so the result and the counters do not depend on which
        thread ran which tile.
        """
        plan = self.layer_plan
        operands = plan.operands[chunk_index]
        # Phases read only the low ``input_bits`` bits of a code.
        narrow = narrow_codes(codes, plan.phase_shifts.dtype) & plan.code_mask
        m, rows = narrow.shape
        analog = np.empty((m, operands.combined.shape[1]), dtype=np.float64)
        tile = max(1, TILE_ELEMENTS // (plan.n_planes * (rows + operands.n_columns)))
        centers = chunk.encoded.centers if chunk.encoded.encoding.uses_centers else None
        tiles = range(0, m, tile)
        arrays = (narrow, codes, operands, centers, analog)
        workers = min(TILE_WORKERS, len(tiles))
        if workers < 2:
            for start in tiles:
                self._planned_tile(start, start + tile, *arrays, self.stats)
        else:
            self._run_tiles_threaded(tiles, arrays, workers)
        return analog

    def _run_tiles_threaded(self, tiles: range, arrays: tuple, workers: int) -> None:
        """Run :meth:`_planned_tile` for every tile in ``tiles`` on ``workers`` threads.

        The calling thread works too, counting into ``self.stats``; each of
        the ``workers - 1`` call-scoped threads counts into a private
        :class:`LayerStatistics` that is folded in with ``merge_runs`` after
        the join.  Threads pull starts from one shared iterator until it is
        exhausted or a tile has raised, and are all joined before this
        returns -- no thread outlives the call (a persistent pool would
        keep :func:`~repro.runtime.procpool._default_start_method` off
        ``fork``).  The first exception raised in any tile re-raises here.
        """
        starts = iter(tiles)
        lock = threading.Lock()
        errors: list[BaseException] = []

        def drain(stats: LayerStatistics) -> None:
            while True:
                with lock:
                    start = None if errors else next(starts, None)
                if start is None:
                    return
                try:
                    self._planned_tile(start, start + tiles.step, *arrays, stats)
                except BaseException as error:
                    with lock:
                        errors.append(error)
                    return

        private = [LayerStatistics() for _ in range(workers - 1)]
        threads: list[threading.Thread] = []
        try:
            for stats in private:
                thread = threading.Thread(
                    target=drain, args=(stats,), name="pim-row-tile", daemon=True
                )
                thread.start()
                threads.append(thread)
            drain(self.stats)
        finally:
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        for stats in private:
            self.stats.merge_runs(stats)

    def _planned_tile(
        self,
        start: int,
        stop: int,
        narrow: np.ndarray,
        codes: np.ndarray,
        operands,
        centers: np.ndarray | None,
        analog: np.ndarray,
        stats: LayerStatistics,
    ) -> None:
        """Rows ``start:stop`` of the planned fast path, written into ``analog``.

        Counts the tile's pulses from the plan's pulse table, writes the
        exact product of its masked codes ``narrow`` (plus the centers'
        share, from the unmasked ``codes``, if the encoding uses centers),
        GEMMs its input planes, derives every speculative group's column
        sums from them with one small product, counts the ADC events into
        ``stats`` and, only where some conversion saturated, gathers the
        planes' sums to subtract what the ADC clipped off.
        """
        plan = self.layer_plan
        low, high = self.config.adc_min, self.config.adc_max
        narrow, codes = narrow[start:stop], codes[start:stop]
        analog = analog[start:stop]
        row_pulses = np.take(plan.pulse_table, narrow).sum(axis=0, dtype=np.int64)
        stats.input_pulses += int(row_pulses.sum())
        stats.crossbar_activity += float(row_pulses @ operands.sum_flat_rowsum)
        combined = operands.combined
        analog[...] = narrow.astype(combined.dtype) @ combined
        if centers is not None:
            analog += centers[np.newaxis, :].astype(np.float64) * codes.sum(
                axis=1, keepdims=True, dtype=np.int64
            )
        planes = slice_phases(narrow, plan.plane_shifts, plan.plane_masks)
        flat = planes.reshape(-1, narrow.shape[1]).astype(operands.dtype)
        sums = (flat @ operands.weights).reshape(plan.n_planes, -1)  # (B, m*S*F)
        # Planes out of ADC range: the only places a conversion can lose
        # anything (rare; a handful per thousand plane sums).
        clipped = sums < low
        clipped |= sums > high
        speculative = plan.group_weights.size > 0
        if speculative:
            group_sums = plan.group_weights @ sums  # (G, m*S*F)
            saturated = group_sums < low
            saturated |= group_sums > high
            failures = [np.count_nonzero(group) for group in saturated]
            stats.adc_converts_speculative += saturated.size
            stats.speculation_slots += saturated.size
            stats.speculation_failures += int(sum(failures))
            recoveries = int(np.dot(failures, plan.group_widths))
            stats.adc_converts_recovery += recoveries
            stats.fidelity_loss_opportunities += recoveries
        else:  # bit-serial: every column converts in every phase
            stats.adc_converts_serial += sums.size
            stats.fidelity_loss_opportunities += sums.size
        if not np.count_nonzero(clipped):
            return
        clipped_planes, positions = np.divmod(np.flatnonzero(clipped), sums.shape[1])
        values = sums[clipped_planes, positions].astype(np.float64)
        loss = values - np.clip(values, low, high)
        if speculative:  # a recovery plane converts only if its group failed
            loss *= saturated[plan.plane_group[clipped_planes], positions]
        stats.fidelity_loss_events += int(np.count_nonzero(loss))
        shape = (narrow.shape[0], plan.n_slices, plan.n_filters)
        rows, slices, filters = np.unravel_index(positions, shape)
        loss *= plan.loss_scales[clipped_planes, slices]
        analog -= np.bincount(
            rows * plan.n_filters + filters, loss, minlength=analog.size
        ).reshape(analog.shape)

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
        phase_tensor = slice_phases(codes, plan.phase_shifts, plan.phase_masks)
        flat = phase_tensor.reshape(-1, codes.shape[1]).astype(operands.dtype)
        # Float32 products are exact integers within float32's mantissa;
        # widening is lossless and keeps the ADC/noise stages on float64.
        products = np.asarray(flat @ operands.weights, dtype=np.float64)
        products = products.reshape(plan.n_phases, m, -1)
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
