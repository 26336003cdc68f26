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
planes* (8 planes with speculation, not 11 phases) whose sums also give
every speculative sum, and a correction at the rare positions where the ADC
clipped a conversion the reference keeps.  Calls of at least
:data:`PACKED_MIN_ROWS` rows, on chunks whose plan proves it exact
(:func:`~repro.runtime.plan.packed_gemm_is_exact`), pack two planes into
each float32 operand value: the GEMM then has 4 operand rows per input row
with speculation, not 8, and the pulses come from the packed operand's
column sums.  Seeded noise draws and column-sum sampling *are*
order-sensitive, so noisy executors and column-sum collection run the
inherited speculation/recovery schedule on float64 column sums: one batched
GEMM per chunk feeds it every phase's sums, in plan order, as the stream
that :meth:`_chunk_phase_sums` yields.

Threading model: the planned path runs each chunk in self-contained,
bounded row tiles (:data:`TILE_ELEMENTS`).  A chunk of two or more tiles
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
from collections.abc import Iterator

import numpy as np

from repro.analog.noise import NoiseModel, NoiselessModel
from repro.core.executor import (
    LayerStatistics,
    PimLayerConfig,
    PimLayerExecutor,
    _EncodedChunk,
)
from repro.nn.layers import MatmulLayer
from repro.runtime.cache import GLOBAL_WEIGHT_CACHE, EncodedWeightCache
from repro.runtime.phases import (
    PACKED_FIELD_BITS,
    narrow_codes,
    pack_planes,
    slice_phases,
)
from repro.runtime.plan import (
    PACKED_FIELD_MAX,
    CompiledLayerPlan,
    float32_gemm_is_exact,
)

__all__ = [
    "BLAS_ENV_VARS",
    "PACKED_MIN_ROWS",
    "TILE_ELEMENTS",
    "TILE_WORKERS",
    "VectorizedLayerExecutor",
    "float32_gemm_is_exact",
]

#: Row-tile budget of the planned fast path, in working-set values
#: (:func:`_row_footprint`), about 4 MB of float32 per tile.  A tile issues
#: some 70 NumPy calls whatever its size, so the budget trades that
#: per-tile overhead against cache misses: on a 2-vCPU host with 2 MB of L2
#: per core, a packed ``resnet18_like`` pass ran ~10% faster at 2**20
#: values than at 2**19, and no faster at 2**21.
TILE_ELEMENTS = 1 << 20


#: Fewest rows a chunk call needs to GEMM its planes packed, two per float32
#: operand row.  At a few rows the pack and decode passes cost more than the
#: halved GEMM saves (isolated layers ran 0.87-0.90x packed at M=3); the
#: gate sits above every serving-sized batch (<= 32 rows), so small batches
#: keep the unpacked planes and the per-code pulse table.
PACKED_MIN_ROWS = 64


def _row_footprint(plan: CompiledLayerPlan, operands, rows: int, packed: bool) -> int:
    """Working-set values one input row adds to a planned tile of a ``rows``-row chunk.

    Unpacked: its plane slices and plane products.  Packed: its ``uint16``
    scratch and float32 packed operand rows, its packed products and its
    decoded plane sums.
    """
    n_planes, n_columns = plan.n_planes, operands.n_columns
    if not packed:
        return n_planes * (rows + n_columns)
    half = (n_planes + 1) // 2
    return 2 * half * rows + (half + n_planes) * n_columns


def _tile_rows(plan: CompiledLayerPlan, operands, rows: int, packed: bool) -> int:
    """Input rows per planned tile: :data:`TILE_ELEMENTS` of working set.

    A packed tile also keeps ``m * max_plane`` within one packed field, so
    its packed operand's column sums decode exactly.
    """
    tile = max(1, TILE_ELEMENTS // _row_footprint(plan, operands, rows, packed))
    if packed:
        tile = min(tile, PACKED_FIELD_MAX // int(plan.plane_masks.max()))
    return tile


def _unpack_rows(values: np.ndarray, half: int) -> None:
    """Decode packed rows ``values[:half]`` in place into ``values``.

    Row ``j`` holds ``lo + 4096 * hi`` for fields of magnitude at most
    :data:`~repro.runtime.plan.PACKED_FIELD_MAX`, so ``hi = rint(x / 4096)``
    and ``lo = x - 4096 * hi`` (both exact in float32); ``lo`` stays in row
    ``j`` and ``hi`` goes to row ``half + j``.
    """
    high = values[half:]
    low = values[: len(high)]
    np.multiply(low, 1.0 / (1 << PACKED_FIELD_BITS), out=high)
    np.rint(high, out=high)
    low -= high * (1 << PACKED_FIELD_BITS)


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

    Noiseless layers run the planned bit-plane kernel; a call of at least
    :data:`PACKED_MIN_ROWS` rows GEMMs two planes per float32 operand row on
    every chunk whose plan proved it exact (``float32`` chunks only).

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
        return super()._chunk_matmul(codes, chunk, chunk_index)

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
        one gather over the codes, or, when the planes are packed, from the
        packed operand's column sums.  A call packs when it has at least
        :data:`PACKED_MIN_ROWS` rows and the chunk's operands are proven
        ``packed``; nothing else decides it.

        Input rows are independent, so the chunk runs in row tiles of at
        most :data:`TILE_ELEMENTS` working-set values (:func:`_tile_rows`),
        each self-contained (:meth:`_planned_tile`): the working set stays
        bounded for any ``M``.  A chunk of several tiles runs them on
        up to :data:`TILE_WORKERS` cores (:meth:`_run_tiles_threaded`);
        every tile writes its own rows of the output and counts integer
        totals, so the result and the counters do not depend on which
        thread ran which tile.
        """
        plan = self.layer_plan
        operands = plan.operands[chunk_index]
        # Phases read only the low ``input_bits`` bits of a code; a mask
        # that keeps every bit of the code dtype needs no masked copy.
        narrow = narrow_codes(codes, plan.phase_shifts.dtype)
        if plan.code_mask != np.iinfo(narrow.dtype).max:
            narrow = narrow & plan.code_mask
        m, rows = narrow.shape
        analog = np.empty((m, operands.combined.shape[1]), dtype=np.float64)
        packed = operands.packed and m >= PACKED_MIN_ROWS
        tile = _tile_rows(plan, operands, rows, packed)
        centers = chunk.encoded.centers if chunk.encoded.encoding.uses_centers else None
        tiles = range(0, m, tile)
        arrays = (narrow, codes, operands, packed, centers, analog)
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
        packed: bool,
        centers: np.ndarray | None,
        analog: np.ndarray,
        stats: LayerStatistics,
    ) -> None:
        """Rows ``start:stop`` of the planned fast path, written into ``analog``.

        GEMMs the tile's input planes (two per float32 operand row when
        ``packed``, :meth:`_packed_plane_sums`) and counts its pulses (from
        the plane column sums when packed, else from the plan's pulse
        table), writes the exact product of its masked codes ``narrow``
        (plus the centers' share, from the unmasked ``codes``, if the
        encoding uses centers), derives every speculative group's column
        sums from the planes' with one small product, counts the ADC events
        into ``stats`` and, only where some conversion saturated, gathers
        the planes' sums to subtract what the ADC clipped off.
        """
        plan = self.layer_plan
        low, high = self.config.adc_min, self.config.adc_max
        narrow, codes = narrow[start:stop], codes[start:stop]
        analog = analog[start:stop]
        if packed:
            sums, row_pulses = self._packed_plane_sums(narrow, operands)
        else:
            row_pulses = np.take(plan.pulse_table, narrow).sum(axis=0, dtype=np.int64)
            planes = slice_phases(narrow, plan.plane_shifts, plan.plane_masks)
            flat = planes.reshape(-1, narrow.shape[1]).astype(operands.dtype)
            sums = (flat @ operands.weights).reshape(plan.n_planes, -1)  # (B, m*S*F)
        stats.input_pulses += int(row_pulses.sum())
        stats.crossbar_activity += float(row_pulses @ operands.sum_flat_rowsum)
        combined = operands.combined
        analog[...] = narrow.astype(combined.dtype) @ combined
        if centers is not None:
            analog += centers[np.newaxis, :].astype(np.float64) * codes.sum(
                axis=1, keepdims=True, dtype=np.int64
            )
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

    def _packed_plane_sums(
        self, narrow: np.ndarray, operands
    ) -> tuple[np.ndarray, np.ndarray]:
        """A tile's ``(B, m*S*F)`` plane sums and per-row pulses, planes packed.

        One float32 GEMM of ``ceil(B/2) * m`` packed rows
        (:func:`~repro.runtime.phases.pack_planes`) yields
        ``S_b + 4096 * S_(b+ceil(B/2))`` per pair of planes, decoded exactly
        as the chunk's ``packed`` proof guarantees (:func:`_unpack_rows`).
        The packed operand's column sums, decoded the same way, are every
        plane's per-row value totals, and the plan's ``pulse_coef`` turns
        them into per-row pulse counts (exact while ``m * max_plane`` stays
        within a field, which :func:`_tile_rows` enforces).
        """
        plan = self.layer_plan
        m, rows = narrow.shape
        half = (plan.n_planes + 1) // 2
        operand = pack_planes(narrow, plan.plane_shifts, plan.plane_masks).astype(
            np.float32
        )  # (ceil(B/2), m, rows)
        sums = np.empty((plan.n_planes, m * operands.n_columns), dtype=np.float32)
        np.matmul(
            operand.reshape(half * m, rows),
            operands.weights,
            out=sums[:half].reshape(half * m, operands.n_columns),
        )
        _unpack_rows(sums, half)
        column_sums = np.empty((plan.n_planes, rows), dtype=np.float32)
        np.matmul(np.ones(m, dtype=np.float32), operand, out=column_sums[:half])
        _unpack_rows(column_sums, half)
        row_pulses = (plan.pulse_coef @ column_sums).astype(np.int64)
        return sums, row_pulses

    def _chunk_phase_sums(
        self, codes: np.ndarray, chunk: _EncodedChunk, chunk_index: int
    ) -> Iterator[np.ndarray]:
        """Yield each phase's analog column sums, in plan order, from one GEMM.

        Every phase is sliced at once and GEMMed against the chunk's plan
        operands (``W+ - W-``, stacked with ``W+ + W-`` under noise); each
        phase's rows are then accounted, and under noise drawn, by
        :meth:`~repro.core.executor.PimLayerExecutor._phase_column_sums`
        when the schedule asks for the phase, exactly as in the reference.
        """
        plan = self.layer_plan
        operands = plan.operands[chunk_index]
        phases = slice_phases(codes, plan.phase_shifts, plan.phase_masks)
        row_pulses = phases.sum(axis=1, dtype=np.int64)  # (n_phases, rows)
        # Float32 products are exact integers within float32's mantissa;
        # widening is lossless and keeps the ADC/noise stages on float64.
        products = np.asarray(
            phases.reshape(-1, codes.shape[1]).astype(operands.dtype)
            @ operands.weights,
            dtype=np.float64,
        ).reshape(plan.n_phases, codes.shape[0], -1)
        del phases  # the schedule runs between yields; free the slices first
        n_columns, sum_rowsum = operands.n_columns, operands.sum_flat_rowsum
        for index in range(plan.n_phases):
            total = None if sum_rowsum is not None else products[index, :, n_columns:]
            yield self._phase_column_sums(
                products[index, :, :n_columns], total, row_pulses[index], sum_rowsum
            )
