"""End-to-end batched network execution.

:class:`NetworkEngine` runs a calibrated
:class:`~repro.nn.model.QuantizedModel` through per-layer PIM executors with
configurable micro-batching.  It is the batched-inference front end the
experiment harnesses use: compile once (adaptive slicing, center selection,
weight encoding -- all cached), then stream arbitrarily large input batches
through the vectorized executors without blowing up the working set.

Three construction paths:

* :meth:`NetworkEngine.compile` -- full RAELLA compilation (adaptive weight
  slicing per layer) with vectorized executors.
* :meth:`NetworkEngine.build` -- one uniform :class:`PimLayerConfig` for all
  layers, executors served from an :class:`~repro.runtime.cache.ExecutorPool`
  so repeated experiments reuse programmed crossbars.
* :meth:`NetworkEngine.from_program` -- wrap an existing compiled
  :class:`~repro.core.compiler.RaellaProgram`.

:meth:`NetworkEngine.run_timed` is the one place an engine run is timed and
its ``engine`` span built -- in the serving threads and in every
:class:`~repro.runtime.procpool.ReplicaPool` worker process alike.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.analog.noise import NoiseModel
from repro.core.compiler import RaellaCompiler, RaellaCompilerConfig, RaellaProgram
from repro.core.executor import LayerStatistics, PimLayerConfig, PimLayerExecutor
from repro.nn.layers import MatmulLayer
from repro.nn.model import QuantizedModel
from repro.runtime.cache import ExecutorPool
from repro.runtime.vectorized import VectorizedLayerExecutor

__all__ = ["NetworkEngine"]

#: Sentinel distinguishing "use the engine default" from an explicit ``None``
#: (= one full-batch pass) in per-call ``micro_batch`` overrides.
_USE_DEFAULT = object()


class NetworkEngine:
    """Batched inference over a calibrated model's per-layer PIM executors.

    Parameters
    ----------
    model:
        The calibrated quantized model.
    executors:
        One executor per crossbar-mapped layer, keyed by layer name.
    micro_batch:
        Default number of input samples pushed through the network at a time;
        ``None`` runs the whole batch in one pass (bit-identical to calling
        the executors directly).

    Executors accumulate statistics (and draw noise) unguarded, so an engine
    must own its executors: :meth:`run_timed` serialises concurrent callers
    on the engine's one lock.
    """

    #: Batches that may usefully run at once: one, since :meth:`run_timed`
    #: serialises on the engine's lock (a replica pool reports its width).
    dispatch_width = 1

    def __init__(
        self,
        model: QuantizedModel,
        executors: dict[str, PimLayerExecutor],
        micro_batch: int | None = None,
    ):
        missing = [
            layer.name
            for layer in model.matmul_layers()
            if layer.name not in executors
        ]
        if missing:
            raise ValueError(f"no executor for layers {missing}")
        self.model = model
        self.executors = dict(executors)
        self.micro_batch = micro_batch
        self._run_lock = threading.Lock()
        #: The compiled :class:`~repro.runtime.plan.ModelPlan` this engine was
        #: built against (``None`` when built without one).
        self.model_plan = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def compile(
        cls,
        model: QuantizedModel,
        config: RaellaCompilerConfig | None = None,
        noise: NoiseModel | None = None,
        micro_batch: int | None = None,
        test_inputs: np.ndarray | None = None,
        seed: int = 0,
        executor_factory: type[PimLayerExecutor] | None = None,
    ) -> "NetworkEngine":
        """Compile with per-layer adaptive slicing and vectorized executors."""
        compiler = RaellaCompiler(
            config,
            noise=noise,
            executor_factory=executor_factory or VectorizedLayerExecutor,
        )
        program = compiler.compile(model, test_inputs=test_inputs, seed=seed)
        return cls.from_program(program, micro_batch=micro_batch)

    @classmethod
    def build(
        cls,
        model: QuantizedModel,
        config: PimLayerConfig | None = None,
        noise: NoiseModel | None = None,
        micro_batch: int | None = None,
        pool: ExecutorPool | None = None,
        float32: bool | None = None,
        plan=None,
    ) -> "NetworkEngine":
        """Build with one uniform config per layer, executors from a pool.

        ``float32`` selects the vectorized executors' float32 GEMMs
        (bit-identical; applied per chunk only where provably exact;
        ``False`` forces float64); ``None`` defers to the pool's default,
        which is on.

        ``plan`` (a compiled :class:`~repro.runtime.plan.ModelPlan`) seeds
        each newly pooled executor with its layer's
        :class:`~repro.runtime.plan.CompiledLayerPlan`: it boots from the
        plan's pre-encoded chunks (no weight encoding at all -- this is how
        replica workers start from a pickled spec).  ``config``,
        ``micro_batch`` and ``float32`` left unset are taken from the plan:
        its config, its micro-batch size and each layer plan's GEMM dtype
        flag, so ``build(model, noise=noise, plan=plan)`` rebuilds the
        engine the plan was compiled for.
        """
        # Not ``pool or ExecutorPool()``: an empty pool is falsy (__len__) and
        # a shared pool passed in before first use must still be used.
        pool = pool if pool is not None else ExecutorPool()
        if plan is not None:
            config = plan.config if config is None else config
            micro_batch = plan.micro_batch if micro_batch is None else micro_batch
        executors = {}
        for layer in model.matmul_layers():
            layer_plan = plan.layer_plan(layer.name) if plan is not None else None
            executors[layer.name] = pool.get(
                layer,
                config,
                noise=noise,
                float32=(
                    layer_plan.float32
                    if float32 is None and layer_plan is not None
                    else float32
                ),
                plan=layer_plan,
            )
        engine = cls(model, executors, micro_batch=micro_batch)
        engine.model_plan = plan
        return engine

    @classmethod
    def from_program(
        cls, program: RaellaProgram, micro_batch: int | None = None
    ) -> "NetworkEngine":
        """Wrap the executors of an already-compiled RAELLA program."""
        executors = {
            name: compiled.executor for name, compiled in program.layers.items()
        }
        return cls(program.model, executors, micro_batch=micro_batch)

    # -- execution ------------------------------------------------------------

    def pim_matmul(self, input_codes: np.ndarray, layer: MatmulLayer) -> np.ndarray:
        """PIM mat-mul hook dispatching to the layer's executor."""
        executor = self.executors.get(layer.name)
        if executor is None:
            raise KeyError(f"layer {layer.name!r} has no executor")
        return executor.matmul(input_codes)

    def run(
        self,
        inputs: np.ndarray,
        return_codes: bool = False,
        micro_batch: int | None = _USE_DEFAULT,
    ) -> np.ndarray:
        """Run the integer path end-to-end through the PIM executors.

        ``micro_batch`` overrides the engine default for this call; pass an
        explicit ``None`` to force one full-batch pass.
        """
        resolved = self.micro_batch if micro_batch is _USE_DEFAULT else micro_batch
        return self.model.forward_quantized(
            inputs,
            pim_matmul=self.pim_matmul,
            return_codes=return_codes,
            micro_batch=resolved,
        )

    def run_timed(
        self,
        inputs: np.ndarray,
        return_codes: bool = False,
        micro_batch: int | None = _USE_DEFAULT,
        *,
        trace_ctx: tuple | None = None,
        span_sink: list | None = None,
    ) -> tuple[np.ndarray, float, list[tuple[int, float, str | None]]]:
        """Run and time one batch -> ``(outputs, engine seconds, records)``.

        The same contract as :meth:`ReplicaPool.run_timed
        <repro.runtime.procpool.ReplicaPool.run_timed>`: records are
        ``(n_samples, elapsed_s, replica)`` with ``replica=None`` for an
        in-process engine.  Concurrent calls run one at a time on the
        engine's lock, and only :meth:`run` is timed, after the lock is
        held, so calibration never sees a lock wait.

        When ``span_sink`` (a plain list) is given, one ``engine`` span dict
        is appended to it, stamped with this process's pid/tid on the
        monotonic clock; it carries ``trace_ids`` only when ``trace_ctx`` (a
        tuple of trace ids) names at least one trace.
        """
        n_samples = int(np.shape(inputs)[0])
        with self._run_lock:
            started_at = time.monotonic()
            start = time.perf_counter()
            outputs = self.run(
                inputs, return_codes=return_codes, micro_batch=micro_batch
            )
            elapsed = time.perf_counter() - start
        if span_sink is not None:
            span = {
                "name": "engine",
                "start_s": started_at,
                "end_s": started_at + elapsed,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "n_samples": n_samples,
                "replica": None,
                "status": "ok",
            }
            if trace_ctx:
                span["trace_ids"] = list(trace_ctx)
            span_sink.append(span)
        return outputs, elapsed, [(n_samples, elapsed, None)]

    def predict(
        self, inputs: np.ndarray, micro_batch: int | None = _USE_DEFAULT
    ) -> np.ndarray:
        """Class predictions from the PIM integer path."""
        logits = self.run(inputs, micro_batch=micro_batch)
        return np.argmax(logits, axis=-1)

    # -- statistics -----------------------------------------------------------

    def layer_statistics(self) -> dict[str, LayerStatistics]:
        """Per-layer accumulated statistics."""
        return {name: executor.stats for name, executor in self.executors.items()}

    def network_statistics(self) -> LayerStatistics:
        """Network-wide totals (crossbar/column counts sum across layers)."""
        total = LayerStatistics(layer_name=self.model.name)
        for executor in self.executors.values():
            total.merge_layers(executor.stats)
        return total

    def reset_statistics(self) -> None:
        """Clear accumulated statistics on every executor."""
        for executor in self.executors.values():
            executor.reset_stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkEngine(model={self.model.name!r}, "
            f"layers={len(self.executors)}, micro_batch={self.micro_batch})"
        )
