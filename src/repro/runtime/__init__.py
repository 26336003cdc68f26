"""Vectorized batched execution runtime.

The per-phase :class:`~repro.core.executor.PimLayerExecutor` is exact but
iterates the 11-cycle Dynamic Input Slicing schedule in Python, one slice
extraction and one matmul per phase.  This package rebuilds that hot path as a
batched engine while staying bit-identical to the per-phase reference:

* :mod:`repro.runtime.phases` precomputes every input bit-plane slice of a
  batch in one shot -- a single narrow-dtype (``uint8``) ``(n_phases, M,
  rows)`` tensor per crossbar chunk instead of ``n_phases`` sequential
  ``extract_input_slice`` calls.
* :mod:`repro.runtime.vectorized` fuses the per-phase matmuls of a chunk into
  one BLAS GEMM (:class:`VectorizedLayerExecutor`).  Slice and weight values
  are small integers, so the GEMM is exact and the results are bit-identical
  to the integer per-phase path.  It runs in float32 by default wherever
  :func:`float32_gemm_is_exact` proves the accumulation fits float32's
  24-bit mantissa (``float32=False`` forces float64).
* :mod:`repro.runtime.plan` compiles the whole derivation -- slicing extents,
  bit-plane and phase-extraction tables, the per-code pulse table, GEMM
  operand views with proven dtypes and plane-packing proofs -- into
  per-layer plans, compiled when
  each executor is built, and a pickle-able :class:`ModelPlan` per
  ``(model, config, noise, float32, micro_batch)``: noiseless executors
  collapse the per-phase ADC/speculation loop into whole-tensor operations,
  and replica workers boot only from the shipped plan, never re-encoding
  weights.
* :mod:`repro.runtime.cache` shares encoded weights across executor instances
  and pools executors per layer so repeated experiments do not re-program
  crossbars.
* :mod:`repro.runtime.engine` runs a calibrated
  :class:`~repro.nn.model.QuantizedModel` end-to-end with configurable
  micro-batching (:class:`NetworkEngine`).
* :mod:`repro.runtime.procpool` hosts an engine in worker *processes*,
  sidestepping the GIL for the digital stages; request/response arrays
  travel through shared-memory blocks with a framed header instead of the
  pickler, and results stay bit-identical to the in-process engine.
  :class:`EngineWorker` is one worker process; :class:`ReplicaPool` fronts
  N >= 1 of them behind one engine interface, with least-loaded dispatch,
  liveness probes and automatic restart of crashed replicas
  (:class:`WorkerHandle` per slot).

Quickstart::

    from repro.nn.zoo import resnet18_like
    from repro.runtime import NetworkEngine

    model = resnet18_like(seed=0)
    engine = NetworkEngine.compile(model)
    outputs = engine.run(inputs, micro_batch=64)
    print(engine.network_statistics().converts_per_mac)
"""

from repro.runtime.cache import (
    GLOBAL_WEIGHT_CACHE,
    EncodedWeightCache,
    ExecutorPool,
    ModelPlanCache,
)
from repro.runtime.engine import NetworkEngine
from repro.runtime.phases import plan_shift_masks
from repro.runtime.plan import (
    CompiledLayerPlan,
    ModelPlan,
    compile_model_plan,
)
from repro.runtime.procpool import (
    EngineSpec,
    EngineWorker,
    RemoteEngineError,
    ReplicaPool,
    WorkerClosedError,
    WorkerCrashError,
    WorkerHandle,
    WorkerStartupError,
)
from repro.runtime.vectorized import VectorizedLayerExecutor, float32_gemm_is_exact

__all__ = [
    "CompiledLayerPlan",
    "EncodedWeightCache",
    "EngineSpec",
    "EngineWorker",
    "ExecutorPool",
    "GLOBAL_WEIGHT_CACHE",
    "ModelPlan",
    "ModelPlanCache",
    "NetworkEngine",
    "RemoteEngineError",
    "ReplicaPool",
    "VectorizedLayerExecutor",
    "WorkerClosedError",
    "WorkerCrashError",
    "WorkerHandle",
    "WorkerStartupError",
    "compile_model_plan",
    "float32_gemm_is_exact",
    "plan_shift_masks",
]
