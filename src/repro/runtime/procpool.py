"""Process-based engine workers with a zero-copy shared-memory request path.

The thread-based serving stack (:mod:`repro.serve`) overlaps engine calls of
different models, but the simulator's digital stages -- quantize/dequantize,
phase extraction, statistics -- are Python/NumPy code that holds the GIL for
most of its runtime, so threads only buy concurrency, not parallelism.  This
module moves each engine into its own *process*:

* :class:`EngineWorker` is the transport: it forks/spawns a child process
  that unpickles an :class:`EngineSpec` -- a calibrated model, its compiled
  :class:`~repro.runtime.plan.ModelPlan` and its noise model -- builds a
  :class:`~repro.runtime.NetworkEngine` whose executors boot from the plan's
  pre-encoded chunks (a worker never encodes weights), and serves requests
  from a pipe until told to close.
* Input and output arrays never travel through the pipe or the pickler.
  Arrays move through :class:`multiprocessing.shared_memory` blocks, one
  per direction, each owned by its sender (the parent owns the request
  block, the worker the reply block); a small framed header at the start
  of each block carries the array's shape/dtype and the request sequence
  number, and the pipe only moves tiny control tuples (block name, flags,
  timings).  The worker runs the engine directly on a mapped view of the
  input payload, and the parent copies each reply out of the reply block
  before returning it, so every caller owns its result.  Blocks grow on
  demand and the stale block is unlinked once the peer has switched to
  the new name.  A worker names each reply block after its pid and the
  request that created it, so the parent can reclaim a block the worker
  created but was killed before naming in a reply.
* :class:`WorkerHandle` wraps one replica *slot*: the current worker and
  its restart bookkeeping, so a crashed process can be replaced without
  the surrounding pool losing its place.
* :class:`ReplicaPool` is the :class:`~repro.runtime.NetworkEngine`-shaped
  facade the serving layer hosts: N workers behind one engine interface,
  with least-loaded dispatch and one maintenance thread that probes
  liveness and restarts crashed replicas (their in-flight batch is
  requeued onto a sibling), and rolling replace so a model stays
  serveable while it is re-registered.  Every worker of a pool boots
  through :meth:`ReplicaPool._spawn` from the pool's current spec.  One
  replica (``replicas=1``) is the single-worker process backend.

Outputs are bit-identical to the in-process engine (same pickled weights,
same seeded noise state, same micro-batching).  Pools hosting a *stateful*
noise model pin all dispatch to one replica so the seeded RNG draw order
matches the in-process engine exactly.

Each worker pins its BLAS/OpenMP thread pools (``OMP_NUM_THREADS`` /
``OPENBLAS_NUM_THREADS`` / ``MKL_NUM_THREADS``, via
:attr:`EngineSpec.blas_threads`, plus a live resize of every loaded
OpenBLAS, which a forked worker inherits already started) and runs its
planned row tiles on one thread, so N replicas divide the machine instead
of oversubscribing it.
"""

from __future__ import annotations

import itertools
import logging
import os
import pickle
import struct
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context, shared_memory
from typing import Callable

import numpy as np

from repro.analog.noise import NoiseModel, NoiselessModel
from repro.core.executor import LayerStatistics
from repro.nn.model import QuantizedModel
from repro.runtime import vectorized
from repro.runtime.plan import ModelPlan

__all__ = [
    "EngineSpec",
    "EngineWorker",
    "RemoteEngineError",
    "ReplicaPool",
    "WorkerCrashError",
    "WorkerClosedError",
    "WorkerHandle",
    "WorkerStartupError",
]

#: Sentinel mirroring :data:`repro.runtime.engine._USE_DEFAULT` (imported
#: lazily in methods to keep module import light for spawned workers).
_USE_DEFAULT = object()

#: Frame header layout at offset 0 of every shared-memory block:
#: magic u32, sequence u64, flags u8, dtype string (16 bytes, NUL padded),
#: ndim u8, then a fixed 8-slot u64 shape.  The payload starts at a fixed
#: 128-byte offset so the header never aliases array data.
_FRAME = struct.Struct("<IQB16sB8Q")
_FRAME_MAGIC = 0x52504631  # "RPF1"
_MAX_DIMS = 8
_PAYLOAD_OFFSET = 128
_MIN_BLOCK_BYTES = 1 << 16

#: Default startup/shutdown deadlines; per-worker values are constructor
#: arguments (:class:`EngineWorker`, :meth:`ReplicaPool.launch`).
_BOOT_TIMEOUT_S = 120.0
_SHUTDOWN_TIMEOUT_S = 10.0

#: How often a :class:`ReplicaPool`'s prober sweeps its replicas for death.
_PROBE_INTERVAL_S = 0.5

#: Restart backoff bounds for a replica slot whose respawns keep failing.
_RESTART_BACKOFF_MIN_S = 0.5
_RESTART_BACKOFF_MAX_S = 30.0

#: How much of a dead worker's stderr a :class:`WorkerStartupError` carries.
_STDERR_TAIL_BYTES = 4096

#: Serialises the parent-side environment staging around ``Process.start()``
#: (spawned children capture ``os.environ`` at exec time).
_BLAS_ENV_LOCK = threading.Lock()

#: Replica slot states (guarded by the owning pool's condition).
_HEALTHY = "healthy"
_DEAD = "dead"
_RESTARTING = "restarting"
_CLOSED = "closed"


class RemoteEngineError(RuntimeError):
    """An engine failure inside a worker that could not be re-raised as-is.

    Raised when the worker-side exception does not survive pickling; the
    message carries the original type, message and remote traceback text.
    """


class WorkerCrashError(RemoteEngineError):
    """The worker process died (or its pipe broke) mid-conversation.

    A :class:`ReplicaPool` treats this as *retryable*: the batch is requeued
    onto a healthy sibling while the pool's prober restarts the dead replica.
    """


class WorkerClosedError(RemoteEngineError):
    """A request hit a worker (or pool) that has already been shut down."""


class WorkerStartupError(RemoteEngineError):
    """The worker process failed to boot (build error, death, or timeout).

    Carries the child's captured stderr tail in :attr:`stderr_tail` -- the
    import error or hard crash that a bare timeout message would hide.
    """

    def __init__(self, message: str, stderr_tail: str = ""):
        self.stderr_tail = stderr_tail
        if stderr_tail.strip():
            message = f"{message}\n--- worker stderr tail ---\n{stderr_tail}"
        super().__init__(message)


def _write_frame(shm: shared_memory.SharedMemory, seq: int, array: np.ndarray) -> None:
    """Write ``array`` into the block behind a framed header."""
    if array.ndim > _MAX_DIMS:
        raise ValueError(f"arrays beyond {_MAX_DIMS} dimensions are unsupported")
    shape = array.shape + (0,) * (_MAX_DIMS - array.ndim)
    _FRAME.pack_into(
        shm.buf,
        0,
        _FRAME_MAGIC,
        seq,
        0,
        array.dtype.str.encode("ascii"),
        array.ndim,
        *shape,
    )
    destination = np.ndarray(
        array.shape, dtype=array.dtype, buffer=shm.buf, offset=_PAYLOAD_OFFSET
    )
    np.copyto(destination, array)


def _read_frame(shm: shared_memory.SharedMemory, seq: int) -> np.ndarray:
    """A zero-copy array view over the block's framed payload."""
    magic, frame_seq, _flags, dtype_tag, ndim, *shape = _FRAME.unpack_from(shm.buf, 0)
    if magic != _FRAME_MAGIC:
        raise RuntimeError("shared-memory frame is corrupt (bad magic)")
    if frame_seq != seq:
        raise RuntimeError(
            f"shared-memory frame out of sync: expected seq {seq}, found {frame_seq}"
        )
    dtype = np.dtype(dtype_tag.rstrip(b"\x00").decode("ascii"))
    return np.ndarray(
        tuple(shape[:ndim]), dtype=dtype, buffer=shm.buf, offset=_PAYLOAD_OFFSET
    )


def _reply_block_name(pid: int, seq: int) -> str:
    """The name worker ``pid`` gives the reply block it creates for ``seq``.

    Keeps :mod:`multiprocessing.shared_memory`'s ``psm_`` prefix.
    """
    return f"psm_{pid:x}_{seq:x}"


def _unlink_block(name: str) -> None:
    """Unlink the named shared-memory block if it exists."""
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    except ValueError:
        # Empty: its creator was killed before sizing it, so it cannot be
        # mapped and was never registered with the resource tracker.
        import _posixshmem

        _posixshmem.shm_unlink("/" + name)
        return
    shm.close()
    shm.unlink()


class _ArraySender:
    """The owning side of one transport direction: create, grow, unlink.

    With ``owner_pid`` set, each new block is named
    :func:`_reply_block_name` ``(owner_pid, seq)`` for the request that
    created it; otherwise the name is random.
    """

    def __init__(self, owner_pid: int | None = None) -> None:
        self._shm: shared_memory.SharedMemory | None = None
        self._owner_pid = owner_pid

    def send(self, seq: int, array: np.ndarray) -> str:
        """Frame ``array`` into the current block (growing it) -> block name."""
        array = np.ascontiguousarray(array)
        needed = _PAYLOAD_OFFSET + array.nbytes
        if self._shm is None or self._shm.size < needed:
            # Grow by replacement: the old block stays mapped (and thus
            # valid) wherever the peer still holds it; unlinking here only
            # removes the name.  The peer drops its stale attachment when
            # the next control message names the new block.
            self.close()
            name = None
            if self._owner_pid is not None:
                name = _reply_block_name(self._owner_pid, seq)
            self._shm = shared_memory.SharedMemory(
                name=name, create=True, size=max(needed, _MIN_BLOCK_BYTES)
            )
        _write_frame(self._shm, seq, array)
        return self._shm.name

    def close(self) -> None:
        """Unmap and unlink the owned block (idempotent)."""
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None


class _ArrayReceiver:
    """The attaching side: map blocks by name; the owner usually unlinks.

    A view from :meth:`view` points into the mapping without keeping it
    alive (``numpy`` does not hold ``shm.buf`` exported), so the caller must
    drop it before the next :meth:`view` -- which unmaps a replaced block --
    or :meth:`close`; otherwise reading it touches unmapped pages.
    """

    def __init__(self) -> None:
        self._attached: dict[str, shared_memory.SharedMemory] = {}

    def view(self, name: str, seq: int) -> np.ndarray:
        """A zero-copy view of the named block's framed payload."""
        shm = self._attached.get(name)
        if shm is None:
            # The sender replaced its block: every previous attachment is
            # stale (one live block per direction), so unmap them first.
            # Attaching re-registers the name with the resource tracker,
            # which parent and workers share (its fd travels with both fork
            # and spawn), so the tracker's name set stays deduplicated and
            # only the owner's unlink unregisters it.
            self.close()
            shm = shared_memory.SharedMemory(name=name)
            self._attached[name] = shm
        return _read_frame(shm, seq)

    def close(self, unlink: bool = False) -> None:
        """Unmap every attachment.

        ``unlink=True`` reclaims the blocks too: when the owning worker was
        killed mid-flight its teardown never ran, so the attaching parent is
        the last one standing and must unlink, or the segment is stranded
        until interpreter exit.
        """
        for shm in self._attached.values():
            if unlink:
                try:
                    shm.unlink()
                except FileNotFoundError:  # owner got there first
                    pass
            shm.close()
        self._attached.clear()


@dataclass(frozen=True)
class EngineSpec:
    """Everything a worker needs to rebuild a :class:`NetworkEngine`.

    An engine is its plan: ``plan`` is the model's compiled
    :class:`~repro.runtime.plan.ModelPlan`, shipped by value, and it carries
    the layer config, the micro-batch size and each layer's GEMM dtypes.  A
    worker seeds its executors with the plan's pre-encoded chunks and operand
    tables, so N replicas, crash restarts and rolling ``replace()`` pay the
    compile exactly once, in the parent.  ``noise`` is the one thing a plan
    does not hold (a plan never carries RNG state).

    The spec is pickled once per launch or ``replace``, and every worker of
    that spec (restarts included) boots from the same bytes; the worker
    builds its own engine from it, so no parent-side state (and none of the
    parent's locks) is shared.  ``sys_path`` replays the parent's import
    path so spawned workers resolve ``repro`` exactly like the parent did.
    ``blas_threads`` pins the worker's BLAS/OpenMP pools (``None`` leaves
    them unpinned); the default of one thread per worker keeps N replicas
    from oversubscribing the machine.
    """

    model: QuantizedModel
    plan: ModelPlan
    noise: NoiseModel | None = None
    sys_path: tuple[str, ...] = field(default_factory=tuple)
    blas_threads: int | None = 1

    def __post_init__(self) -> None:
        if self.blas_threads is not None and self.blas_threads < 1:
            raise ValueError("blas_threads must be >= 1 (or None to leave unpinned)")


def _pickle_spec(spec: EngineSpec) -> bytes:
    """The spec's pickle; :class:`ValueError` when it cannot cross processes."""
    try:
        return pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as error:
        raise ValueError(
            "engine spec is not picklable (model, plan and noise must "
            f"survive a process boundary): {error!r}"
        ) from error


def _engine_spec(
    model: QuantizedModel,
    plan: ModelPlan,
    noise: NoiseModel | None,
    blas_threads: int | None,
) -> tuple[EngineSpec, bytes]:
    """The spec :meth:`ReplicaPool.launch` and ``replace`` boot workers from,
    with its pickle.

    Raises :class:`ValueError` for an uncalibrated model, a plan that was not
    compiled for every matmul layer of ``model`` (a worker would have to
    encode the missing weights) or a spec that does not pickle, before any
    worker is started or retired.
    """
    if not model.is_calibrated:
        raise ValueError(f"model {model.name!r} must be calibrated first")
    for layer in model.matmul_layers():
        layer_plan = plan.layer_plan(layer.name)
        if layer_plan is None or not layer_plan.matches(layer, plan.config):
            raise ValueError(
                f"plan {plan.model_name!r} was not compiled for layer "
                f"{layer.name!r} of model {model.name!r}"
            )
    spec = EngineSpec(
        model=model,
        plan=plan,
        noise=noise,
        sys_path=tuple(sys.path),
        blas_threads=blas_threads,
    )
    return spec, _pickle_spec(spec)


#: ``(prefix, suffix)`` of the OpenBLAS thread-count entry points
#: ``{prefix}_get_num_threads{suffix}``/``{prefix}_set_num_threads{suffix}``,
#: as plain, 64-bit-integer and scipy-openblas (numpy's wheels) builds
#: export them.
_OPENBLAS_SYMBOLS = (
    ("openblas", ""),
    ("openblas", "64_"),
    ("scipy_openblas", "64_"),
    ("scipy_openblas", ""),
)


def _openblas_thread_controls() -> list[tuple[Callable, Callable]]:
    """``(get_num_threads, set_num_threads)`` of every loaded OpenBLAS.

    The libraries are the shared objects mapped into this process
    (``/proc/self/maps``) whose file name mentions OpenBLAS, opened with
    ``ctypes`` without loading anything new -- threadpoolctl's mechanism,
    without the dependency.  Empty where no OpenBLAS is loaded or the maps
    file is unreadable (non-Linux).
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return []
    controls = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            library = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            getter = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
                break
    return controls


def _blas_pool_threads() -> int | None:
    """The live thread count of the first loaded OpenBLAS (``None``: none found)."""
    controls = _openblas_thread_controls()
    return int(controls[0][0]()) if controls else None


def _limit_blas_threads(n: int | None) -> None:
    """Worker bootstrap: pin BLAS/OpenMP pools to ``n`` threads.

    The environment variables cover spawned workers (BLAS reads them when the
    fresh interpreter first loads it).  A forked worker inherits its
    parent's already-started BLAS pool, which no longer reads them, so every
    loaded OpenBLAS is also resized through its ``*_set_num_threads*`` entry
    point (:func:`_openblas_thread_controls`); where no known setter exists
    a :class:`RuntimeWarning` says the live pool kept its size.  The
    worker's ``n`` cores are its BLAS pool's, so its planned row tiles run
    on the calling thread (:data:`~repro.runtime.vectorized.TILE_WORKERS` =
    1).
    """
    if n is None:
        return
    vectorized.TILE_WORKERS = 1
    for var in vectorized.BLAS_ENV_VARS:
        os.environ[var] = str(n)
    controls = _openblas_thread_controls()
    if not controls:
        import warnings

        warnings.warn(
            "no known BLAS thread-count setter is loaded; a forked worker "
            f"keeps its parent's BLAS pool instead of {n} thread(s)",
            RuntimeWarning,
            stacklevel=2,
        )
    for _getter, setter in controls:
        setter(n)


def _error_message(seq: int, error: BaseException) -> tuple:
    """An ``("err", ...)`` reply: pickled exception plus plain-text fallback."""
    import traceback

    tb_text = "".join(traceback.format_exception(error))
    try:
        payload = pickle.dumps(error)
        pickle.loads(payload)  # some exceptions pickle but refuse to rebuild
    except Exception:
        payload = None
    return ("err", seq, payload, type(error).__name__, str(error), tb_text)


def _raise_remote(message: tuple) -> None:
    """Re-raise a worker-side failure in the caller."""
    _kind, _seq, payload, type_name, text, tb_text = message
    if payload is not None:
        try:
            error = pickle.loads(payload)
        except Exception:
            error = None
        if isinstance(error, BaseException):
            error.remote_traceback = tb_text
            raise error
    raise RemoteEngineError(
        f"{type_name} in engine worker: {text}\n--- worker traceback ---\n{tb_text}"
    )


def _engine_worker_main(
    spec_bytes: bytes, requests, results, stderr_path: str | None = None
) -> None:
    """The worker process: build the engine, then serve the request pipe.

    Replies are ``("ok", seq, block_name_or_None, meta_dict)`` or the
    ``("err", ...)`` tuple of :func:`_error_message`.  A ``run`` request is
    served by :meth:`NetworkEngine.run_timed
    <repro.runtime.engine.NetworkEngine.run_timed>`; the reply's meta ships
    its engine wall time and engine-run records, plus -- when the request
    asked for spans -- its ``engine`` span (this process's pid/tid) under
    ``spans`` for the parent's distributed traces.
    """
    if stderr_path is not None:
        # Redirect fd 2 before anything can fail so build errors, import
        # errors and hard crashes land in the parent-readable tail file.
        try:
            fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600)
            os.dup2(fd, 2)
            os.close(fd)
            # Forked children inherit the parent's sys.stderr *object*,
            # which may be buffered or patched to write somewhere other
            # than fd 2 (test harnesses do this); rebind it onto the
            # redirected fd so Python-level writes land in the tail too.
            sys.stderr = os.fdopen(2, "w", buffering=1, closefd=False)
        except OSError:  # pragma: no cover - capture is best effort
            pass
    receiver = _ArrayReceiver()
    # One reply block: the parent copies each reply out before it sends the
    # next request, so the block is free again whenever a request arrives.
    sender = _ArraySender(owner_pid=os.getpid())
    try:
        try:
            spec: EngineSpec = pickle.loads(spec_bytes)
            for path in reversed(spec.sys_path):
                if path not in sys.path:
                    sys.path.insert(0, path)
            _limit_blas_threads(spec.blas_threads)
            from repro.runtime.engine import NetworkEngine

            engine = NetworkEngine.build(spec.model, noise=spec.noise, plan=spec.plan)
        except BaseException as error:
            results.send(_error_message(0, error))
            return
        results.send(("ok", 0, None, {}))
        while True:
            try:
                message = requests.recv()
            except (EOFError, OSError):  # parent died or closed the pipe
                return
            kind, seq = message[0], message[1]
            if kind == "close":
                return
            try:
                if kind == "run":
                    (
                        _,
                        _,
                        block,
                        return_codes,
                        has_override,
                        micro_batch,
                        trace_ctx,
                    ) = message
                    inputs = receiver.view(block, seq)
                    # ``trace_ctx`` doubles as the span request: ``None``
                    # when the parent has no span sink, else the trace ids
                    # to stamp (empty when the parent traces no request).
                    spans = None if trace_ctx is None else []
                    overrides = {"micro_batch": micro_batch} if has_override else {}
                    try:
                        outputs, elapsed, records = engine.run_timed(
                            inputs,
                            return_codes=return_codes,
                            trace_ctx=trace_ctx,
                            span_sink=spans,
                            **overrides,
                        )
                    finally:
                        # The view does not keep its mapping alive: drop it
                        # before the next ``receiver.view`` can unmap it.
                        del inputs
                    out_block = sender.send(seq, outputs)
                    meta = {"engine_time_s": elapsed, "records": records}
                    if spans is not None:
                        meta["spans"] = spans
                    results.send(("ok", seq, out_block, meta))
                elif kind == "ping":
                    meta = {
                        "pid": os.getpid(),
                        "blas_threads": os.environ.get("OMP_NUM_THREADS"),
                        "blas_pool_threads": _blas_pool_threads(),
                    }
                    results.send(("ok", seq, None, meta))
                elif kind == "layer_stats":
                    stats = engine.layer_statistics()
                    results.send(("ok", seq, None, {"stats": stats}))
                elif kind == "reset_stats":
                    engine.reset_statistics()
                    results.send(("ok", seq, None, {}))
                else:
                    raise ValueError(f"unknown worker request kind {kind!r}")
            except BaseException as error:
                results.send(_error_message(seq, error))
    finally:
        sender.close()
        receiver.close()
        requests.close()
        results.close()


def _default_start_method() -> str:
    """``fork`` where available *and* the parent is single-threaded.

    Worker-side state is fork-safe (the worker builds its own engine and
    locks), but forking a multi-threaded parent can duplicate a lock
    some other thread held mid-operation -- e.g. registering a process
    backend while an :class:`~repro.serve.InferenceServer` is already
    running its scheduler/worker threads.  In that case fall back to
    ``spawn``, which starts the worker from a clean interpreter.  Replica
    restarts happen on the pool's prober thread, so they always resolve to
    ``spawn``.
    """
    if "fork" in get_all_start_methods() and threading.active_count() == 1:
        return "fork"
    return "spawn"


class EngineWorker:
    """Parent-side handle to one engine worker process.

    Owns the request/result pipes and the request shared-memory block (the
    worker owns the reply block); serialises callers with an internal lock,
    so one worker serves one request at a time -- exactly the per-model
    serialisation the server guarantees anyway.  :meth:`request` copies each
    reply out of the reply block under that lock, so callers get owned,
    writeable arrays and no view into shared memory ever leaves this class.

    ``start_timeout_s`` bounds the boot handshake (a miss raises
    :class:`WorkerStartupError` carrying the child's stderr tail);
    ``shutdown_timeout_s`` bounds each join attempt in :meth:`close`.
    ``spec_bytes`` is ``spec``'s pickle when the caller already holds it (a
    :class:`ReplicaPool` pickles each spec once for all its workers).
    """

    def __init__(
        self,
        spec: EngineSpec,
        start_method: str | None = None,
        name: str | None = None,
        start_timeout_s: float = _BOOT_TIMEOUT_S,
        shutdown_timeout_s: float = _SHUTDOWN_TIMEOUT_S,
        spec_bytes: bytes | None = None,
    ):
        if start_timeout_s <= 0 or shutdown_timeout_s <= 0:
            raise ValueError("worker timeouts must be positive")
        if spec_bytes is None:
            spec_bytes = _pickle_spec(spec)
        self._start_timeout_s = start_timeout_s
        self._shutdown_timeout_s = shutdown_timeout_s
        # Start the shared-memory resource tracker *before* forking so the
        # worker inherits it instead of lazily starting its own: with one
        # shared tracker, create/attach registrations of the same block
        # deduplicate and exactly the owner's unlink unregisters it.  (Spawn
        # always ships the tracker fd in its preparation data.)
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker internals vary
            pass
        self._stderr_path: str | None = None
        try:
            stderr_fd, self._stderr_path = tempfile.mkstemp(
                prefix="engine-worker-", suffix=".stderr"
            )
            os.close(stderr_fd)
        except OSError:  # pragma: no cover - capture is best effort
            self._stderr_path = None
        context = get_context(start_method or _default_start_method())
        request_read, request_write = context.Pipe(duplex=False)
        result_read, result_write = context.Pipe(duplex=False)
        self._process = context.Process(
            target=_engine_worker_main,
            args=(spec_bytes, request_read, result_write, self._stderr_path),
            name=f"engine-worker-{name or spec.model.name}",
            daemon=True,
        )
        if spec.blas_threads is None:
            self._process.start()
        else:
            # Spawned children capture os.environ at exec time, so staging
            # the pin around start() guarantees the fresh interpreter's BLAS
            # reads it on load.  (Forked children additionally re-apply it
            # in their own bootstrap.)
            with _BLAS_ENV_LOCK:
                saved = {var: os.environ.get(var) for var in vectorized.BLAS_ENV_VARS}
                for var in vectorized.BLAS_ENV_VARS:
                    os.environ[var] = str(spec.blas_threads)
                try:
                    self._process.start()
                finally:
                    for var, value in saved.items():
                        if value is None:
                            os.environ.pop(var, None)
                        else:
                            os.environ[var] = value
        # Close the child's pipe ends in the parent so EOF propagates when
        # either side goes away.
        request_read.close()
        result_write.close()
        self._requests = request_write
        self._results = result_read
        self._sender = _ArraySender()
        self._receiver = _ArrayReceiver()
        self._seq = itertools.count(1)
        self._last_seq = 0  # the last request sent; names its reply block
        self._lock = threading.Lock()
        self._closed = False
        try:
            self._wait_reply(0, timeout=self._start_timeout_s)
        except (WorkerCrashError, TimeoutError) as error:
            tail = self.stderr_tail()
            self.close()
            cause = str(error).split("\n--- worker stderr tail ---", 1)[0]
            raise WorkerStartupError(
                f"engine worker {self._process.name!r} failed to start: {cause}",
                stderr_tail=tail,
            ) from error
        except BaseException:
            # Worker-side build failures arrive as ("err", ...) replies and
            # re-raise with their original type; just reap the worker.
            self.close()
            raise

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (or the launch failed)."""
        return self._closed

    @property
    def pid(self) -> int | None:
        """The worker process id (``None`` once closed)."""
        return None if self._closed else self._process.pid

    @property
    def is_alive(self) -> bool:
        """Whether the worker process is currently running."""
        return not self._closed and self._process.is_alive()

    def stderr_tail(self, max_bytes: int = _STDERR_TAIL_BYTES) -> str:
        """The last ``max_bytes`` of the worker's captured stderr."""
        if self._stderr_path is None:
            return ""
        try:
            with open(self._stderr_path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                handle.seek(max(0, size - max_bytes))
                return handle.read().decode("utf-8", errors="replace")
        except OSError:
            return ""

    def _remove_stderr_file(self) -> None:
        if self._stderr_path is not None:
            try:
                os.unlink(self._stderr_path)
            except OSError:  # pragma: no cover - already gone
                pass
            self._stderr_path = None

    def _wait_reply(self, seq: int, timeout: float | None = None) -> tuple:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._results.poll(0.05):
            if not self._process.is_alive():
                raise WorkerCrashError(
                    "engine worker died without replying "
                    f"(exit code {self._process.exitcode})"
                )
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("engine worker did not reply in time")
        try:
            message = self._results.recv()
        except (EOFError, OSError) as error:
            # A dying peer makes poll() return True with nothing to read.
            raise WorkerCrashError(
                "engine worker died mid-reply "
                f"(exit code {self._process.exitcode})"
            ) from error
        if message[0] == "err":
            _raise_remote(message)
        if message[1] != seq:
            raise WorkerCrashError(
                f"engine worker replied out of sync: expected {seq}, got {message[1]}"
            )
        return message

    def request(
        self, kind: str, array: np.ndarray | None = None, extra: tuple = ()
    ) -> tuple[np.ndarray | None, dict]:
        """One request/reply round trip -> ``(output array or None, meta)``.

        A ``run`` result is copied out of the worker's reply block before
        the lock is released, so it is an owned, writeable array that stays
        valid after the worker replies again or is closed.
        """
        with self._lock:
            if self._closed:
                raise WorkerClosedError("engine worker is closed")
            seq = self._last_seq = next(self._seq)
            block = None if array is None else self._sender.send(seq, array)
            try:
                self._requests.send((kind, seq, block, *extra))
            except (BrokenPipeError, OSError) as error:
                raise WorkerCrashError(
                    "engine worker died before the request could be sent "
                    f"(exit code {self._process.exitcode})"
                ) from error
            _ok, _seq, out_block, meta = self._wait_reply(seq)
            if out_block is None:
                return None, meta
            return self._receiver.view(out_block, seq).copy(), meta

    def ping(self) -> dict:
        """A liveness round trip -> the worker's ``{"pid", "blas_threads",
        "blas_pool_threads"}``: its BLAS pin variable and its OpenBLAS pool's
        live thread count (``None`` when no OpenBLAS is loaded)."""
        _none, meta = self.request("ping")
        return meta

    def close(self) -> None:
        """Shut the worker down (idempotent): close request pipe, join, reap.

        A worker that exited cleanly unlinked its own reply block on the
        way out; a killed or crashed worker never got there, so the parent
        reclaims any block it is still attached to, plus the block named
        for the last request sent, which the worker may have created
        without living to name it in a reply -- otherwise a close racing a
        dispatch strands the shared-memory segment.
        """
        timeout = self._shutdown_timeout_s
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._requests.send(("close", next(self._seq), None))
            except (BrokenPipeError, OSError):  # worker already gone
                pass
            self._requests.close()
            self._results.close()
            self._process.join(timeout=timeout)
            if self._process.is_alive():  # pragma: no cover - stuck worker
                self._process.terminate()
                self._process.join(timeout=timeout)
                if self._process.is_alive():
                    self._process.kill()
                    self._process.join(timeout=timeout)
            abnormal = self._process.exitcode != 0
            pid = self._process.pid
            if not self._process.is_alive():
                self._process.close()
            self._sender.close()
            self._receiver.close(unlink=abnormal)
            if abnormal:
                _unlink_block(_reply_block_name(pid, self._last_seq))
            self._remove_stderr_file()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"pid={self._process.pid}"
        return f"EngineWorker({state})"


def _needs_pinning(noise: NoiseModel | None) -> bool:
    """Whether pool dispatch must stay on one replica for bit-identity.

    A stateful noise model draws from its own RNG stream, so the order of
    draws across batches is part of the bit-identity contract; fanning
    batches out over replicas (each holding its own unpickled copy of the
    stream) would diverge from the in-process engine's single stream.
    """
    return noise is not None and not isinstance(noise, NoiselessModel)


class WorkerHandle:
    """One replica slot of a :class:`ReplicaPool`.

    Couples the slot's current :class:`EngineWorker` with its crash/restart
    bookkeeping; the pool boots every worker (:meth:`ReplicaPool._spawn`).
    The handle itself is not thread-safe: ``state``/``inflight``/``worker``
    transitions are guarded by the owning pool's condition variable.
    """

    def __init__(self, index: int, name: str):
        self.index = index
        self.name = f"{name}:r{index}"
        self.worker: EngineWorker | None = None
        self.state = _DEAD
        self.inflight = 0
        self.restarts = 0
        self.restart_backoff_s = 0.0
        self.next_restart_at = 0.0

    @property
    def pid(self) -> int | None:
        """The current worker's process id (``None`` when empty/closed)."""
        return None if self.worker is None else self.worker.pid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkerHandle({self.name!r}, state={self.state!r})"


class ReplicaPool:
    """An engine-shaped facade over N self-healing :class:`EngineWorker`\\ s.

    Built via :meth:`launch`.  Dispatch picks the least-loaded healthy
    replica; a replica that dies mid-batch has its batch requeued onto a
    sibling.  One maintenance thread, the prober, sweeps for silently-died
    idle replicas and restarts every dead slot.  Re-registering a model
    rolls the new spec through the slots one at a time (:meth:`replace`),
    so the model never becomes unserveable.

    Bit-identity: every replica hosts the same pickled spec, so outputs
    match the in-process engine exactly.  Pools hosting a *stateful*
    noise model pin all dispatch to one replica (``dispatch_width == 1``)
    so the seeded RNG draw order is preserved too.
    """

    def __init__(
        self,
        model: QuantizedModel,
        spec: EngineSpec,
        spec_bytes: bytes,
        replicas: int = 2,
        start_method: str | None = None,
        probe_interval_s: float = _PROBE_INTERVAL_S,
        start_timeout_s: float = _BOOT_TIMEOUT_S,
        shutdown_timeout_s: float = _SHUTDOWN_TIMEOUT_S,
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if probe_interval_s <= 0:
            raise ValueError("probe_interval_s must be positive")
        self.model = model
        self._name = model.name
        self._spec = spec
        self._spec_bytes = spec_bytes
        self._pinned = _needs_pinning(spec.noise)
        self._start_method = start_method
        self._probe_interval_s = probe_interval_s
        self._start_timeout_s = start_timeout_s
        self._shutdown_timeout_s = shutdown_timeout_s
        self._cond = threading.Condition()
        self._replace_lock = threading.Lock()
        self._handles: list[WorkerHandle] = []
        self._restart_total = 0
        self._closed = False
        # Optional lifecycle observer (set_lifecycle_observer): receives one
        # dict per replica crash / restart / failed restart.  The serving
        # layer points this at the tracing flight recorder.
        self._lifecycle_observer: Callable[[dict], None] | None = None
        self._prober: threading.Thread | None = None
        try:
            self._resize_to(replicas)
        except BaseException:
            for handle in self._handles:
                handle.state = _CLOSED
                if handle.worker is not None:
                    handle.worker.close()
            raise
        self._prober = threading.Thread(
            target=self._probe_loop,
            name=f"replica-prober-{self._name}",
            daemon=True,
        )
        self._prober.start()

    @classmethod
    def launch(
        cls,
        model: QuantizedModel,
        plan: ModelPlan,
        noise: NoiseModel | None = None,
        replicas: int = 2,
        start_method: str | None = None,
        blas_threads: int | None = 1,
        probe_interval_s: float = _PROBE_INTERVAL_S,
        start_timeout_s: float = _BOOT_TIMEOUT_S,
        shutdown_timeout_s: float = _SHUTDOWN_TIMEOUT_S,
    ) -> "ReplicaPool":
        """Start ``replicas`` worker processes hosting ``model``.

        ``plan`` is the model's compiled :class:`~repro.runtime.plan.ModelPlan`
        (:func:`~repro.runtime.plan.compile_model_plan`); it fixes the layer
        config, micro-batch size and GEMM dtypes, and every replica (and
        every crash restart) boots from its pre-encoded chunks, so N workers
        encode weights zero times.  ``noise`` must match the plan's
        noise-lessness.

        Raises :class:`ValueError` when the spec does not pickle, re-raises
        worker-side build failures in the caller, and tears down every
        already-started replica when a later one fails to boot.
        """
        spec, spec_bytes = _engine_spec(model, plan, noise, blas_threads)
        return cls(
            model,
            spec,
            spec_bytes,
            replicas=replicas,
            start_method=start_method,
            probe_interval_s=probe_interval_s,
            start_timeout_s=start_timeout_s,
            shutdown_timeout_s=shutdown_timeout_s,
        )

    def _spawn(self, handle: WorkerHandle) -> EngineWorker:
        """Boot a worker for ``handle``'s slot from the pool's current spec."""
        with self._cond:
            spec, spec_bytes = self._spec, self._spec_bytes
        return EngineWorker(
            spec,
            start_method=self._start_method,
            name=handle.name,
            start_timeout_s=self._start_timeout_s,
            shutdown_timeout_s=self._shutdown_timeout_s,
            spec_bytes=spec_bytes,
        )

    # -- introspection ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    @property
    def replicas(self) -> int:
        """The number of replica slots (healthy or not)."""
        with self._cond:
            return len(self._handles)

    @property
    def healthy_replicas(self) -> int:
        """How many replicas can currently take a batch."""
        with self._cond:
            return sum(1 for h in self._handles if h.state == _HEALTHY)

    @property
    def restart_count(self) -> int:
        """Total replica restarts over the pool's lifetime."""
        with self._cond:
            return self._restart_total

    @property
    def dispatch_width(self) -> int:
        """How many batches may usefully run concurrently (>= 1).

        Pinned pools (stateful noise) always report 1; otherwise the healthy
        replica count, floored at 1 so schedulers never starve a pool whose
        replicas are all mid-restart.
        """
        if self._pinned:
            return 1
        return max(1, self.healthy_replicas)

    def pool_health(self) -> dict[str, int]:
        """A telemetry snapshot: healthy/total replicas and restart total."""
        with self._cond:
            return {
                "healthy": sum(1 for h in self._handles if h.state == _HEALTHY),
                "replicas": len(self._handles),
                "restarts": self._restart_total,
            }

    def replica_pids(self) -> list[int | None]:
        """The live process id of each replica slot, in slot order."""
        with self._cond:
            return [h.pid for h in self._handles]

    # -- dispatch --------------------------------------------------------------

    def _acquire(self) -> tuple[WorkerHandle, EngineWorker]:
        """Claim the least-loaded healthy replica (waits through restarts)."""
        deadline = time.monotonic() + self._start_timeout_s
        with self._cond:
            while True:
                if self._closed:
                    raise WorkerClosedError("replica pool is closed")
                candidates = [h for h in self._handles if h.state == _HEALTHY]
                if self._pinned:
                    # Stateful noise: serialise onto the first healthy
                    # replica so the RNG draw order stays single-stream.
                    candidates = candidates[:1]
                    if candidates and candidates[0].inflight > 0:
                        candidates = []
                if candidates:
                    handle = min(candidates, key=lambda h: (h.inflight, h.index))
                    handle.inflight += 1
                    return handle, handle.worker
                if time.monotonic() > deadline:
                    raise RemoteEngineError(
                        f"no healthy replica of {self._name!r} became available "
                        f"within {self._start_timeout_s:.0f}s"
                    )
                self._cond.wait(timeout=0.05)

    def _release(self, handle: WorkerHandle) -> None:
        with self._cond:
            handle.inflight -= 1
            self._cond.notify_all()

    def _acquire_all_healthy(self) -> list[tuple[WorkerHandle, EngineWorker]]:
        """Claim every healthy replica at once (for statistics sweeps)."""
        with self._cond:
            if self._closed:
                raise WorkerClosedError("replica pool is closed")
            claimed = [(h, h.worker) for h in self._handles if h.state == _HEALTHY]
            for handle, _worker in claimed:
                handle.inflight += 1
            return claimed

    def run_timed(
        self,
        inputs: np.ndarray,
        return_codes: bool = False,
        micro_batch: int | None = _USE_DEFAULT,
        *,
        trace_ctx: tuple | None = None,
        span_sink: list | None = None,
    ) -> tuple[np.ndarray, float, list[tuple[int, float, str]]]:
        """Run on a healthy replica -> ``(outputs, engine seconds, records)``.

        A replica that dies mid-batch surfaces here as a requeue: the batch
        is retried on a sibling -- or, in a one-replica pool, on the slot's
        restarted worker -- while the prober restarts the dead slot,
        and only fails once every attempt has been rejected.  Records are
        ``(n_samples, elapsed_s, replica)`` so telemetry can attribute
        engine time per replica.

        The timing and records come from :meth:`NetworkEngine.run_timed
        <repro.runtime.engine.NetworkEngine.run_timed>` *inside* the worker,
        so telemetry calibration sees pure engine time, never
        pipe/shared-memory overhead.

        ``span_sink`` (a plain list) receives span dicts for this call, and
        ``trace_ctx`` (a tuple of trace ids) propagates distributed-trace
        context into the worker's ``engine`` span.  Both default to off and
        cost nothing.  Every *attempt* leaves a span in the sink: a crashed
        attempt contributes an ``engine`` span with ``status="crashed"``
        attributed to the dead replica (timed parent-side -- the worker
        never replied), and the successful attempt contributes its
        ``worker_ipc`` span wrapping the round trip plus the worker-side
        ``engine`` span, both attributed to the replica that actually served
        it.  That is how a SIGKILL mid-batch stays visible in the request's
        trace.
        """
        batch = np.asarray(inputs, dtype=np.float64)
        has_override = micro_batch is not _USE_DEFAULT
        extra = (
            return_codes,
            has_override,
            micro_batch if has_override else None,
            # The worker ships spans only when asked: no sink, no spans.
            None if span_sink is None else tuple(trace_ctx or ()),
        )
        attempts = 0
        max_attempts = max(2, len(self._handles) + 1)
        while True:
            handle, worker = self._acquire()
            replica, pid = str(handle.index), handle.pid
            attempt_start = time.monotonic()
            try:
                outputs, meta = worker.request("run", array=batch, extra=extra)
            except (WorkerCrashError, WorkerClosedError) as error:
                if span_sink is not None:
                    span_sink.append(
                        {
                            "name": "engine",
                            "start_s": attempt_start,
                            "end_s": time.monotonic(),
                            "pid": pid,
                            "replica": replica,
                            "status": "crashed",
                            "error": type(error).__name__,
                        }
                    )
                self._on_crash(handle, worker)
                attempts += 1
                if attempts >= max_attempts:
                    raise RemoteEngineError(
                        f"batch failed on {attempts} replicas of "
                        f"{self._name!r}: {error}"
                    ) from error
                continue
            finally:
                self._release(handle)
            break
        if span_sink is not None:
            span_sink.append(
                {
                    "name": "worker_ipc",
                    "start_s": attempt_start,
                    "end_s": time.monotonic(),
                    "replica": replica,
                    "status": "ok",
                    "requeues": attempts,
                }
            )
            span_sink.extend(
                {**span, "replica": replica, "status": "ok"}
                for span in meta.get("spans", ())
            )
        records = [
            (int(n), float(elapsed), str(handle.index))
            for n, elapsed, _replica in meta["records"]
        ]
        return outputs, meta["engine_time_s"], records

    def run(
        self,
        inputs: np.ndarray,
        return_codes: bool = False,
        micro_batch: int | None = _USE_DEFAULT,
    ) -> np.ndarray:
        """Run the integer path end-to-end on a healthy replica."""
        outputs, _elapsed, _records = self.run_timed(
            inputs, return_codes=return_codes, micro_batch=micro_batch
        )
        return outputs

    def predict(
        self, inputs: np.ndarray, micro_batch: int | None = _USE_DEFAULT
    ) -> np.ndarray:
        """Class predictions from the pool-hosted integer path."""
        return np.argmax(self.run(inputs, micro_batch=micro_batch), axis=-1)

    # -- self-healing ----------------------------------------------------------

    def set_lifecycle_observer(self, observer: Callable[[dict], None] | None) -> None:
        """Attach (or clear) the pool's single lifecycle-event observer.

        The observer receives one dict per event -- ``{"event":
        "replica_crash" | "replica_restart" | "replica_restart_failed",
        "model": name, "replica": slot index, ...}`` -- from whatever thread
        detected the event: a crash from the dispatch thread or the prober,
        restarts and failed restarts from the prober.  Observer
        exceptions are logged and swallowed.  A
        :class:`~repro.serve.registry.ModelRegistry` sets it on every pool
        it hosts (:meth:`ModelRegistry.set_lifecycle_observer
        <repro.serve.registry.ModelRegistry.set_lifecycle_observer>`).
        """
        self._lifecycle_observer = observer

    def _emit_lifecycle(self, event: dict) -> None:
        observer = self._lifecycle_observer
        if observer is None:
            return
        try:
            observer(event)
        except Exception:
            logging.getLogger(__name__).exception("pool lifecycle observer raised")

    def _on_crash(self, handle: WorkerHandle, worker: EngineWorker | None) -> None:
        """Mark a replica dead (once) and wake the prober to restart it."""
        with self._cond:
            if self._closed or handle.state != _HEALTHY:
                return
            if worker is not None and handle.worker is not worker:
                return  # the slot already moved on to a fresh worker
            handle.state = _DEAD
            self._cond.notify_all()
        self._emit_lifecycle(
            {
                "event": "replica_crash",
                "model": self._name,
                "replica": handle.index,
                "pid": handle.pid,
            }
        )

    def _restart(self, handle: WorkerHandle) -> None:
        """Replace a dead slot's worker with a fresh one (on the prober)."""
        with self._cond:
            if self._closed or handle.state != _DEAD:
                return
            handle.state = _RESTARTING
        old = handle.worker
        if old is not None:
            old.close()  # reap the corpse; reclaims its shared-memory blocks
        try:
            worker = self._spawn(handle)
        except BaseException:
            with self._cond:
                if handle.state == _RESTARTING:
                    # The prober retries after a growing backoff, so a
                    # persistent boot failure cannot become a hot spawn loop.
                    handle.restart_backoff_s = min(
                        max(_RESTART_BACKOFF_MIN_S, handle.restart_backoff_s * 2),
                        _RESTART_BACKOFF_MAX_S,
                    )
                    handle.next_restart_at = (
                        time.monotonic() + handle.restart_backoff_s
                    )
                    handle.state = _DEAD
                self._cond.notify_all()
            self._emit_lifecycle(
                {
                    "event": "replica_restart_failed",
                    "model": self._name,
                    "replica": handle.index,
                    "retry_backoff_s": handle.restart_backoff_s,
                }
            )
            return
        with self._cond:
            restarted = not self._closed and handle.state == _RESTARTING
            if restarted:
                handle.worker, handle.state = worker, _HEALTHY
                handle.restarts += 1
                handle.restart_backoff_s = handle.next_restart_at = 0.0
                self._restart_total += 1
                self._cond.notify_all()
        if not restarted:
            worker.close()  # the pool closed while the worker booted
            return
        self._emit_lifecycle(
            {
                "event": "replica_restart",
                "model": self._name,
                "replica": handle.index,
                "pid": handle.pid,
                "restarts": handle.restarts,
            }
        )

    def _restart_due(self) -> bool:
        """Whether the pool closed or a dead slot is due (``_cond`` held)."""
        now = time.monotonic()
        return self._closed or any(
            h.state == _DEAD and now >= h.next_restart_at for h in self._handles
        )

    def _probe_loop(self) -> None:
        """The pool's one maintenance thread: restart dead replicas inline.

        Wakes when a restart is due or every ``probe_interval_s`` to mark
        silently-died replicas dead.
        """
        while True:
            with self._cond:
                self._cond.wait_for(self._restart_due, timeout=self._probe_interval_s)
                if self._closed:
                    return
                snapshot = [(h, h.worker, h.state) for h in self._handles]
            for handle, worker, state in snapshot:
                if state == _HEALTHY and (worker is None or not worker.is_alive):
                    self._on_crash(handle, worker)
                if time.monotonic() >= handle.next_restart_at:
                    self._restart(handle)  # no-op unless the slot is dead

    # -- statistics ------------------------------------------------------------

    def layer_statistics(self) -> dict[str, LayerStatistics]:
        """Per-layer statistics merged across every healthy replica."""
        merged: dict[str, LayerStatistics] = {}
        for handle, worker in self._acquire_all_healthy():
            try:
                _none, meta = worker.request("layer_stats")
            except (WorkerCrashError, WorkerClosedError):
                self._on_crash(handle, worker)
                continue
            finally:
                self._release(handle)
            for layer_name, stats in meta["stats"].items():
                if layer_name in merged:
                    merged[layer_name].merge_runs(stats)
                else:
                    merged[layer_name] = stats
        return merged

    def network_statistics(self) -> LayerStatistics:
        """Network-wide totals (crossbar/column counts sum across layers)."""
        total = LayerStatistics(layer_name=self._name)
        for stats in self.layer_statistics().values():
            total.merge_layers(stats)
        return total

    def reset_statistics(self) -> None:
        """Clear accumulated statistics on every healthy replica."""
        for handle, worker in self._acquire_all_healthy():
            try:
                worker.request("reset_stats")
            except (WorkerCrashError, WorkerClosedError):
                self._on_crash(handle, worker)
            finally:
                self._release(handle)

    # -- rolling replace -------------------------------------------------------

    def replace(
        self,
        model: QuantizedModel,
        plan: ModelPlan,
        noise: NoiseModel | None = None,
        blas_threads: int | None = 1,
        replicas: int | None = None,
    ) -> None:
        """Roll a new spec through the pool, one replica at a time.

        Each slot's fresh worker is booted *before* its old one is retired,
        so at every instant at least ``replicas - 1`` slots serve traffic
        and the model never becomes unserveable.  ``replicas`` resizes the
        pool as part of the roll (``None`` keeps the current width).  Every
        replacement boots from ``plan``'s pre-encoded chunks, as in
        :meth:`launch`.
        """
        spec, spec_bytes = _engine_spec(model, plan, noise, blas_threads)
        with self._replace_lock:
            with self._cond:
                if self._closed:
                    raise WorkerClosedError("replica pool is closed")
                target = len(self._handles) if replicas is None else int(replicas)
                if target < 1:
                    raise ValueError("replicas must be >= 1")
                self._spec, self._spec_bytes = spec, spec_bytes
                self.model = model
                self._name = model.name
                self._pinned = _needs_pinning(spec.noise)
                current = list(self._handles)
            for handle in current[:target]:
                self._swap_handle(handle)
            self._resize_to(target)

    def _swap_handle(self, handle: WorkerHandle) -> None:
        """Boot a fresh worker for one slot, then retire its old worker."""
        with self._cond:
            if self._closed or handle.state == _CLOSED:
                return
        worker = self._spawn(handle)  # slow; the old replica keeps serving
        with self._cond:
            deadline = time.monotonic() + self._start_timeout_s
            while (
                not self._closed
                and handle.state != _CLOSED
                and (handle.inflight > 0 or handle.state == _RESTARTING)
                and time.monotonic() < deadline
            ):
                self._cond.wait(timeout=0.05)
            if self._closed or handle.state == _CLOSED:
                old, fresh = None, worker
            else:
                old, fresh = handle.worker, None
                handle.worker = worker
                handle.state = _HEALTHY
                self._cond.notify_all()
        if fresh is not None:
            fresh.close()  # the pool went away mid-swap
        elif old is not None:
            old.close()

    def _resize_to(self, target: int) -> None:
        """Grow or shrink the pool to ``target`` slots (replace_lock held)."""
        while True:
            with self._cond:
                if self._closed or len(self._handles) >= target:
                    break
                handle = WorkerHandle(len(self._handles), self._name)
            worker = self._spawn(handle)
            with self._cond:
                if not self._closed:
                    handle.worker, handle.state = worker, _HEALTHY
                    self._handles.append(handle)
                    self._cond.notify_all()
                    continue
            worker.close()  # the pool closed while the worker booted
            break
        victims: list[WorkerHandle] = []
        with self._cond:
            while len(self._handles) > target:
                victims.append(self._handles.pop())
        for handle in victims:
            with self._cond:
                deadline = time.monotonic() + self._shutdown_timeout_s
                while (
                    handle.inflight > 0
                    and not self._closed
                    and time.monotonic() < deadline
                ):
                    self._cond.wait(timeout=0.05)
                handle.state = _CLOSED
            if handle.worker is not None:
                handle.worker.close()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Drain and shut down every replica (idempotent).

        In-flight batches are given ``shutdown_timeout_s`` to drain, the
        prober is joined (long enough to finish a restart it is booting),
        then every worker is closed -- so no child process and no
        shared-memory block outlives the pool.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
            handles = list(self._handles)
            deadline = time.monotonic() + self._shutdown_timeout_s
            while any(h.inflight > 0 for h in handles):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=min(remaining, 0.05))
            for handle in handles:
                handle.state = _CLOSED
        if self._prober is not None:
            self._prober.join(timeout=self._start_timeout_s + self._shutdown_timeout_s)
        for handle in handles:
            if handle.worker is not None:
                handle.worker.close()

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        health = self.pool_health()
        return (
            f"ReplicaPool(model={self._name!r}, "
            f"healthy={health['healthy']}/{health['replicas']}, "
            f"restarts={health['restarts']})"
        )
