"""Encoded-weight caching and executor pooling.

Building a :class:`~repro.core.executor.PimLayerExecutor` re-runs center
optimisation and weight slicing (the dominant construction cost) even when the
same layer is executed again with the same configuration -- which is exactly
what repeated experiments (encoding ablations, noise sweeps, accuracy
evaluations) do.  :class:`EncodedWeightCache` keys the encoded crossbar chunks
by the layer's weight fingerprint and the encoding-relevant configuration
fields so executor instances share one encoding.  :class:`ExecutorPool` goes
one step further and reuses whole executors per ``(layer, config, noise,
float32)``; each pooled vectorized executor carries the execution plan it
compiled at construction.

Both caches are safe to share across threads: the multi-tenant serving layer
(:mod:`repro.serve`) builds engines for several hosted models concurrently
against one weight cache, each engine from its own pool.  A lock guards each
structure.  The LRU caches build a missing entry outside their lock, once per
key: lookups of that key wait for the one build, while other keys build side
by side.  Cached entries are read-only.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, Hashable

from repro.analog.noise import NoiseModel
from repro.core.executor import PimLayerConfig, PimLayerExecutor
from repro.nn.layers import MatmulLayer

__all__ = [
    "EncodedWeightCache",
    "ExecutorPool",
    "GLOBAL_WEIGHT_CACHE",
    "ModelPlanCache",
]


def _encoding_key(layer: MatmulLayer, config: PimLayerConfig) -> Hashable:
    """Cache key covering every input of the weight-encoding pipeline."""
    return (
        layer.weight_fingerprint,
        config.crossbar_rows,
        config.weight_slicing.widths,
        config.weight_encoding,
        config.center_power,
    )


class _BuildOnceLru:
    """LRU map whose missing entries are built once per key.

    The first lookup of a missing key runs the builder outside the lock, so
    different keys build concurrently; lookups of a key under construction
    wait for that build and share its result, or its exception.  A build
    that raises leaves no entry, so the next lookup builds again.
    ``misses`` counts builds; ``hits`` every other lookup.
    """

    def __init__(self, max_entries: int):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict = OrderedDict()
        self._building: dict[Hashable, Future] = {}
        self._lock = threading.Lock()

    def _get_or_build(self, key: Hashable, builder: Callable[[], object]):
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return cached
            build = self._building.get(key)
            owner = build is None
            if owner:
                self.misses += 1
                build = self._building[key] = Future()
            else:
                self.hits += 1
        if not owner:
            return build.result()
        try:
            value = builder()
        except BaseException as error:
            with self._lock:
                del self._building[key]
            build.set_exception(error)
            raise
        with self._lock:
            del self._building[key]
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        build.set_result(value)
        return value

    def clear(self) -> None:
        """Drop all cached entries (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class EncodedWeightCache(_BuildOnceLru):
    """LRU cache of encoded crossbar chunks, shared across executors.

    ``max_entries`` is the number of distinct (layer, encoding-config)
    entries kept; one entry holds all row chunks of one layer.
    """

    def __init__(self, max_entries: int = 128):
        super().__init__(max_entries)

    def encoded_chunks(
        self,
        layer: MatmulLayer,
        config: PimLayerConfig,
        builder: Callable[[], list],
    ) -> list:
        """Return the layer's encoded chunks, building them on first use."""
        return self._get_or_build(_encoding_key(layer, config), builder)


#: Process-wide encoding cache used by the vectorized executor by default.
GLOBAL_WEIGHT_CACHE = EncodedWeightCache()


class ExecutorPool:
    """Reuses one executor per ``(layer, config, noise, float32)`` combination.

    A pooled executor keeps its crossbars programmed and its statistics
    accumulating across uses.  The pool holds strong references to its
    executors, which keeps the identity-based keys valid.

    ``get`` is thread-safe; concurrent lookups of the same key build one
    executor and share it.  Note that the pooled *executors* themselves are
    not thread-safe (statistics accumulate unguarded): engines that share a
    pool share executors, so :class:`repro.serve.ModelRegistry` gives every
    hosted engine its own pool, and each engine serialises its runs
    (:meth:`NetworkEngine.run_timed
    <repro.runtime.engine.NetworkEngine.run_timed>`).

    Parameters
    ----------
    executor_factory:
        Executor class to instantiate (the vectorized one by default).
    weight_cache:
        Encoded-weight cache handed to vectorized executors.
    float32:
        Default for ``get``'s ``float32`` flag: float32 GEMMs wherever
        provably exact (the default; see
        :class:`~repro.runtime.vectorized.VectorizedLayerExecutor`), or
        ``False`` to force float64.
    """

    def __init__(
        self,
        executor_factory: type[PimLayerExecutor] | None = None,
        weight_cache: EncodedWeightCache | None = GLOBAL_WEIGHT_CACHE,
        float32: bool = True,
    ):
        if executor_factory is None:
            from repro.runtime.vectorized import VectorizedLayerExecutor

            executor_factory = VectorizedLayerExecutor
        self.executor_factory = executor_factory
        self.weight_cache = weight_cache
        self.float32 = float32
        self._executors: dict[Hashable, PimLayerExecutor] = {}
        self._lock = threading.RLock()

    def get(
        self,
        layer: MatmulLayer,
        config: PimLayerConfig | None = None,
        noise: NoiseModel | None = None,
        float32: bool | None = None,
        plan=None,
    ) -> PimLayerExecutor:
        """Return a pooled executor for the layer, building one on first use.

        ``float32`` overrides the pool default for this lookup; it is part of
        the pool key, so float32 and float64 executors for the same layer
        coexist.  The flag is ignored (normalised to off) for executor
        factories without a float32 fast path.

        ``plan`` (a :class:`~repro.runtime.plan.CompiledLayerPlan`) seeds a
        newly built vectorized executor with its precompiled chunks and
        operand tables -- skipping weight encoding entirely, which is what
        lets replica workers boot from a pickled
        :class:`~repro.runtime.plan.ModelPlan`.  An already-pooled executor
        keeps the plan it compiled itself, which executes bit-identically.
        """
        from repro.runtime.vectorized import VectorizedLayerExecutor

        config = config or PimLayerConfig()
        vectorized = issubclass(self.executor_factory, VectorizedLayerExecutor)
        use_float32 = (self.float32 if float32 is None else float32) and vectorized
        if not vectorized:
            plan = None
        key = (
            id(layer),
            config,
            id(noise) if noise is not None else None,
            use_float32,
        )
        with self._lock:
            executor = self._executors.get(key)
            if executor is None:
                kwargs = {}
                if vectorized:
                    kwargs["weight_cache"] = self.weight_cache
                    kwargs["float32"] = use_float32
                    kwargs["plan"] = plan
                executor = self.executor_factory(layer, config, noise=noise, **kwargs)
                self._executors[key] = executor
            return executor

    def clear(self) -> None:
        """Drop every pooled executor."""
        with self._lock:
            self._executors.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._executors)


class ModelPlanCache(_BuildOnceLru):
    """LRU cache of compiled :class:`~repro.runtime.plan.ModelPlan` artifacts.

    Keyed by :meth:`ModelPlan.cache_key
    <repro.runtime.plan.ModelPlan.cache_key>` -- weight fingerprints plus the
    full frozen config, the same fingerprint-not-identity discipline as
    :class:`EncodedWeightCache`, so re-registering a model with unchanged
    weights and configuration reuses the exact plan object (tests assert
    identity) while any config or weight change compiles a fresh one.
    Concurrent registrations of the same key compile once.
    """

    def __init__(self, max_entries: int = 64):
        super().__init__(max_entries)

    def get_or_compile(self, key: Hashable, builder: Callable[[], object]):
        """Return the cached plan for ``key``, compiling it on first use."""
        return self._get_or_build(key, builder)
