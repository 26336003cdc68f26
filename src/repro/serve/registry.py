"""Multi-tenant model hosting: one engine per name over shared caches.

:class:`ModelRegistry` holds several calibrated models side by side, each
compiled into its own :class:`~repro.runtime.NetworkEngine` (or, with
``backend="process"``, a :class:`~repro.runtime.ReplicaPool` of worker
processes).  Every in-process engine owns its executors, so no two hosted
names share executor state and each engine's statistics count only its own
batches.  What tenants do share is read-only: one
:class:`~repro.runtime.EncodedWeightCache`, so tenants with identical layer
weights (fine-tuned model families, A/B variants) share encoded crossbars
automatically, and one plan cache.

Engines keep the runtime's default of single-precision GEMMs: they silently
degrade to double precision per chunk wherever exactness cannot be proven, so
they are always safe.

Registration also compiles (and owns) each model's
:class:`~repro.runtime.plan.ModelPlan`: the per-layer execution recipes --
encoded chunks, bit-plane and phase tables, GEMM operand views with proven
dtypes -- derived once and then *executed* by both backends.  Plans live in
a :class:`~repro.runtime.ModelPlanCache` keyed by weight fingerprints plus
the frozen config (the same discipline as the encoded-weight cache), so
re-registering an unchanged model -- a second name, a thread<->process
backend swap, a rolling ``replace`` -- boots fresh executors from the exact
plan object without re-encoding any weight, while any weight or config
change compiles a fresh one.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.analog.noise import NoiseModel
from repro.core.executor import PimLayerConfig
from repro.hw.architecture import ArchitectureSpec
from repro.nn.model import QuantizedModel
from repro.runtime.cache import EncodedWeightCache, ExecutorPool, ModelPlanCache
from repro.runtime.engine import NetworkEngine
from repro.runtime.plan import ModelPlan, compile_model_plan
from repro.runtime.procpool import ReplicaPool
from repro.telemetry.cost import CostModel

__all__ = ["ModelRegistry"]


class ModelRegistry:
    """Named, calibrated models compiled into engines over shared caches."""

    def __init__(self):
        #: Encoded crossbar chunks shared by every hosted engine's executors.
        self.weight_cache = EncodedWeightCache()
        self._engines: dict[str, NetworkEngine] = {}
        # Compiled execution plans: the LRU cache deduplicates across hosted
        # names (fingerprint-keyed), _plans maps each live name to the plan
        # its engine currently runs.
        self._plan_cache = ModelPlanCache()
        self._plans: dict[str, ModelPlan] = {}
        self._cost_models: dict[str, CostModel] = {}
        self._tenants: dict[str, str] = {}
        # Logical fleet name -> ordered variant (engine) names; see
        # register_fleet.  Variants are ordinary registered models, so a
        # fleet holds no engine of its own.
        self._fleets: dict[str, tuple[str, ...]] = {}
        self._reserved: set[str] = set()
        self._lock = threading.RLock()
        # Applied to every hosted ReplicaPool; see set_lifecycle_observer.
        self._lifecycle_observer: Callable[[dict], None] | None = None

    def register(
        self,
        name: str,
        model: QuantizedModel,
        config: PimLayerConfig | None = None,
        noise: NoiseModel | None = None,
        micro_batch: int | None = None,
        arch: ArchitectureSpec | None = None,
        tenant: str | None = None,
        backend: str = "thread",
        replicas: int | None = None,
        replace: bool = False,
        blas_threads: int | None = 1,
    ) -> NetworkEngine:
        """Host a calibrated model under ``name`` and return its engine.

        ``config``, ``noise`` and ``micro_batch`` are compiled into the
        model's :class:`~repro.runtime.plan.ModelPlan`, and both backends
        build their engines from that plan and ``noise`` alone.

        ``backend="process"`` hosts the model in a self-healing
        :class:`~repro.runtime.ReplicaPool` of ``replicas`` worker processes
        (default 1): each worker builds a private in-process engine from the
        pickled model, plan and noise and serves ``run()`` calls over a
        shared-memory request path, bit-identical to the default in-process
        (``"thread"``) backend.  Replicas of one model (as well as different models)
        execute truly in parallel; a crashed replica is restarted
        automatically and its in-flight batch requeued onto a sibling.
        ``blas_threads`` pins each worker's BLAS/OpenMP pools (default one
        thread per worker) so replicas divide the machine instead of
        oversubscribing it.  The workers are shut down cleanly by
        :meth:`unregister` (or :meth:`close`).

        Every registration builds fresh executors: the in-process engine
        from its own :class:`~repro.runtime.ExecutorPool`, each worker from
        the pickled plan.  They boot from the model's cached
        :class:`~repro.runtime.plan.ModelPlan` (compiling it on a miss,
        through this registry's weight cache), so registering a model again
        -- under a second name, or after eviction -- re-encodes nothing,
        while no two hosted names share an executor.

        ``replace=True`` re-registers an existing name in place.  When the
        old and new backend are both ``"process"``, the new spec is *rolled*
        through the existing pool one replica at a time, so the model never
        becomes unserveable and in-flight dispatches keep their engine
        reference; otherwise the new engine is built first, swapped in
        atomically, and the old one closed.  ``replicas=None`` keeps a
        rolled pool at its current width.

        ``arch`` opts the tenant into hardware-grounded telemetry: the
        registry precomputes a :class:`~repro.telemetry.CostModel` (per-layer
        energy/latency tables on that architecture) and serves it via
        :meth:`cost_model`, the one place an
        :class:`~repro.serve.server.InferenceServer` reads a model's tables
        from.

        ``tenant`` groups several hosted models under one accounting /
        admission-control label (A/B variants, one customer's model family);
        it defaults to the model's own hosted name, keeping the historical
        one-model-one-tenant behaviour.  Per-tenant queue caps in
        :class:`~repro.serve.admission.AdmissionPolicy` sum over every model
        registered with the same tenant label.
        """
        if not model.is_calibrated:
            raise ValueError(f"model {model.name!r} must be calibrated first")
        if backend not in ("thread", "process"):
            raise ValueError(f"unknown backend {backend!r} (thread or process)")
        if replicas is not None and replicas < 1:
            raise ValueError("replicas must be >= 1")
        if replicas is not None and replicas > 1 and backend != "process":
            raise ValueError("replicas > 1 requires backend='process'")
        # Reserve the name, then build outside the registry lock so a slow
        # compile never blocks lookups of the hosted tenants (the caches'
        # own locks keep the shared structures safe).
        rolling: ReplicaPool | None = None
        with self._lock:
            if name in self._reserved:
                raise ValueError(f"model name {name!r} is already registered")
            if name in self._engines:
                if not replace:
                    raise ValueError(f"model name {name!r} is already registered")
                existing = self._engines[name]
                if backend == "process" and isinstance(existing, ReplicaPool):
                    rolling = existing
            else:
                self._reserved.add(name)
        try:
            cost_model = None if arch is None else CostModel.from_model(model, arch)
            pool = ExecutorPool(weight_cache=self.weight_cache)
            resolved_config = config if config is not None else PimLayerConfig()
            key = ModelPlan.cache_key(model, resolved_config, noise, micro_batch)
            # On a miss the compile builds this engine's executors in
            # ``pool``; on a hit they boot from the cached plan's chunks.
            plan = self._plan_cache.get_or_compile(
                key,
                lambda: compile_model_plan(
                    model,
                    resolved_config,
                    noise=noise,
                    micro_batch=micro_batch,
                    pool=pool,
                ),
            )
            if rolling is not None:
                rolling.replace(
                    model,
                    plan,
                    noise=noise,
                    blas_threads=blas_threads,
                    replicas=replicas,
                )
                engine: NetworkEngine = rolling
            elif backend == "process":
                engine = ReplicaPool.launch(
                    model,
                    plan,
                    noise=noise,
                    replicas=1 if replicas is None else replicas,
                    blas_threads=blas_threads,
                )
            else:
                engine = NetworkEngine.build(model, noise=noise, pool=pool, plan=plan)
        except BaseException:
            with self._lock:
                self._reserved.discard(name)
            raise
        with self._lock:
            self._reserved.discard(name)
            old = self._engines.get(name)
            self._engines[name] = engine
            self._plans[name] = plan
            # A replace rebinds the name's metadata wholesale: stale cost
            # tables or tenant labels must not outlive the model they
            # described.
            self._cost_models.pop(name, None)
            self._tenants.pop(name, None)
            if cost_model is not None:
                self._cost_models[name] = cost_model
            if tenant is not None:
                self._tenants[name] = tenant
            if isinstance(engine, ReplicaPool):
                engine.set_lifecycle_observer(self._lifecycle_observer)
        if old is not None and old is not engine:
            closer = getattr(old, "close", None)
            if closer is not None:
                closer()
        return engine

    def plan(self, name: str) -> ModelPlan:
        """The compiled plan the named engine runs."""
        with self._lock:
            if name not in self._engines:
                raise KeyError(f"no model registered under {name!r}")
            return self._plans[name]

    def register_fleet(
        self,
        name: str,
        variants: list[str] | tuple[str, ...],
        tenant: str | None = None,
    ) -> tuple[str, ...]:
        """Group several registered variants under one logical fleet name.

        Each variant is an already-registered model -- typically the *same*
        calibrated network hosted under different names with different
        ``arch`` cost tables and execution knobs (``micro_batch``,
        ``backend``, ``replicas``), e.g. a small low-power configuration
        next to a large high-throughput one.  Submitting to ``name`` then
        lets the server's :class:`~repro.serve.fleet.FleetRouter` choose a
        variant per batch from the calibrated energy/latency predictions.

        Variants must share one input shape (they serve one logical model);
        for bit-identical outputs across placements they should host the
        same calibrated model, which different ``arch`` values never
        perturb (the architecture only parameterises the cost tables).

        Unregistering a variant removes it from its fleets (an emptied
        fleet disappears with its last variant); unregistering the fleet
        name drops only the grouping, never the variants.  ``tenant``
        labels requests submitted *via the fleet name* for admission
        accounting, defaulting to the fleet name itself.
        """
        ordered = tuple(variants)
        if not ordered:
            raise ValueError("a fleet needs at least one variant")
        if len(set(ordered)) != len(ordered):
            raise ValueError(f"duplicate variant names in fleet {name!r}")
        with self._lock:
            if name in self._engines or name in self._reserved or name in self._fleets:
                raise ValueError(f"model name {name!r} is already registered")
            for variant in ordered:
                if variant in self._fleets:
                    raise ValueError(
                        f"fleet variant {variant!r} is itself a fleet; "
                        "fleets do not nest"
                    )
                if variant not in self._engines:
                    raise ValueError(f"no model registered under {variant!r}")
            shapes = {self._engines[v].model.input_shape for v in ordered}
            if len(shapes) != 1:
                raise ValueError(
                    f"fleet {name!r} variants must share one input shape, "
                    f"got {sorted(shapes)}"
                )
            self._fleets[name] = ordered
            if tenant is not None:
                self._tenants[name] = tenant
        return ordered

    def fleet_variants(self, name: str) -> tuple[str, ...] | None:
        """The fleet's live variant names, or ``None`` for non-fleet names."""
        with self._lock:
            return self._fleets.get(name)

    def is_fleet(self, name: str) -> bool:
        """Whether ``name`` is a registered fleet (not a plain model)."""
        with self._lock:
            return name in self._fleets

    def fleets(self) -> dict[str, tuple[str, ...]]:
        """Registered fleet name -> variant names, in registration order."""
        with self._lock:
            return dict(self._fleets)

    def engine(self, name: str) -> NetworkEngine:
        """The engine hosting ``name``."""
        with self._lock:
            try:
                return self._engines[name]
            except KeyError:
                raise KeyError(f"no model registered under {name!r}") from None

    def model(self, name: str) -> QuantizedModel:
        """The calibrated model registered under ``name``.

        A fleet name resolves to its first live variant's model (variants
        share one input shape, so any of them validates a request).
        """
        with self._lock:
            variants = self._fleets.get(name)
            if variants:
                name = variants[0]
        return self.engine(name).model

    def cost_model(self, name: str) -> CostModel | None:
        """The hosted model's cost tables (``None`` if registered without arch)."""
        with self._lock:
            if name not in self._engines:
                raise KeyError(f"no model registered under {name!r}")
            return self._cost_models.get(name)

    def set_lifecycle_observer(self, observer: Callable[[dict], None] | None) -> None:
        """Send every hosted replica pool's lifecycle events to ``observer``.

        Applies to the pools hosted now and to every pool a later
        :meth:`register` launches or rolls (see
        :meth:`ReplicaPool.set_lifecycle_observer
        <repro.runtime.procpool.ReplicaPool.set_lifecycle_observer>` for the
        events); ``None`` clears it.  The registry holds one observer: a
        second call replaces the first.
        """
        with self._lock:
            self._lifecycle_observer = observer
            for engine in self._engines.values():
                if isinstance(engine, ReplicaPool):
                    engine.set_lifecycle_observer(observer)

    def tenant(self, name: str) -> str:
        """The tenant label of a hosted model or fleet (its own name when unset)."""
        with self._lock:
            if name not in self._engines and name not in self._fleets:
                raise KeyError(f"no model registered under {name!r}")
            return self._tenants.get(name, name)

    def tenants(self) -> dict[str, str]:
        """Hosted model/fleet name -> tenant label, for admission accounting."""
        with self._lock:
            names = list(self._engines) + list(self._fleets)
            return {name: self._tenants.get(name, name) for name in names}

    def unregister(self, name: str) -> bool:
        """Drop a hosted model (its compiled plan stays cached for reuse).

        Idempotent: returns ``True`` when the name was dropped, ``False``
        when nothing was registered under it (e.g. a concurrent unregister
        or double close got there first).  A process-backed engine's workers
        are shut down cleanly: the drop happens under the lock, the
        (potentially slow) drain-and-join outside it, so other tenants are
        not blocked on process teardown -- and the pool's own close drains
        in-flight batches before reclaiming shared memory, so a close racing
        a dispatch cannot strand a block.

        Fleet semantics (see :meth:`register_fleet`): unregistering a fleet
        name drops only the grouping; unregistering a variant prunes it from
        every fleet, and a fleet emptied of variants disappears with them.
        """
        with self._lock:
            if name in self._fleets:
                # Dropping the fleet removes only the logical grouping; the
                # variants stay registered and individually serveable.
                del self._fleets[name]
                self._tenants.pop(name, None)
                return True
            engine = self._engines.pop(name, None)
            if engine is None:
                return False
            # The name's plan binding goes with it; the compiled artifact
            # stays in the LRU cache so a re-registration reuses it.
            self._plans.pop(name, None)
            self._cost_models.pop(name, None)
            self._tenants.pop(name, None)
            for fleet_name, variants in list(self._fleets.items()):
                if name in variants:
                    remaining = tuple(v for v in variants if v != name)
                    if remaining:
                        self._fleets[fleet_name] = remaining
                    else:
                        # A fleet emptied of variants disappears with them.
                        del self._fleets[fleet_name]
                        self._tenants.pop(fleet_name, None)
        closer = getattr(engine, "close", None)
        if closer is not None:
            closer()
        return True

    def close(self) -> None:
        """Unregister every hosted model, draining all process replicas.

        Idempotent, like :meth:`unregister`: names that disappear
        concurrently are simply skipped.
        """
        for name in self.names():
            self.unregister(name)

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def names(self) -> list[str]:
        """Registered model names, in registration order."""
        with self._lock:
            return list(self._engines)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._engines

    def __len__(self) -> int:
        with self._lock:
            return len(self._engines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModelRegistry(models={self.names()})"
