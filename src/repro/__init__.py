"""RAELLA reproduction: efficient, low-resolution, low-loss analog PIM.

This package reproduces the system described in

    Andrulis, Emer, Sze.  "RAELLA: Reforming the Arithmetic for Efficient,
    Low-Resolution, and Low-Loss Analog PIM: No Retraining Required!"
    ISCA 2023.

The package is organised as:

* :mod:`repro.arithmetic` -- bit-slicing and quantization substrate.
* :mod:`repro.analog`     -- the Gaussian column-sum noise model.
* :mod:`repro.nn`         -- NumPy quantized-DNN substrate (layers, models, zoo,
  synthetic data, training).
* :mod:`repro.core`       -- the RAELLA contribution: Center+Offset encoding,
  Adaptive Weight Slicing, Dynamic Input Slicing, the layer executor,
  the DNN compiler and the accelerator model.
* :mod:`repro.runtime`    -- vectorized batched execution engine: fused
  phase GEMMs (float32 wherever provably exact), encoded-weight caching,
  executor pooling and the :class:`~repro.runtime.NetworkEngine`
  batched-inference front end.
* :mod:`repro.serve`      -- multi-tenant serving: model registry with
  thread or replicated process backends, dynamic micro-batching inference
  server with SLO-aware (priority/deadline) scheduling, admission control,
  fleet routing and the asyncio/HTTP front doors.
* :mod:`repro.telemetry`  -- hardware-grounded serving telemetry: per-layer
  energy/latency cost tables bridged from :mod:`repro.hw`, per-request
  traces and per-tenant aggregates with JSON/Prometheus export.
* :mod:`repro.hw`         -- Accelergy/Timeloop-style energy and throughput
  models plus the Titanium-Law analysis.
* :mod:`repro.baselines`  -- ISAAC, FORMS, TIMELY and Zero+Offset baselines.
* :mod:`repro.experiments`-- one module per paper table/figure.

Quickstart::

    from repro.nn.zoo import resnet18_like
    from repro.core.compiler import RaellaCompiler
    from repro.core.accelerator import RaellaAccelerator

    model = resnet18_like(seed=0)
    program = RaellaCompiler().compile(model)
    report = RaellaAccelerator().run(program)
    print(report.summary())
"""

from repro._version import __version__

__all__ = ["__version__"]
