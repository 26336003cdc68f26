"""The repository benchmark: one command, two workloads.

Run from the repository root::

    python3 perfbench/run.py --workload offline_conv --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload with tracing and a timing ``pim_matmul`` hook on and
reports the per-layer metrics instead.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; every
metric carries its unit.  A JSON record of the run (host fingerprint,
sample counts, raw timings) is written under ``perfbench/results/``, and a
traced run also writes its per-layer rows (with the cost model's modeled
energy and latency) and a Chrome trace (load it in Perfetto) there.
``--smoke`` shrinks every workload to a few seconds for the benchmark's own
test (``python3 -m pytest perfbench/check_smoke.py``).

Workloads (their reasons are recorded in ``BENCHMARK.json``):

* ``offline_conv`` -- compile ``resnet18_like`` as the Table 4 experiment
  does, then forward passes of one seeded 8-image batch, back to back.  A
  pass is the "request": latency is a pass's wall time, ``saturated_rps``
  passes per second, and ``setup_s`` one cold compile.  Exercises
  :mod:`repro.core` and the unplanned executor path of :mod:`repro.runtime`
  at large M; the serving stack is bypassed.
* ``serve_mix`` -- an open-loop Poisson stream (60 req/s, 1-4 samples) into
  a thread-backend ``InferenceServer`` hosting two tenants, with telemetry,
  admission and SLO tags on a quarter of the requests, in ten segments each
  followed by saturated drains.  Exercises :mod:`repro.serve`,
  :mod:`repro.telemetry`, the planned fast path of :mod:`repro.runtime` at
  M <= 4 and the :mod:`repro.nn` glue.  ``latency_p50_ms`` is the median of
  the segments' p50s, ``saturated_rps`` the median drain rate and
  ``setup_s`` the median of five setups.

Which per-layer metric should move which end-to-end metric:

* ``core.compile_s`` -> ``setup_s`` (compile on ``offline_conv``; register,
  including plan compile, on ``serve_mix``).
* ``nn.glue_ms`` / ``nn.glue_share_pct`` -> ``samples_per_s`` on
  ``offline_conv`` (a small share), ``latency_p50_ms`` on ``serve_mix`` (a
  large share).
* ``runtime.matmul_ms`` / ``runtime.matmul_max_layer_ms`` ->
  ``samples_per_s`` on ``offline_conv``, ``latency_p50_ms`` on ``serve_mix``.
* ``runtime.converts_per_mac`` / ``runtime.spec_failure_rate`` are simulated
  counters: a host-only change must leave them identical.
* ``serve.queue_wait_share_pct`` / ``serve.dispatch_wait_share_pct`` ->
  ``slo_met_fraction`` on ``serve_mix``.
* ``serve.batch_samples_mean`` -> ``saturated_rps``.
* ``admission.shed`` / ``bench.error_rate`` -> the ``failed`` count.

Stage shares are zero on ``offline_conv``, which bypasses the serving
stack; the absolute p50/p99 of every traced stage is in the per-layer rows
file, and each run's latency p90/p99 is in its record (on a shared 2-core
host their run-to-run spread is too wide to gate on; ``slo_met_fraction``
carries the tail).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path

WORKLOADS = ("offline_conv", "serve_mix")

#: Environment variables that size BLAS/OpenMP thread pools.  They are
#: pinned to one thread before numpy loads: a multi-threaded OpenBLAS pool
#: spins on the cores the server threads need and makes runs less steady.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "latency_p50_ms": "ms",
    "slo_met_fraction": "fraction",
    "saturated_rps": "req/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "core.compile_s": "s",
    "nn.glue_ms": "ms",
    "nn.glue_share_pct": "%",
    "runtime.matmul_ms": "ms",
    "runtime.matmul_max_layer_ms": "ms",
    "runtime.engine_ms_p50": "ms",
    "runtime.engine_ms_p99": "ms",
    "runtime.converts_per_mac": "convert/MAC",
    "runtime.spec_failure_rate": "fraction",
    "cost.modeled_pj_per_sample": "pJ/sample",
    "serve.admission_share_pct": "%",
    "serve.queue_wait_share_pct": "%",
    "serve.dispatch_wait_share_pct": "%",
    "serve.execute_share_pct": "%",
    "serve.batch_samples_mean": "samples",
    "admission.shed": "count",
    "bench.error_rate": "fraction",
    "bench.generator_late_ms_p99": "ms",
    "telemetry.tracing_overhead_pct": "%",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="shrink the workload to a few seconds"
    )
    return parser.parse_args(argv)


def host_fingerprint(root: Path) -> dict:
    """What the numbers were measured on and with."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
    }


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest(src: Path) -> str:
    """SHA-256 over the source tree, so a result names its code even when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {root / 'src'}", file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ[name] = "1"
    results = root / "perfbench" / "results"
    sys.path.insert(0, str(root / "src"))

    from harness import write_json

    try:
        if args.workload == "offline_conv":
            import offline

            result = offline.run(args.seed, args.seconds, bool(args.trace), args.smoke)
        else:
            import serving

            result = serving.run(args.seed, args.seconds, bool(args.trace), args.smoke)
    except Exception:
        traceback.print_exc()
        return 1

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if set(result["metrics"]) != set(units):
        print(
            f"error: metric set mismatch {sorted(result['metrics'])}", file=sys.stderr
        )
        return 1
    metrics = {
        name: {"value": float(result["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    write_json(
        results / f"{stem}.json",
        {
            "args": vars(args),
            "host": host_fingerprint(root),
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
            "details": result.get("details", {}),
        },
    )
    if args.trace:
        write_json(results / f"{stem}_layers.json", result["layers"])
        (results / f"{stem}_chrome.json").write_text(result["chrome"])
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
