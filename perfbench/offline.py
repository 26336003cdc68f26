"""``offline_conv``: the paper-reproduction path.

``resnet18_like`` is compiled exactly as ``experiments/table4_accuracy.py``
compiles its models (adaptive weight slicing with 256 test patches, four
test inputs, vectorized executors), then one seeded batch of synthetic
images is pushed through ``forward_quantized`` again and again, back to
back, in a closed loop.  A "request" here is one such forward pass; its
latency is the pass's wall time.  The serving stack and the process pool
are bypassed.
"""

from __future__ import annotations

import time

import numpy as np
from harness import (
    MatmulTimer,
    cost_rows,
    log,
    network_rates,
    peak_rss_mb,
    percentile_ms,
    settle,
    stat_counters,
)

from repro.core.adaptive_slicing import AdaptiveSlicingConfig
from repro.core.compiler import RaellaCompiler, RaellaCompilerConfig
from repro.core.executor import PimLayerExecutor
from repro.experiments.table4_accuracy import EVAL_MICRO_BATCH
from repro.hw import RAELLA_ARCH
from repro.nn.synthetic import synthetic_images
from repro.nn.zoo import resnet18_like
from repro.runtime import VectorizedLayerExecutor
from repro.telemetry import CostModel, Tracer
from repro.telemetry.tracing import FlightRecorder

#: Images per forward pass: small enough for ~15 passes per 30 s run, so
#: the p90 of pass latency is not just the slowest pass.
BATCH_IMAGES = 8
#: Images of the batch checked against the per-phase oracle at setup.
ORACLE_IMAGES = 2
#: A pass meets its latency limit when it takes at most this long.
LATENCY_LIMIT_S = 5.0


def _compiler_config(smoke: bool) -> RaellaCompilerConfig:
    if smoke:
        return RaellaCompilerConfig(
            adaptive=AdaptiveSlicingConfig(max_test_patches=32), n_test_inputs=1
        )
    return RaellaCompilerConfig(
        adaptive=AdaptiveSlicingConfig(max_test_patches=256), n_test_inputs=4
    )


def _setup(config, images_rng_seed: int, batch: int):
    """Cold model build + compile + a warm-up pass; returns timings too."""
    start = time.perf_counter()
    model = resnet18_like(seed=0)
    compile_span = [time.monotonic()]
    program = RaellaCompiler(config, executor_factory=VectorizedLayerExecutor).compile(
        model, seed=0
    )
    compile_span.append(time.monotonic())
    images = synthetic_images(
        batch, model.input_shape, np.random.default_rng(images_rng_seed)
    )
    model.forward_quantized(
        images[:ORACLE_IMAGES],
        pim_matmul=program.pim_matmul,
        micro_batch=EVAL_MICRO_BATCH,
    )
    return model, program, images, time.perf_counter() - start, compile_span


def _oracle_check(model, program, images) -> tuple[bool, np.ndarray]:
    """Outputs and every counter of the vectorized executors must equal the
    per-phase ``PimLayerExecutor`` oracle on a seeded subset."""
    subset = images[:ORACLE_IMAGES]
    oracle = {
        name: PimLayerExecutor(compiled.layer, compiled.executor.config, noise=None)
        for name, compiled in program.layers.items()
    }

    def oracle_matmul(codes, layer):
        return oracle[layer.name].matmul(codes)

    program.reset_statistics()
    fast = model.forward_quantized(
        subset, pim_matmul=program.pim_matmul, micro_batch=EVAL_MICRO_BATCH
    )
    slow = model.forward_quantized(
        subset, pim_matmul=oracle_matmul, micro_batch=EVAL_MICRO_BATCH
    )
    same_stats = all(
        stat_counters(stats) == stat_counters(oracle[name].stats)
        for name, stats in program.layer_statistics().items()
    )
    program.reset_statistics()
    return bool(np.array_equal(fast, slow)) and same_stats, fast


def _passes(model, program, images, seconds, hook, call, expected_head):
    """Back-to-back passes until ``seconds`` elapse (at least two).

    Every pass must reproduce the first pass's outputs and per-layer
    counters exactly; the first pass must match the oracle's rows.
    """
    forward = call(model.forward_quantized)
    settle()
    latencies, gaps, mismatches = [], [], 0
    reference = reference_stats = None
    window_start = time.perf_counter()
    previous_end = None
    while True:
        program.reset_statistics()
        start = time.perf_counter()
        if previous_end is not None:
            gaps.append(start - previous_end)
        out = forward(images, pim_matmul=hook, micro_batch=EVAL_MICRO_BATCH)
        end = time.perf_counter()
        latencies.append(end - start)
        stats = {n: stat_counters(s) for n, s in program.layer_statistics().items()}
        if reference is None:
            reference, reference_stats = out, stats
            if not np.array_equal(out[:ORACLE_IMAGES], expected_head):
                mismatches += 1
        elif not np.array_equal(out, reference) or stats != reference_stats:
            mismatches += 1
        previous_end = time.perf_counter()
        if len(latencies) >= 2 and previous_end - window_start >= seconds:
            break
    return latencies, gaps or [0.0], mismatches


def _unwrapped(call):
    return call


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    config = _compiler_config(smoke)
    batch = 2 if smoke else BATCH_IMAGES
    # One cold setup per run: a compile takes ~17 s on a 2-core host, and a
    # second one would push the benchmark's repeated runs past their budget.
    model, program, images, setup_s, compile_span = _setup(config, seed, batch)
    compile_s = compile_span[1] - compile_span[0]
    log(f"offline_conv setup: {setup_s:.2f}s (compile {compile_s:.2f}s)")
    oracle_ok, expected_head = _oracle_check(model, program, images)
    log(f"offline_conv oracle check: {'ok' if oracle_ok else 'MISMATCH'}")

    latencies, gaps, mismatches = _passes(
        model,
        program,
        images,
        seconds / 2 if trace else seconds,
        program.pim_matmul,
        _unwrapped,
        expected_head,
    )
    attempted, failed = len(latencies), mismatches
    result = {
        "correct": oracle_ok and mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "details": {
            "passes": len(latencies),
            "images_per_pass": batch,
            "latency_limit_s": LATENCY_LIMIT_S,
            "pass_s_all": latencies,
            "latency_p90_ms": percentile_ms(latencies, 90),
        },
    }
    if not trace:
        total = float(sum(latencies))
        met = sum(1 for s in latencies if s <= LATENCY_LIMIT_S) - mismatches
        result["metrics"] = {
            "setup_s": setup_s,
            "samples_per_s": batch * len(latencies) / total,
            "latency_p50_ms": percentile_ms(latencies, 50),
            "slo_met_fraction": max(met, 0) / attempted,
            "saturated_rps": len(latencies) / total,
            "peak_rss_mb": peak_rss_mb(),
        }
        return result

    tracer = Tracer(recorder=FlightRecorder(capacity=100_000))
    tracer.record_span("compile", "bench", *compile_span, category="core")
    timer = MatmulTimer(tracer)
    traced, traced_gaps, traced_mismatches = _passes(
        model,
        program,
        images,
        seconds / 2,
        timer.wrap_hook(program.pim_matmul),
        timer.wrap_call,
        expected_head,
    )
    result["attempted"] += len(traced)
    result["failed"] += traced_mismatches
    result["correct"] = result["correct"] and traced_mismatches == 0
    untraced_ms = percentile_ms(latencies, 50)
    traced_ms = percentile_ms(traced, 50)
    summary = timer.summary()
    converts, failure_rate = network_rates(program.layer_statistics())
    cost = CostModel.from_model(model, RAELLA_ARCH)
    rows = cost_rows(cost, program.layers)
    for name, row in timer.layer_rows().items():
        rows[name].update(row)
    for name, stats in program.layer_statistics().items():
        rows[name]["converts_per_mac"] = stats.converts_per_mac
        rows[name]["spec_failure_rate"] = stats.speculation_failure_rate
    result["layers"] = {
        "layers": rows,
        "engine_calls": summary,
        "accounting": {
            "traced_pass_ms_p50": traced_ms,
            "untraced_pass_ms_p50": untraced_ms,
            "matmul_plus_glue_ms_p50": summary["matmul_ms"] + summary["glue_ms"],
            "tracing_overhead_pct": 100.0 * (traced_ms - untraced_ms) / untraced_ms,
        },
    }
    result["chrome"] = tracer.recorder.to_chrome_trace()
    result["metrics"] = {
        "core.compile_s": compile_s,
        "nn.glue_ms": summary["glue_ms"],
        "nn.glue_share_pct": summary["glue_share_pct"],
        "runtime.matmul_ms": summary["matmul_ms"],
        "runtime.matmul_max_layer_ms": summary["matmul_max_layer_ms"],
        "runtime.engine_ms_p50": traced_ms,
        "runtime.engine_ms_p99": percentile_ms(traced, 99),
        "runtime.converts_per_mac": converts,
        "runtime.spec_failure_rate": failure_rate,
        "cost.modeled_pj_per_sample": cost.energy_per_sample_pj,
        "serve.admission_share_pct": 0.0,
        "serve.queue_wait_share_pct": 0.0,
        "serve.dispatch_wait_share_pct": 0.0,
        "serve.execute_share_pct": 0.0,
        "serve.batch_samples_mean": float(batch),
        "admission.shed": 0,
        "bench.error_rate": result["failed"] / result["attempted"],
        "bench.generator_late_ms_p99": percentile_ms(traced_gaps, 99),
        "telemetry.tracing_overhead_pct": result["layers"]["accounting"][
            "tracing_overhead_pct"
        ],
    }
    return result
