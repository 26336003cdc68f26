"""Measurement helpers shared by the benchmark workloads.

Everything here observes the program from outside: it times calls into
public functions, wraps the ``pim_matmul`` hook, reads the spans the
serving stack's :class:`~repro.telemetry.Tracer` already records, and reads
``LayerStatistics`` counters.  Nothing in ``src/`` is patched.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field, fields

import numpy as np

#: Counter fields of ``LayerStatistics`` compared for identity.
_STAT_SKIP = {"layer_name", "column_sums"}


def percentile_ms(values_s, q: float) -> float:
    """The ``q``-th percentile of second-valued samples, in milliseconds."""
    return float(np.percentile(np.asarray(values_s, dtype=np.float64), q) * 1e3)


def settle() -> None:
    """Collect garbage and freeze the survivors before a timed phase, so a
    collection of set-up objects does not land inside one run's window."""
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stat_counters(stats) -> dict:
    """The scalar counters of one ``LayerStatistics``, for exact comparison."""
    return {
        f.name: getattr(stats, f.name)
        for f in fields(stats)
        if f.name not in _STAT_SKIP
    }


def network_rates(layer_stats: dict) -> tuple[float, float]:
    """Network-wide ADC converts per MAC and speculation failure rate."""
    converts = sum(s.total_adc_converts for s in layer_stats.values())
    macs = sum(s.macs for s in layer_stats.values())
    slots = sum(s.speculation_slots for s in layer_stats.values())
    failures = sum(s.speculation_failures for s in layer_stats.values())
    return converts / max(macs, 1), failures / max(slots, 1)


class MatmulTimer:
    """Times every ``pim_matmul`` call and every engine call around it.

    ``wrap_hook`` returns a replacement hook that records per-layer wall
    time; ``wrap_call`` returns a replacement for ``engine.run`` (or any
    forward call) that records the call's wall time and the share of it
    spent inside the hook on the same thread -- the remainder is the
    quantize/im2col/activation glue of :mod:`repro.nn`.  With a ``tracer``
    every call also lands in its flight recorder as a span.
    """

    def __init__(self, tracer=None):
        self.layer_s: dict[str, list[float]] = defaultdict(list)
        self.calls: list[tuple[float, float, int]] = []  # (wall, in-hook, samples)
        self._local = threading.local()
        self._tracer = tracer

    def wrap_hook(self, hook):
        def timed_hook(input_codes, layer):
            start = time.monotonic()
            out = hook(input_codes, layer)
            end = time.monotonic()
            self.layer_s[layer.name].append(end - start)
            self._local.in_hook = getattr(self._local, "in_hook", 0.0) + end - start
            if self._tracer is not None:
                self._tracer.record_span(
                    "pim_matmul",
                    "bench",
                    start,
                    end,
                    category="runtime",
                    layer=layer.name,
                    rows=int(np.shape(input_codes)[0]),
                )
            return out

        return timed_hook

    def wrap_call(self, call):
        def timed_call(inputs, *args, **kwargs):
            self._local.in_hook = 0.0
            start = time.monotonic()
            out = call(inputs, *args, **kwargs)
            end = time.monotonic()
            samples = int(np.shape(inputs)[0])
            self.calls.append((end - start, self._local.in_hook, samples))
            if self._tracer is not None:
                self._tracer.record_span(
                    "forward", "bench", start, end, category="nn", samples=samples
                )
            return out

        return timed_call

    def summary(self) -> dict:
        """Per-call medians and totals (empty-safe)."""
        calls = np.array(self.calls or [(0.0, 0.0, 0)], dtype=np.float64)
        wall, hook = calls[:, 0], calls[:, 1]
        glue = wall - hook
        per_layer = {
            name: float(np.median(times) * 1e3) for name, times in self.layer_s.items()
        }
        return {
            "calls": len(self.calls),
            "glue_ms": float(np.median(glue) * 1e3),
            "matmul_ms": float(np.median(hook) * 1e3),
            "wall_ms": float(np.median(wall) * 1e3),
            "glue_share_pct": float(100.0 * glue.sum() / max(wall.sum(), 1e-9)),
            "matmul_max_layer_ms": max(per_layer.values(), default=0.0),
            "wall_total_s": float(wall.sum()),
            "hook_total_s": float(hook.sum()),
        }

    def layer_rows(self) -> dict[str, dict]:
        """Per-layer call count, median and total wall time."""
        total = sum(sum(times) for times in self.layer_s.values()) or 1e-12
        return {
            name: {
                "calls": len(times),
                "matmul_ms_p50": float(np.median(times) * 1e3),
                "matmul_ms_total": float(sum(times) * 1e3),
                "matmul_share_pct": float(100.0 * sum(times) / total),
            }
            for name, times in self.layer_s.items()
        }


def cost_rows(cost_model, layer_names) -> dict[str, dict]:
    """The cost model's modeled per-sample energy and latency per layer."""
    rows = {}
    for name in layer_names:
        cost = cost_model.layer_cost(name)
        rows[name] = {
            "modeled_pj_per_sample": float(cost.energy_pj),
            "modeled_us_per_sample": float(cost.latency_us),
        }
    return rows


@dataclass
class SpanStats:
    """Durations of the serving stack's spans, grouped per stage."""

    stages: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))

    @classmethod
    def from_recorder(cls, recorder) -> "SpanStats":
        out = cls()
        for event in recorder.events(category="serve"):
            if event.get("ph") == "X":
                out.stages[event["name"]].append(event["dur"] / 1e6)
        return out

    def share_pct(self, stage: str) -> float:
        """Summed stage time as a share of summed request time."""
        request = sum(self.stages.get("request", ())) or 1e-12
        return float(100.0 * sum(self.stages.get(stage, ())) / request)

    def quantiles(self) -> dict[str, dict]:
        """p50/p99 in milliseconds plus the sample count, per stage."""
        rows = {}
        for name, values in sorted(self.stages.items()):
            rows[name] = {
                "count": len(values),
                "p50_ms": percentile_ms(values, 50),
                "p99_ms": percentile_ms(values, 99),
            }
        return rows


def write_json(path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, default=_jsonable))


def _jsonable(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")


def log(message: str) -> None:
    """Progress lines go to stderr; stdout ends with the result object."""
    print(message, file=sys.stderr, flush=True)
