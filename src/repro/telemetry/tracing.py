"""Per-request distributed tracing and the serving flight recorder.

The collector in :mod:`repro.telemetry.collector` answers *how much* -- total
energy, mean queue wait, counters.  This module answers *where did one
request's time go*: a :class:`Tracer` hands the serving stack one
:class:`TraceHandle` per sampled request, the stack appends
:class:`SpanRecord`\\ s covering every stage of the request's life (admission
decision, queue wait, batch formation, dispatch, worker IPC, worker-side
engine execution, completion), and finished traces land in a bounded
:class:`FlightRecorder` ring buffer together with lifecycle events (replica
crashes/restarts, overload transitions, sheds).  The recorder dumps
everything as Chrome trace-event JSON, loadable in Perfetto or
``chrome://tracing``.

Layering: this module imports nothing from :mod:`repro.serve` or
:mod:`repro.runtime`.  The serving stack passes spans in as plain floats and
dicts; worker processes ship their spans back as dicts over the result pipe
(see ``meta["spans"]`` in :mod:`repro.runtime.procpool`), so a worker-side
engine span carries the *worker's* pid/tid while parent-side spans carry the
server's -- which is exactly what makes the Perfetto view show the process
hop.

Cost model: a disabled or absent tracer costs one attribute check per
request.  An enabled tracer with ``sample_rate < 1`` pays the handle
allocation only for sampled requests; span recording is monotonic-clock
reads plus list appends, and the ring buffer is a bounded ``deque`` append
under a lock.  ``benchmarks/bench_tracing.py`` holds the whole path to a
<= 5% throughput overhead at ``sample_rate=1.0``.

Quickstart::

    from repro.serve import InferenceServer, ModelRegistry
    from repro.telemetry import Tracer

    tracer = Tracer(sample_rate=1.0)
    with InferenceServer(registry, tracer=tracer) as server:
        decision = server.submit("mlp", inputs)
        decision.result(timeout=30)
    print(decision.trace_id)
    open("trace.json", "w").write(tracer.recorder.to_chrome_trace())
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque

__all__ = ["FlightRecorder", "SpanRecord", "TraceHandle", "Tracer"]

#: Span names the serving stack emits, in causal order.  Kept here (not in
#: repro.serve) so trace consumers can rely on the vocabulary without
#: importing the serving layer.
REQUEST_SPAN = "request"
SERVE_SPANS = (
    "admission",
    "queue_wait",
    "dispatch_wait",
    "execute",
    "worker_ipc",
    "engine",
    "complete",
    "loop_complete",
)


class SpanRecord:
    """One completed span: a named, attributed ``[start_s, end_s]`` interval.

    Timestamps are ``time.monotonic()`` seconds.  ``pid``/``tid`` identify
    the process/thread that *executed* the span -- worker-side engine spans
    carry the worker process's ids, everything else the server's.  ``attrs``
    is small JSON-ready metadata (batch size, replica label, status).

    A hand-rolled ``__slots__`` class rather than a dataclass: the serving
    stack buffers spans as plain field tuples on the hot path and only
    materialises ``SpanRecord`` objects when a trace is actually read, so
    construction stays off the per-request critical path entirely.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_s",
        "end_s",
        "pid",
        "tid",
        "category",
        "attrs",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        start_s: float,
        end_s: float,
        pid: int,
        tid: int,
        category: str = "serve",
        attrs: dict | None = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s = end_s
        self.pid = pid
        self.tid = tid
        self.category = category
        self.attrs = {} if attrs is None else attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord({self.name!r}, trace_id={self.trace_id!r}, "
            f"span_id={self.span_id!r}, start_s={self.start_s}, "
            f"end_s={self.end_s})"
        )

    @property
    def duration_s(self) -> float:
        """Span length in seconds (never negative)."""
        return max(0.0, self.end_s - self.start_s)

    def as_dict(self) -> dict:
        """JSON-ready representation (what ``RequestTrace.spans`` carries)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "pid": self.pid,
            "tid": self.tid,
            "category": self.category,
            "attrs": dict(self.attrs),
        }

    def to_chrome_event(self) -> dict:
        """This span as one Chrome trace-event (``ph="X"``, microsecond ts)."""
        args = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }
        args.update(self.attrs)
        return {
            "name": self.name,
            "cat": self.category,
            "ph": "X",
            "ts": self.start_s * 1e6,
            "dur": self.duration_s * 1e6,
            "pid": self.pid,
            "tid": self.tid,
            "args": args,
        }


class FlightRecorder:
    """A bounded, thread-safe ring buffer of spans and lifecycle events.

    Keeps the last ``capacity`` events (completed :class:`SpanRecord`\\ s
    plus instant lifecycle events such as replica crashes, restarts,
    overload transitions and sheds) -- old entries fall off the front, so a
    long-running server can always dump the recent past without unbounded
    memory.  :meth:`to_chrome_trace` renders the buffer as Chrome
    trace-event JSON (Perfetto-loadable).
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def record_span(self, span: SpanRecord) -> None:
        """Append one completed span to the ring."""
        with self._lock:
            self._events.append(span)

    def record_raw_spans(self, raws) -> None:
        """Append a batch of raw span field tuples (one ring slot each).

        The hot path (``TraceHandle.finish``) ships a whole trace with one
        lock acquisition and zero per-span conversion; tuples are rendered
        into Chrome events lazily when the buffer is read.
        """
        with self._lock:
            self._events.extend(raws)

    def record_instant(
        self, name: str, category: str = "lifecycle", args: dict | None = None
    ) -> None:
        """Append one instant lifecycle event (``ph="i"``) stamped *now*."""
        event = {
            "name": name,
            "cat": category,
            "ph": "i",
            "ts": time.monotonic() * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "s": "g",  # global scope: lifecycle events concern the whole stack
            "args": dict(args) if args else {},
        }
        with self._lock:
            self._events.append(event)

    @staticmethod
    def _as_event(entry) -> dict:
        """Render one ring slot (raw tuple, span, or instant dict)."""
        if type(entry) is tuple:
            return SpanRecord(*entry).to_chrome_event()
        if isinstance(entry, SpanRecord):
            return entry.to_chrome_event()
        return dict(entry)

    def events(self, category: str | None = None) -> list[dict]:
        """A snapshot of the buffered events (optionally one category's)."""
        with self._lock:
            entries = list(self._events)
        events = [self._as_event(entry) for entry in entries]
        if category is not None:
            events = [event for event in events if event["cat"] == category]
        return events

    def trace_events(self, trace_id: str) -> list[dict]:
        """The buffered span events belonging to one trace, by ``ts``."""
        events = [
            event
            for event in self.events()
            if event.get("args", {}).get("trace_id") == trace_id
        ]
        return sorted(events, key=lambda event: event["ts"])

    def to_chrome_trace(self, indent: int | None = None) -> str:
        """The buffer as Chrome trace-event JSON (load in Perfetto).

        Events are sorted by timestamp, and ``displayTimeUnit`` is set so
        viewers show milliseconds.  The ``ts`` origin is this host's
        monotonic clock, shared by parent- and worker-side spans.
        """
        events = sorted(self.events(), key=lambda event: event["ts"])
        return json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}, indent=indent
        )

    def clear(self) -> None:
        """Drop every buffered event."""
        with self._lock:
            self._events.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlightRecorder(events={len(self)}, capacity={self.capacity})"


class TraceHandle:
    """The in-flight trace of one sampled request.

    Created by :meth:`Tracer.begin` at submit time; the serving stack
    appends child spans as the request moves through its stages, and
    :meth:`finish` closes the root ``request`` span, ships everything to the
    :class:`FlightRecorder` and freezes the span list.  ``add_span`` may be
    called from any thread (submit thread, dispatch workers); ``finish`` is
    called exactly once by whoever completes the request.
    """

    __slots__ = (
        "trace_id",
        "model_name",
        "request_id",
        "start_s",
        "_tracer",
        "_root_id",
        "_pid",
        "_spans",
        "_finished",
        "_records",
        "_lock",
    )

    def __init__(
        self, tracer: "Tracer", trace_id: str, model_name: str, request_id: int
    ):
        self.trace_id = trace_id
        self.model_name = model_name
        self.request_id = request_id
        self.start_s = time.monotonic()
        self._tracer = tracer
        self._root_id = tracer.next_span_id()
        self._pid = tracer._pid
        # Open spans buffer as raw SpanRecord field tuples -- materialised
        # into SpanRecord objects only when the finished trace is read.
        self._spans: list[tuple] = []
        self._finished: tuple[tuple, ...] | None = None
        self._records: tuple[SpanRecord, ...] | None = None
        self._lock = threading.Lock()

    def add_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        *,
        category: str = "serve",
        pid: int | None = None,
        tid: int | None = None,
        **attrs,
    ) -> None:
        """Record one completed child span of this request.

        ``pid``/``tid`` default to the calling process/thread; worker-shipped
        spans pass the worker's ids explicitly.  Extra keyword arguments
        become the span's ``attrs``.  Costs one tuple append: the
        ``SpanRecord`` itself is built lazily when the trace is read.
        """
        raw = (
            name,
            self.trace_id,
            self._tracer.next_span_id(),
            self._root_id,
            start_s,
            end_s,
            self._pid if pid is None else int(pid),
            threading.get_ident() if tid is None else int(tid),
            category,
            attrs,
        )
        with self._lock:
            if self._finished is None:
                self._spans.append(raw)

    def add_span_dicts(self, spans, *, clamp: tuple[float, float] | None = None):
        """Fold in spans shipped as plain dicts (worker-side / sink spans).

        Each dict needs ``name``/``start_s``/``end_s`` and may carry
        ``pid``/``tid`` plus arbitrary attribute keys.  ``clamp`` bounds the
        timestamps into a parent-side window -- worker clocks share Linux's
        ``CLOCK_MONOTONIC`` so this is normally a no-op, but it guarantees
        spans never escape their enclosing IPC window on other platforms.
        """
        for span in spans:
            extra = {
                key: value
                for key, value in span.items()
                if key not in ("name", "start_s", "end_s", "pid", "tid")
            }
            start_s, end_s = float(span["start_s"]), float(span["end_s"])
            if clamp is not None:
                low, high = clamp
                start_s = min(max(start_s, low), high)
                end_s = min(max(end_s, low), high)
            self.add_span(
                str(span["name"]),
                start_s,
                end_s,
                pid=span.get("pid"),
                tid=span.get("tid"),
                **extra,
            )

    def finish(self, end_s: float | None = None, **attrs) -> None:
        """Close the root span, ship everything to the recorder, freeze.

        The frozen spans (root last) are readable via :meth:`spans`.
        Idempotent: a second call neither re-records nor reopens the trace.
        """
        root = (
            REQUEST_SPAN,
            self.trace_id,
            self._root_id,
            None,
            self.start_s,
            time.monotonic() if end_s is None else end_s,
            self._pid,
            threading.get_ident(),
            "serve",
            {"model": self.model_name, "request_id": self.request_id, **attrs},
        )
        with self._lock:
            if self._finished is not None:
                return
            self._finished = (*self._spans, root)
            self._spans = []
        recorder = self._tracer.recorder
        if recorder is not None:
            recorder.record_raw_spans(self._finished)

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has run."""
        with self._lock:
            return self._finished is not None

    def spans(self) -> tuple[SpanRecord, ...]:
        """The frozen spans (empty tuple while the trace is still open).

        Materialised from the raw buffer on first read and cached, so
        repeated reads return the identical tuple.
        """
        with self._lock:
            if self._finished is None:
                return ()
            if self._records is None:
                self._records = tuple(SpanRecord(*raw) for raw in self._finished)
            return self._records

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "open"
        return f"TraceHandle({self.trace_id!r}, {self.model_name!r}, {state})"


class Tracer:
    """Sampling-gated trace factory feeding one :class:`FlightRecorder`.

    Parameters
    ----------
    sample_rate:
        Fraction of requests to trace, in ``[0, 1]``.  Sampling is
        deterministic (every ``round(1/rate)``-th request), so a rate of
        ``0.01`` traces exactly one request in a hundred rather than
        approximately -- reproducible overhead and reproducible tests.
    recorder:
        The ring buffer finished traces land in (a fresh
        :class:`FlightRecorder` by default).
    enabled:
        Master switch; a disabled tracer never samples.  Flip
        :attr:`enabled` at runtime to turn tracing on or off without
        rebuilding the server.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        recorder: FlightRecorder | None = None,
        enabled: bool = True,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        self.sample_rate = sample_rate
        self.recorder = FlightRecorder() if recorder is None else recorder
        self.enabled = enabled
        # Deterministic 1-in-N sampling; N = round(1/rate).  rate=0 never
        # samples (the modulus is never hit because _interval is 0).
        self._interval = 0 if sample_rate == 0.0 else max(1, round(1.0 / sample_rate))
        self._counter = itertools.count()
        self._span_ids = itertools.count(1)
        self._pid = os.getpid()
        self._id_prefix = f"{self._pid:x}-"

    def next_span_id(self) -> str:
        """A process-unique span id (cheap: pid + a counter, hex)."""
        return self._id_prefix + format(next(self._span_ids), "x")

    def begin(self, model_name: str, request_id: int) -> TraceHandle | None:
        """Start the trace of one request, or ``None`` when sampled out."""
        if not self.enabled or self._interval == 0:
            return None
        if next(self._counter) % self._interval != 0:
            return None
        trace_id = f"{self._pid:x}-{request_id:x}-{next(self._span_ids):x}"
        return TraceHandle(self, trace_id, model_name, request_id)

    def record_span(
        self,
        name: str,
        trace_id: str,
        start_s: float,
        end_s: float,
        *,
        category: str = "serve",
        parent_id: str | None = None,
        **attrs,
    ) -> SpanRecord:
        """Record one standalone span straight into the recorder.

        For spans that outlive their request's :class:`TraceHandle` -- the
        asyncio facade's loop-side completion bridge finishes *after* the
        sync trace closed, so it attaches its span to the same ``trace_id``
        through this path.
        """
        span = SpanRecord(
            name=name,
            trace_id=trace_id,
            span_id=self.next_span_id(),
            parent_id=parent_id,
            start_s=start_s,
            end_s=end_s,
            pid=os.getpid(),
            tid=threading.get_ident(),
            category=category,
            attrs=attrs,
        )
        if self.recorder is not None:
            self.recorder.record_span(span)
        return span

    def record_event(self, name: str, **args) -> None:
        """Record one lifecycle instant (no-op when disabled)."""
        if self.enabled and self.recorder is not None:
            self.recorder.record_instant(name, args=args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer(sample_rate={self.sample_rate}, enabled={self.enabled}, "
            f"recorder={self.recorder!r})"
        )
