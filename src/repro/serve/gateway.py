"""Stdlib-only HTTP/JSON gateway over :class:`AsyncInferenceServer`.

The last missing layer between the serving stack and a load balancer: a
minimal HTTP/1.1 front door built on ``asyncio.start_server`` -- no web
framework, because the repo's dependency budget is numpy plus the standard
library.  Five routes:

* ``POST /v1/infer`` -- body ``{"model": str, "inputs": [[...]],
  "priority": int?, "deadline_s": float?}``.  Admitted requests await their
  result and return ``200`` with ``{"outputs": [[...]], "decision": {...},
  "trace_id": str|null}`` (the trace id is non-null when a
  :class:`~repro.telemetry.Tracer` sampled the request -- quote it to
  ``/debug/trace``); shed requests return ``429`` *immediately* (the
  admission decision is O(us); no scheduler round-trip) with the typed
  decision as the body, plus a ``Retry-After`` hint.  Unknown models map to
  ``404``, malformed bodies to ``400``.
* ``GET /v1/models`` -- the hosted models with per-model backend, tenant,
  backlog, dispatch width and (for replica pools) healthy/total replica
  counts, plus the admission controller's overload state.
* ``GET /metrics`` -- the :class:`~repro.telemetry.TelemetryCollector`
  Prometheus text exposition (counters, gauges and the latency/queue-wait/
  engine-time histograms), served under
  :data:`~repro.telemetry.PROMETHEUS_CONTENT_TYPE` so a stock Prometheus
  scraper can point at the gateway unmodified.
* ``GET /healthz`` -- liveness plus the server's per-model backlog,
  admission counters, overload state and replica-pool health, the signals a
  load balancer needs for weighted routing.
* ``GET /debug/trace`` -- the tracer's flight recorder as Chrome
  trace-event JSON (open in Perfetto); ``?trace_id=`` narrows the dump to
  one request.

The HTTP surface is deliberately small: one request per connection
(``Connection: close``), bounded header/body sizes, JSON in and out.  It is
an *example-grade* front door -- the asyncio facade underneath is the
production piece -- but every response it emits is well-formed HTTP/1.1,
and ``examples/gateway.py`` plus ``tests/test_async_serve.py`` drive it
with a real ``http.client``.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from repro.serve.admission import RequestShedError
from repro.serve.aio import AsyncInferenceServer
from repro.telemetry import PROMETHEUS_CONTENT_TYPE

__all__ = ["AsyncGateway"]

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 16 * 1024 * 1024
_JSON_TYPE = "application/json; charset=utf-8"

#: HTTP status line reasons for the subset of codes the gateway emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """An error that maps straight to an HTTP error response."""

    def __init__(self, status: int, message: str):
        self.status = status
        self.message = message
        super().__init__(message)


class AsyncGateway:
    """Serve inference, metrics, health and trace routes over one event loop.

    Parameters
    ----------
    server:
        The :class:`~repro.serve.aio.AsyncInferenceServer` handling
        inference.  Its telemetry collector (if any) backs ``/metrics``.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`),
        which is what the tests and the example use.
    """

    def __init__(
        self,
        server: AsyncInferenceServer,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._server = server
        self._host = host
        self._port = port
        self._listener: asyncio.base_events.Server | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` -- resolves ``port=0`` after start."""
        if self._listener is None:
            raise RuntimeError("gateway is not running")
        sock = self._listener.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> "AsyncGateway":
        self._listener = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        return self

    async def aclose(self) -> None:
        if self._listener is None:
            return
        self._listener.close()
        await self._listener.wait_closed()
        self._listener = None

    async def __aenter__(self) -> "AsyncGateway":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
                status, content_type, payload = await self._route(method, path, body)
            except _HttpError as exc:
                status = exc.status
                content_type = _JSON_TYPE
                payload = json.dumps({"error": exc.message}).encode()
            except Exception:
                status = 500
                content_type = _JSON_TYPE
                payload = json.dumps({"error": "internal error"}).encode()
            await self._write_response(writer, status, content_type, payload)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        """Parse one HTTP/1.1 request: start line, headers, sized body."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "headers too large") from None
        if len(head) > _MAX_HEADER_BYTES:
            raise _HttpError(413, "headers too large")
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, path, _version = parts
        headers = {}
        for line in header_lines:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length < 0 or length > _MAX_BODY_BYTES:
            raise _HttpError(413, "body too large")
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, str, bytes]:
        path, _, query = path.partition("?")
        if path == "/v1/infer":
            if method != "POST":
                raise _HttpError(405, "POST required")
            return await self._infer(body)
        if path == "/v1/models":
            if method != "GET":
                raise _HttpError(405, "GET required")
            return self._models()
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "GET required")
            return self._metrics()
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "GET required")
            return self._healthz()
        if path == "/debug/trace":
            if method != "GET":
                raise _HttpError(405, "GET required")
            return self._debug_trace(query)
        raise _HttpError(404, f"no route for {path!r}")

    async def _infer(self, body: bytes) -> tuple[int, str, bytes]:
        try:
            payload = json.loads(body)
            model = payload["model"]
            inputs = np.asarray(payload["inputs"], dtype=np.float64)
        except (ValueError, KeyError, TypeError) as exc:
            raise _HttpError(400, f"bad request body: {exc}") from None
        priority = int(payload.get("priority", 0))
        deadline_s = payload.get("deadline_s")
        try:
            decision = await self._server.submit(
                model, inputs, priority=priority, deadline_s=deadline_s
            )
        except KeyError as exc:
            raise _HttpError(404, str(exc)) from None
        except (ValueError, TypeError) as exc:
            raise _HttpError(400, str(exc)) from None
        except RuntimeError as exc:  # ServerStoppedError and kin
            raise _HttpError(503, str(exc)) from None
        trace_id = getattr(decision.decision, "trace_id", None)
        try:
            outputs = await decision.result()
        except RequestShedError:
            reply = json.dumps(
                {"decision": decision.as_dict(), "trace_id": trace_id}
            ).encode()
            return 429, _JSON_TYPE, reply
        reply = json.dumps(
            {
                "outputs": outputs.tolist(),
                "decision": decision.as_dict(),
                "trace_id": trace_id,
            }
        ).encode()
        return 200, _JSON_TYPE, reply

    def _metrics(self) -> tuple[int, str, bytes]:
        telemetry = self._server.telemetry
        if telemetry is None:
            raise _HttpError(503, "no telemetry collector attached")
        return 200, PROMETHEUS_CONTENT_TYPE, telemetry.to_prometheus().encode()

    def _models(self) -> tuple[int, str, bytes]:
        """``GET /v1/models``: hosted models with health/backlog/pressure."""
        sync_server = self._server.server
        registry = sync_server.registry
        backlog = sync_server.backlog_by_model()
        tenants = registry.tenants()
        models = []
        for name in sorted(registry.names()):
            try:
                engine = registry.engine(name)
            except KeyError:  # unregistered between names() and engine()
                continue
            pool_health = getattr(engine, "pool_health", None)
            entry: dict = {
                "name": name,
                "tenant": tenants.get(name, name),
                "backend": "thread" if pool_health is None else "process",
                "backlog_samples": backlog.get(name, 0),
                "dispatch_width": engine.dispatch_width,
            }
            if pool_health is not None:
                entry["replicas"] = pool_health()
            models.append(entry)
        payload = {"models": models, "overload_state": self._overload_state()}
        return 200, _JSON_TYPE, json.dumps(payload).encode()

    def _overload_state(self) -> str | None:
        """The admission controller's overload state (``None`` without one)."""
        admission = self._server.server.admission
        return None if admission is None else admission.state.value

    def _healthz(self) -> tuple[int, str, bytes]:
        sync_server = self._server.server
        health = {
            "status": "ok",
            "backlog_samples": sync_server.backlog_by_model(),
            "inflight": self._server.inflight,
            "overload_state": self._overload_state(),
        }
        if sync_server.admission is not None:
            health["admission"] = vars(sync_server.admission.counters())
        pools = {}
        registry = sync_server.registry
        for name in registry.names():
            try:
                engine = registry.engine(name)
            except KeyError:
                continue
            pool_health = getattr(engine, "pool_health", None)
            if pool_health is not None:
                pools[name] = pool_health()
        if pools:
            health["pools"] = pools
        return 200, _JSON_TYPE, json.dumps(health).encode()

    def _debug_trace(self, query: str) -> tuple[int, str, bytes]:
        """``GET /debug/trace``: the flight recorder as Chrome trace JSON.

        ``?trace_id=<id>`` narrows the dump to one request's span events
        (still wrapped in the same ``traceEvents`` envelope, so either form
        loads in Perfetto).
        """
        tracer = self._server.server.tracer
        if tracer is None or tracer.recorder is None:
            raise _HttpError(503, "no tracer attached")
        recorder = tracer.recorder
        params = dict(pair.partition("=")[::2] for pair in query.split("&") if pair)
        trace_id = params.get("trace_id")
        if trace_id:
            payload = json.dumps(
                {
                    "traceEvents": recorder.trace_events(trace_id),
                    "displayTimeUnit": "ms",
                }
            )
        else:
            payload = recorder.to_chrome_trace()
        return 200, _JSON_TYPE, payload.encode()

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        payload: bytes,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
        )
        if status == 429:
            head += "Retry-After: 1\r\n"
        head += "Connection: close\r\n\r\n"
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
