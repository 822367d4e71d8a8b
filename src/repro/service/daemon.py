"""The daemon: a unix-socket JSON-lines front end for one broker.

``repro serve`` runs a :class:`ServiceDaemon`; ``repro request`` and
``repro serve --status/--stop`` talk to it with :func:`call`.  The wire
protocol is one JSON object per line in each direction:

* ``{"op": "simulate", "workload": ..., "gpu": ..., "strategy": ...,
  "deadline": ...}`` -> ``{"status": "ok", ...ServiceResponse fields}``
  or ``{"status": "shed"|"deadline"|"failed"|"error", "error": ...}``
  (the status string is the typed rejection's ``kind``, so clients can
  branch without parsing messages);
* ``{"op": "status"}`` -> ``{"status": "ok", "snapshot": {...}}`` (the
  broker's counters, queue occupancy and breaker state);
* ``{"op": "metrics"}`` -> ``{"status": "ok", "metrics": {...},
  "exposition": "..."}`` -- the broker's metrics registry as a JSON
  snapshot plus its Prometheus text rendering (the same bytes served on
  ``--metrics-port``);
* ``{"op": "shutdown"}`` -> ``{"status": "ok"}``; the daemon drains
  in-flight work and exits.

The ``simulate`` op additionally accepts a ``"trace"`` object
(``{"trace_id": ..., "span_id": ...}``): the client's span context,
carried in-band so the broker's ``svc.request`` span joins the client's
trace.  Trace context never travels through the environment -- spawn
workers snapshot env at pool construction, so only the session-scoped
``REPRO_TRACE`` root rides that path.

A unix socket (not TCP) keeps the trust boundary at filesystem
permissions, and line-delimited JSON keeps the protocol debuggable with
``nc -U``.  The daemon installs the runtime sanitizer
(:mod:`repro.obs.sanitize`) when ``REPRO_SANITIZE=1`` is set, exactly
like the test harness: its one record stream is checked against both of
the sanitizer's declared tables (``SHARED_WRITES`` and
``LOOP_IO_FRAMES``), with ``loop.slow_callback_duration`` armed to the
sanitizer's stall threshold.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import tempfile
from pathlib import Path

from repro.obs import sanitize
from repro.service.broker import Broker
from repro.service.request import ServiceError, ServiceResponse, SimRequest

__all__ = ["ServiceDaemon", "call", "default_socket_path"]

SOCKET_ENV = "REPRO_SERVICE_SOCKET"


def default_socket_path() -> Path:
    """``REPRO_SERVICE_SOCKET`` or a per-user path under the tmp dir."""
    raw = os.environ.get(SOCKET_ENV, "").strip()
    if raw:
        return Path(raw)
    return Path(tempfile.gettempdir()) / f"repro-service-{os.getuid()}.sock"


class ServiceDaemon:
    """Serve one :class:`Broker` over a unix socket until shut down."""

    def __init__(self, broker: Broker, socket_path: "str | Path | None" = None,
                 metrics_port: "int | None" = None):
        self.broker = broker
        self.socket_path = Path(
            socket_path if socket_path is not None else default_socket_path()
        )
        self.metrics_port = metrics_port

    async def run(self, ready: "asyncio.Event | None" = None) -> None:
        """Start the broker, listen, and block until a shutdown op."""
        if sanitize.maybe_install():
            sanitize.arm_loop(asyncio.get_running_loop())
        await self.broker.start()
        # asyncio reads each socket into a fresh 256 KiB buffer, which
        # glibc's initial 128 KiB mmap threshold maps and unmaps per read.
        # Freeing one larger block raises that (dynamic) threshold.
        bytearray(1 << 20)
        self._stopping = asyncio.Event()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        self.socket_path.unlink(missing_ok=True)
        server = await asyncio.start_unix_server(
            self._handle, path=str(self.socket_path)
        )
        metrics_server = None
        if self.metrics_port is not None:
            metrics_server = await asyncio.start_server(
                self._handle_metrics, host="127.0.0.1",
                port=self.metrics_port,
            )
            self.broker.emit_event("svc.metrics.listen",
                                   port=self.metrics_port)
        self.broker.emit_event("svc.listen", socket=str(self.socket_path))
        if ready is not None:
            ready.set()
        # SIGINT/SIGTERM request the same clean drain as a shutdown op,
        # so Ctrl-C never strands worker processes.
        loop = asyncio.get_running_loop()
        hooked = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
                hooked.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        try:
            async with server:
                await self._stopping.wait()
        finally:
            for signum in hooked:
                loop.remove_signal_handler(signum)
            if metrics_server is not None:
                metrics_server.close()
                await metrics_server.wait_closed()
            await self.broker.stop()
            self.socket_path.unlink(missing_ok=True)
            self.broker.emit_event("svc.shutdown",
                                   socket=str(self.socket_path))

    def request_shutdown(self) -> None:
        self._stopping.set()

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                shutdown = False
                try:
                    payload = json.loads(line)
                    if not isinstance(payload, dict):
                        raise ValueError("payload must be a JSON object")
                except ValueError as exc:
                    reply = {"status": "error", "error": f"bad request: {exc}"}
                else:
                    reply = await self._dispatch(payload)
                    shutdown = payload.get("op") == "shutdown"
                writer.write(_reply_line(reply))
                await writer.drain()
                if shutdown:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _handle_metrics(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        """One-shot Prometheus scrape: any GET gets the exposition."""
        try:
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            self.broker._refresh_gauges()
            body = self.broker.metrics.render_prometheus().encode("utf-8")
            head = (
                "HTTP/1.0 200 OK\r\n"
                "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                "Content-Length: %d\r\n"
                "Connection: close\r\n\r\n" % len(body)
            ).encode("ascii")
            writer.write(head + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _dispatch(self, payload: dict) -> "dict | ServiceResponse":
        op = payload.get("op")
        if op == "status":
            return {"status": "ok", "snapshot": self.broker.snapshot()}
        if op == "metrics":
            self.broker._refresh_gauges()
            return {
                "status": "ok",
                "metrics": self.broker.metrics.snapshot(),
                "exposition": self.broker.metrics.render_prometheus(),
            }
        if op == "shutdown":
            self.request_shutdown()
            return {"status": "ok", "stopping": True}
        if op == "simulate":
            trace = payload.get("trace")
            trace = trace if isinstance(trace, dict) else {}
            try:
                request = SimRequest(
                    workload=payload["workload"],
                    gpu=payload.get("gpu", "3060-Sim"),
                    strategy=payload.get("strategy", "baseline"),
                    deadline=payload.get("deadline"),
                    trace_id=trace.get("trace_id"),
                    parent_span=trace.get("span_id"),
                )
            except (KeyError, ValueError, TypeError) as exc:
                return {"status": "error", "error": f"bad request: {exc!r}"}
            try:
                response = await self.broker.submit(request)
            except ServiceError as exc:
                return {"status": exc.kind, "error": str(exc)}
            except Exception as exc:  # never let one request kill the loop
                return {"status": "error", "error": repr(exc)}
            return response
        return {"status": "error", "error": f"unknown op {op!r}"}


def _reply_line(reply: "dict | ServiceResponse") -> bytes:
    """One protocol line.  A simulate reply is ``{"status": "ok",
    **response.to_dict()}`` encoded byte for byte, with the memoized
    result text spliced in rather than re-encoded."""
    if isinstance(reply, ServiceResponse):
        text = '{"status": "ok", ' + reply.to_json()[1:]
    else:
        text = json.dumps(reply)
    return (text + "\n").encode("utf-8")


def call(payload: dict, socket_path: "str | Path | None" = None,
         timeout: float = 300.0) -> dict:
    """Send one op to a running daemon and return its decoded reply.

    Synchronous on purpose: this is the client side used by the CLI and
    CI smoke scripts, where an event loop would be overhead.
    """
    path = Path(
        socket_path if socket_path is not None else default_socket_path()
    )
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(str(path))
        sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
    raw = b"".join(chunks)
    if not raw:
        raise ServiceError("daemon closed the connection without replying")
    return json.loads(raw)
