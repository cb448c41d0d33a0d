"""Asyncio JSON-over-HTTP control-plane server (stdlib only).

One :class:`ServiceServer` owns one :class:`~repro.service.run.ServiceRun`
and exposes it over a minimal HTTP/1.1 surface:

======  ============  ====================================================
Method  Path          Effect
======  ============  ====================================================
GET     /status       Run status (rounds, devices, health, digests)
GET     /report       Per-device :class:`TelemetryReport` records
GET     /alerts       :class:`FlatlineAlert` records emitted so far
POST    /dispatch     Apply one :class:`DispatchCommand` (body = message)
POST    /pause        Sugar for a ``pause`` dispatch
POST    /resume       Sugar for a ``resume`` dispatch
POST    /snapshot     Force a snapshot rotation now
POST    /shutdown     Graceful drain (same as SIGTERM)
======  ============  ====================================================

Every request is parsed and answered under a per-request deadline; a
slow or stalled client cannot wedge the stepper, and a body larger than
:data:`MAX_BODY_BYTES` is refused unread.  The fleet advances in
a background task one lockstep round at a time, so dispatches always
land on a round boundary.  ``SIGTERM`` (and ``POST /shutdown``) drains
gracefully: the in-flight round completes, a final snapshot rotation and
a :class:`ShutdownNotice` are journaled, and the process exits 0.  A
``kill -9`` instead is exactly what the journal is for — restart with
``--resume`` and the run continues bitwise identically.  A round that
raises (for example ``ENOSPC`` from a snapshot rotation) stops serving:
the failure is recorded as an :class:`ErrorReport` and :meth:`serve`
returns with :attr:`ServiceServer.failure` set.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.service.journal import JournalError
from repro.service.protocol import (
    DispatchCommand,
    ErrorReport,
    ProtocolError,
    encode_message,
    loads_message,
)
from repro.service.run import ServiceRun

#: File (inside the journal directory) recording the bound port, so
#: clients and the demo can find a server started with ``--port 0``.
PORT_FILE = "server.port"

#: Largest request body read (a dispatch encodes to well under 1 KiB).
MAX_BODY_BYTES = 64 * 1024

_LOG = logging.getLogger(__name__)


class ServiceServer:
    """Serve one :class:`ServiceRun` until it finishes or is drained."""

    def __init__(
        self,
        run: ServiceRun,
        host: str = "127.0.0.1",
        port: int = 0,
        step_delay: float = 0.0,
        request_timeout: float = 10.0,
    ) -> None:
        self.run = run
        self.host = host
        self.port = port
        self.step_delay = float(step_delay)
        self.request_timeout = float(request_timeout)
        self.bound_port: Optional[int] = None
        self.failure: Optional[ErrorReport] = None
        self._draining = False
        self._drain_reason = "drained"
        self._stopped: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.base_events.Server] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def serve(self, install_signal_handlers: bool = True) -> None:
        """Run the server until the fleet finishes or a drain is requested."""
        loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]
        if self.run.journal_dir is not None:
            (self.run.journal_dir / PORT_FILE).write_text(
                str(self.bound_port)
            )
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(
                    signum, self.request_drain, signal.Signals(signum).name
                )
        stepper = asyncio.ensure_future(self._stepper())
        try:
            await self._stopped.wait()
        finally:
            stepper.cancel()
            try:
                await stepper
            except asyncio.CancelledError:
                pass
            self._server.close()
            await self._server.wait_closed()
            if self.failure is None:
                self.run.shutdown(self._drain_reason)
            else:
                self.run.close()

    def request_drain(self, reason: str = "drained") -> None:
        """Finish the in-flight round, journal, and stop (idempotent)."""
        self._draining = True
        self._drain_reason = reason

    async def _stepper(self) -> None:
        """Advance the fleet one round at a time between request turns.

        A finished fleet keeps the server up (clients still need the
        final status/digests); only a drain request or a failed round
        stops serving.
        """
        try:
            while not self._draining:
                if self.run.done:
                    await asyncio.sleep(0.05)
                    continue
                self.run.step_round()
                # Yield to the event loop (and pace the run for demos) so
                # requests interleave at round boundaries.
                await asyncio.sleep(self.step_delay)
        except Exception as exc:  # noqa: BLE001 - report, then stop serving
            self._record_failure(exc)
        assert self._stopped is not None
        self._stopped.set()

    def _record_failure(self, exc: Exception) -> None:
        """Log a failed round and record it in ``run.errors`` and, if it
        still takes appends, the journal."""
        _LOG.error("fleet round failed; stopping the server", exc_info=exc)
        self.failure = ErrorReport(
            context="stepper",
            message=f"round {self.run.rounds}: {type(exc).__name__}: {exc}",
        )
        self.run.errors.append(self.failure)
        if self.run.journal is not None:
            try:
                self.run.journal.append(self.failure)
            except (OSError, ValueError, JournalError):
                pass

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await asyncio.wait_for(
                self._serve_request(reader), timeout=self.request_timeout
            )
        except asyncio.TimeoutError:
            status, payload = 408, {"error": "request deadline exceeded"}
        except ConnectionError:
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 - fault barrier per request
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 408: "Request Timeout",
                  413: "Payload Too Large"}.get(status, "Error")
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode("ascii") + body
        )
        try:
            await writer.drain()
        except ConnectionError:
            pass
        writer.close()

    async def _serve_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Dict[str, Any]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"error": f"malformed request line {request_line!r}"}
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                value = value.strip()
                if not (value.isascii() and value.isdigit()):
                    return 400, {"error": f"bad Content-Length {value!r}"}
                content_length = int(value)
        if content_length > MAX_BODY_BYTES:
            return 413, {"error": f"body of {content_length} bytes exceeds "
                                  f"{MAX_BODY_BYTES}"}
        body = b""
        if content_length:
            body = await reader.readexactly(content_length)
        return self._route(method, path, body)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _route(self, method: str, path: str,
               body: bytes) -> Tuple[int, Dict[str, Any]]:
        if method == "GET":
            if path == "/status":
                return 200, self.run.status()
            if path == "/report":
                return 200, {"reports": [encode_message(r)
                                         for r in self.run.reports()]}
            if path == "/alerts":
                return 200, {"alerts": [encode_message(a)
                                        for a in self.run.alerts]}
            return 404, {"error": f"no such resource {path!r}"}
        if method != "POST":
            return 405, {"error": f"method {method} not allowed"}
        if path == "/dispatch":
            try:
                message = loads_message(body.decode("utf-8"))
            except (ProtocolError, UnicodeDecodeError) as exc:
                return 400, {"error": f"bad dispatch body: {exc}"}
            if not isinstance(message, DispatchCommand):
                return 400, {"error": "body must be a DispatchCommand"}
            receipt = self.run.dispatch(message)
            return 200, encode_message(receipt)
        if path in ("/pause", "/resume"):
            key = ""
            if body:
                try:
                    key = str(json.loads(body).get("idempotency_key", ""))
                except (ValueError, AttributeError):
                    return 400, {"error": "bad pause/resume body"}
            receipt = self.run.dispatch(DispatchCommand(
                command=path[1:], idempotency_key=key,
            ))
            return 200, encode_message(receipt)
        if path == "/snapshot":
            if self.run.journal is None:
                return 400, {"error": "run is not journaled"}
            manifest = self.run._rotate_snapshots()
            return 200, encode_message(manifest)
        if path == "/shutdown":
            self.request_drain("shutdown-request")
            return 200, {"draining": True, "rounds": self.run.rounds}
        return 404, {"error": f"no such resource {path!r}"}


def read_port_file(journal_dir: Path) -> int:
    """The port a journaled server bound to (written by :meth:`serve`)."""
    return int((Path(journal_dir) / PORT_FILE).read_text().strip())

