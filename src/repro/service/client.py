"""Control-plane client: bounded retries, seeded jitter, idempotency keys.

:class:`ServiceClient` talks to a :class:`~repro.service.server
.ServiceServer` over plain ``http.client``.  Every request gets a
per-attempt deadline and a bounded retry budget with seeded-jitter
exponential backoff (``random.Random(seed)`` — reproducible like
everything else in this repo).  Mutating calls carry idempotency keys
minted from a per-client counter under a random prefix unique to the
client, so two clients — two CLI invocations, say — never mint the same
key.  A key is **reused across retries**, so a dispatch whose response
was lost on the wire applies exactly once when redelivered — the server
answers the retry with the original receipt, marked ``duplicate``.
"""

from __future__ import annotations

import http.client
import json
import random
import secrets
import time
from typing import Any, Dict, Optional

from repro.service.protocol import (
    DispatchCommand,
    DispatchReceipt,
    Message,
    decode_message,
    dumps_message,
)


class ServiceUnavailable(RuntimeError):
    """The server could not be reached within the retry budget."""


class ServiceClient:
    """HTTP client for one control-plane server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        retries: int = 5,
        timeout: float = 10.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        seed: int = 0,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.retries = int(retries)
        self.timeout = float(timeout)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self._jitter = random.Random(seed)
        self._key_prefix = secrets.token_hex(8)
        self._key_counter = 0

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _request(self, method: str, path: str,
                 body: Optional[bytes] = None) -> Dict[str, Any]:
        """One request with bounded retries and seeded-jitter backoff."""
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            if attempt:
                delay = min(self.backoff_cap,
                            self.backoff_base * (2 ** (attempt - 1)))
                time.sleep(delay * (0.5 + self._jitter.random()))
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            try:
                connection.request(
                    method, path, body=body,
                    headers={"Content-Type": "application/json"}
                    if body else {},
                )
                response = connection.getresponse()
                payload = json.loads(response.read().decode("utf-8"))
                if response.status >= 500:
                    last_error = RuntimeError(
                        f"{method} {path} -> {response.status}: {payload}"
                    )
                    continue
                if response.status >= 400:
                    raise RuntimeError(
                        f"{method} {path} -> {response.status}: {payload}"
                    )
                return payload
            except (ConnectionError, OSError, http.client.HTTPException,
                    json.JSONDecodeError) as exc:
                last_error = exc
                continue
            finally:
                connection.close()
        raise ServiceUnavailable(
            f"{method} {path} failed after {self.retries + 1} attempts: "
            f"{last_error}"
        ) from last_error

    def next_idempotency_key(self) -> str:
        """Mint a fresh key; the SAME key must be reused across retries
        of one logical dispatch (``_request`` already does)."""
        self._key_counter += 1
        return f"{self._key_prefix}-{self._key_counter}"

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def status(self) -> Dict[str, Any]:
        return self._request("GET", "/status")

    def reports(self) -> list:
        payload = self._request("GET", "/report")
        return [decode_message(item) for item in payload["reports"]]

    def alerts(self) -> list:
        payload = self._request("GET", "/alerts")
        return [decode_message(item) for item in payload["alerts"]]

    def dispatch(self, command: DispatchCommand) -> DispatchReceipt:
        """Send one dispatch (an idempotency key is minted if missing)."""
        if not command.idempotency_key:
            import dataclasses

            command = dataclasses.replace(
                command, idempotency_key=self.next_idempotency_key()
            )
        payload = self._request(
            "POST", "/dispatch", dumps_message(command).encode("utf-8")
        )
        receipt = decode_message(payload)
        assert isinstance(receipt, DispatchReceipt)
        return receipt

    def snapshot(self) -> Message:
        return decode_message(self._request("POST", "/snapshot"))

    def shutdown(self) -> Dict[str, Any]:
        return self._request("POST", "/shutdown")

    # ------------------------------------------------------------------ #
    # Waiting
    # ------------------------------------------------------------------ #
    def wait_rounds(self, rounds: int, timeout: float = 60.0,
                    poll: float = 0.05) -> Dict[str, Any]:
        """Poll ``/status`` until the run passes ``rounds`` (or is done)."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status()
            if status["rounds"] >= rounds or status["done"]:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"run did not reach round {rounds} within {timeout}s "
                    f"(at {status['rounds']})"
                )
            time.sleep(poll)

    def wait_done(self, timeout: float = 120.0,
                  poll: float = 0.05) -> Dict[str, Any]:
        """Poll ``/status`` until the run finishes every trace."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status()
            if status["done"]:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(f"run not done within {timeout}s")
            time.sleep(poll)
