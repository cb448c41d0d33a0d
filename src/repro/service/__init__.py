"""Crash-safe fleet control plane: protocol, journal, server, client.

The service layer turns the batch-only session/fleet/supervisor stack into
a long-running, restart-surviving control plane (the gridworks-scada
precedent: typed ``named_types``-style messages, periodic report/snapshot
telemetry, dispatch of policy or space-restriction changes, flatline
watchdogs):

* :mod:`repro.service.protocol` — versioned frozen-dataclass messages
  with strict JSON round-trip serialization.
* :mod:`repro.service.journal` — append-only, fsync'd, sha256-framed
  record log, whose framing the snapshot rotation file shares; the
  durability substrate of the ``kill -9`` recovery invariant.
* :mod:`repro.service.run` — :class:`~repro.service.run.ServiceRun`, the
  journaled fleet run: every accepted dispatch and every fleet round
  boundary is journaled before it is applied, so recovery replays to a
  state bitwise identical to an uninterrupted run.
* :mod:`repro.service.server` / :mod:`repro.service.client` — a stdlib
  asyncio JSON-over-HTTP server (dispatch/snapshot/status/report/alerts,
  graceful SIGTERM drain) and a bounded-retry client with
  seeded-jitter backoff and exactly-once idempotency keys.

``python -m repro.service`` exposes serve/status/dispatch plus a
``demo`` subcommand that kills the server with SIGKILL mid-run, resumes
from the journal, and checks the recovered fleet against an
uninterrupted reference digest for digest.
"""

from repro.service.journal import Journal, JournalError
from repro.service.protocol import (
    DeviceRegistration,
    DispatchCommand,
    DispatchReceipt,
    ErrorReport,
    FlatlineAlert,
    Message,
    ProtocolError,
    RunGenesis,
    ShutdownNotice,
    SnapshotManifest,
    StepBoundary,
    TelemetryReport,
    decode_message,
    encode_message,
)
from repro.service.run import RunConfig, ServiceRun

__all__ = [
    "DeviceRegistration",
    "DispatchCommand",
    "DispatchReceipt",
    "ErrorReport",
    "FlatlineAlert",
    "Journal",
    "JournalError",
    "Message",
    "ProtocolError",
    "RunConfig",
    "RunGenesis",
    "ServiceRun",
    "ShutdownNotice",
    "SnapshotManifest",
    "StepBoundary",
    "TelemetryReport",
    "decode_message",
    "encode_message",
]
