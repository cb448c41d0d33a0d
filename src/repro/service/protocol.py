"""Typed, versioned message protocol of the fleet control plane.

Every message crossing a process boundary (client -> server requests,
journal records, telemetry) is a frozen dataclass registered here, with a
stable wire name and an explicit schema version — the gridworks-scada
``named_types`` idiom.  Serialization is strict JSON:

* :func:`encode_message` emits ``{"type": ..., "version": ..., fields}``
  with deterministic key order (the journal frames the canonical dump).
* :func:`decode_message` refuses unknown types, version mismatches,
  missing required fields and unexpected fields — a corrupted or
  foreign payload must fail loudly, never restore into a silently wrong
  run.

Messages are pure data; the semantics (what a dispatch does, when a
flatline alert fires) live in :mod:`repro.service.run`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Optional, Tuple, Type

#: Commands :class:`DispatchCommand` accepts (validated at decode time
#: so a bad dispatch is rejected before it is journaled).
DISPATCH_COMMANDS = ("pause", "resume", "restrict-space", "set-policy")

_MISSING = dataclasses.MISSING


class ProtocolError(ValueError):
    """A message payload failed strict decoding."""


@dataclass(frozen=True)
class Message:
    """Base of every wire message; subclasses set TYPE_NAME/VERSION."""

    TYPE_NAME: ClassVar[str] = ""
    VERSION: ClassVar[int] = 1


_REGISTRY: Dict[str, Type[Message]] = {}


def _register(cls: Type[Message]) -> Type[Message]:
    if not cls.TYPE_NAME:
        raise ValueError(f"{cls.__name__} has no TYPE_NAME")
    if cls.TYPE_NAME in _REGISTRY:
        raise ValueError(f"duplicate message type {cls.TYPE_NAME!r}")
    _REGISTRY[cls.TYPE_NAME] = cls
    return cls


@_register
@dataclass(frozen=True)
class DeviceRegistration(Message):
    """One device announcing itself to the control plane (journal genesis)."""

    TYPE_NAME: ClassVar[str] = "device.registration"
    device: str = ""
    policy: str = ""
    trace_steps: int = 0
    scenario: str = ""
    supervised: bool = False


@_register
@dataclass(frozen=True)
class TelemetryReport(Message):
    """Periodic per-device progress/energy report (``GET /report``)."""

    TYPE_NAME: ClassVar[str] = "telemetry.report"
    device: str = ""
    round: int = 0
    steps_completed: int = 0
    trace_steps: int = 0
    health: str = "healthy"
    total_energy_j: float = 0.0
    total_time_s: float = 0.0
    state_digest: str = ""


@_register
@dataclass(frozen=True)
class SnapshotRequest(Message):
    """Client-initiated snapshot rotation (``POST /snapshot``)."""

    TYPE_NAME: ClassVar[str] = "snapshot.request"
    reason: str = ""


@_register
@dataclass(frozen=True)
class SnapshotManifest(Message):
    """Journal record naming one completed snapshot rotation.

    ``files`` holds one ``(label, relative_path, sha256_hex)`` entry: the
    rotation file that holds every session at ``round``.  The manifest is
    appended (and fsync'd) only *after* that file was durably published,
    so a manifest in the journal is a recovery point whose file either
    verifies or (bit-rot) fails loudly.
    """

    TYPE_NAME: ClassVar[str] = "snapshot.manifest"
    round: int = 0
    files: Tuple[Tuple[str, str, str], ...] = ()


@_register
@dataclass(frozen=True)
class DispatchCommand(Message):
    """A control-plane mutation: pause/resume, space cap, policy swap.

    ``apply_round`` is assigned by the server at acceptance (the next
    fleet round boundary); clients leave it ``None``.  ``value`` carries
    the command operand: the OPP cap (int, or ``None`` to lift) for
    ``restrict-space``, the policy name (str) for ``set-policy``.
    ``idempotency_key`` makes redelivery safe: the same key is applied
    exactly once and later deliveries return the original receipt.
    """

    TYPE_NAME: ClassVar[str] = "dispatch.command"
    command: str = ""
    device: str = ""
    value: Any = None
    idempotency_key: str = ""
    apply_round: Optional[int] = None

    def __post_init__(self) -> None:
        if self.command not in DISPATCH_COMMANDS:
            raise ProtocolError(
                f"unknown dispatch command {self.command!r}; "
                f"expected one of {DISPATCH_COMMANDS}"
            )


@_register
@dataclass(frozen=True)
class DispatchReceipt(Message):
    """Server acknowledgement of a dispatch (returned, not journaled)."""

    TYPE_NAME: ClassVar[str] = "dispatch.receipt"
    idempotency_key: str = ""
    apply_round: int = 0
    status: str = "accepted"  # accepted | duplicate | rejected
    detail: str = ""


@_register
@dataclass(frozen=True)
class FlatlineAlert(Message):
    """Watchdog alert: a supervised device's log stopped advancing."""

    TYPE_NAME: ClassVar[str] = "flatline.alert"
    device: str = ""
    round: int = 0
    stalled_rounds: int = 0
    health: str = "degraded"


@_register
@dataclass(frozen=True)
class ErrorReport(Message):
    """A server-side failure surfaced to clients (``GET /status``)."""

    TYPE_NAME: ClassVar[str] = "error.report"
    context: str = ""
    message: str = ""


@_register
@dataclass(frozen=True)
class RunGenesis(Message):
    """First journal record: the deterministic run configuration.

    Recovery rebuilds the device fleet from ``config`` alone (or, for
    externally built fleets, verifies the caller supplied the same
    fleet), so the genesis record pins everything the rebuild needs.
    """

    TYPE_NAME: ClassVar[str] = "run.genesis"
    config: Dict[str, Any] = dataclasses.field(default_factory=dict)


@_register
@dataclass(frozen=True)
class StepBoundary(Message):
    """One completed lockstep fleet round (journaled at the boundary)."""

    TYPE_NAME: ClassVar[str] = "step.boundary"
    round: int = 0
    advanced: int = 0


@_register
@dataclass(frozen=True)
class ShutdownNotice(Message):
    """Graceful shutdown marker (SIGTERM drain or completed run)."""

    TYPE_NAME: ClassVar[str] = "run.shutdown"
    round: int = 0
    reason: str = ""


def message_types() -> Dict[str, Type[Message]]:
    """Wire name -> class for every registered message type."""
    return dict(_REGISTRY)


def encode_message(message: Message) -> Dict[str, Any]:
    """Message -> plain JSON-compatible dict (type + version + fields)."""
    if type(message) not in _REGISTRY.values():
        raise ProtocolError(
            f"{type(message).__name__} is not a registered message type"
        )
    payload: Dict[str, Any] = {
        "type": message.TYPE_NAME,
        "version": message.VERSION,
    }
    for spec in dataclasses.fields(message):
        payload[spec.name] = _jsonify(getattr(message, spec.name))
    return payload


def _jsonify(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonify(item) for item in value]
    if isinstance(value, list):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    return value


def _tuplify(value: Any) -> Any:
    """JSON lists -> tuples (frozen dataclasses want hashable fields)."""
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value


def decode_message(payload: Dict[str, Any]) -> Message:
    """Strictly decode one :func:`encode_message` dict.

    Raises :class:`ProtocolError` on an unknown type, a schema-version
    mismatch, a missing required field, or any unexpected field.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(f"message payload must be a dict, got "
                            f"{type(payload).__name__}")
    type_name = payload.get("type")
    cls = _REGISTRY.get(type_name)
    if cls is None:
        raise ProtocolError(f"unknown message type {type_name!r}")
    version = payload.get("version")
    if version != cls.VERSION:
        raise ProtocolError(
            f"{type_name}: schema version {version!r} is not {cls.VERSION}"
        )
    specs = {spec.name: spec for spec in dataclasses.fields(cls)}
    unexpected = set(payload) - set(specs) - {"type", "version"}
    if unexpected:
        raise ProtocolError(
            f"{type_name}: unexpected fields {sorted(unexpected)}"
        )
    kwargs: Dict[str, Any] = {}
    for name, spec in specs.items():
        if name in payload:
            value = payload[name]
            # Dict-typed fields (RunGenesis.config) keep their JSON shape;
            # everything sequence-like round-trips as a tuple.
            kwargs[name] = value if isinstance(value, dict) \
                else _tuplify(value)
        elif (spec.default is _MISSING
              and spec.default_factory is _MISSING):  # pragma: no cover
            raise ProtocolError(f"{type_name}: missing field {name!r}")
    try:
        return cls(**kwargs)
    except ProtocolError:
        raise
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"{type_name}: {exc}") from exc


def dumps_message(message: Message) -> str:
    """Canonical JSON text of one message (sorted keys, tight separators).

    The canonical form is what the journal checksums — encode/dumps must
    be deterministic for a given message value.
    """
    return json.dumps(encode_message(message), sort_keys=True,
                      separators=(",", ":"))


def loads_message(text: str) -> Message:
    """Inverse of :func:`dumps_message` (strict)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"message is not valid JSON: {exc}") from exc
    return decode_message(payload)
