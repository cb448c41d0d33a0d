"""Tests for the control-plane message protocol.

The protocol is the journal's on-disk schema and the server's wire
format, so these tests pin strict round-trip behaviour: every registered
type survives ``dumps -> loads`` unchanged, decoding is strict about
types/versions/fields, and the canonical dump is deterministic (the
journal checksums it byte-for-byte).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.service import protocol
from repro.service.protocol import (
    DISPATCH_COMMANDS,
    DeviceRegistration,
    DispatchCommand,
    DispatchReceipt,
    ErrorReport,
    FlatlineAlert,
    ProtocolError,
    RunGenesis,
    ShutdownNotice,
    SnapshotManifest,
    StepBoundary,
    TelemetryReport,
    decode_message,
    dumps_message,
    encode_message,
    loads_message,
)

#: One representative non-default instance of every registered type.
SAMPLES = [
    DeviceRegistration(device="device-00", policy="governor-Ondemand",
                       trace_steps=84, scenario="thermal_throttle",
                       supervised=True),
    TelemetryReport(device="device-01", round=7, steps_completed=21,
                    trace_steps=84, health="degraded",
                    total_energy_j=12.5, total_time_s=0.33,
                    state_digest="ab" * 32),
    SnapshotManifest(round=5, offset=4096, sha256="0f" * 32),
    DispatchCommand(command="restrict-space", device="device-00", value=2,
                    idempotency_key="k-1", apply_round=4),
    DispatchCommand(command="set-policy", device="device-01",
                    value="powersave", idempotency_key="k-2"),
    DispatchCommand(command="pause"),
    DispatchReceipt(idempotency_key="k-1", apply_round=4,
                    status="duplicate", detail="seen before"),
    FlatlineAlert(device="device-02", round=9, stalled_rounds=3,
                  health="quarantined"),
    ErrorReport(context="dispatch", message="unknown device"),
    RunGenesis(config={"policy": "ondemand", "n_devices": 3,
                       "scenarios": ["thermal_throttle"]}),
    StepBoundary(round=12, advanced=3),
    ShutdownNotice(round=12, reason="sigterm"),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "message", SAMPLES, ids=lambda m: type(m).__name__)
    def test_dumps_loads_identity(self, message):
        assert loads_message(dumps_message(message)) == message

    @pytest.mark.parametrize(
        "message", SAMPLES, ids=lambda m: type(m).__name__)
    def test_canonical_dump_is_deterministic(self, message):
        assert dumps_message(message) == dumps_message(
            loads_message(dumps_message(message)))

    def test_every_registered_type_has_a_sample(self):
        assert {type(m) for m in SAMPLES} == set(protocol._REGISTRY.values())

    def test_encode_carries_type_and_version(self):
        payload = encode_message(StepBoundary(round=1, advanced=2))
        assert payload["type"] == "step.boundary"
        assert payload["version"] == StepBoundary.VERSION

    def test_sequence_values_round_trip_as_tuples(self):
        command = DispatchCommand(command="restrict-space", device="d",
                                  value=[1, [2, 3]])
        assert loads_message(dumps_message(command)).value == (1, (2, 3))

    def test_manifest_of_older_code_is_refused(self):
        """A version-1 manifest named a snapshot file per rotation; it does
        not decode as a rotation frame's manifest."""
        older = {"type": "snapshot.manifest", "version": 1, "round": 5,
                 "files": [["fleet", "snapshots/round-00000005.snapshot",
                            "0" * 64]]}
        with pytest.raises(ProtocolError, match="schema version 1 is not 2"):
            decode_message(older)

    def test_genesis_config_round_trips_as_dict(self):
        genesis = loads_message(dumps_message(SAMPLES[-3]))
        assert isinstance(genesis.config, dict)
        assert genesis.config["scenarios"] == ["thermal_throttle"]


class TestStrictness:
    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_message({"type": "no.such.thing", "version": 1})

    def test_version_mismatch_rejected(self):
        payload = encode_message(StepBoundary(round=1))
        payload["version"] = 99
        with pytest.raises(ProtocolError, match="schema version"):
            decode_message(payload)

    def test_unexpected_field_rejected(self):
        payload = encode_message(StepBoundary(round=1))
        payload["surprise"] = True
        with pytest.raises(ProtocolError, match="unexpected fields"):
            decode_message(payload)

    def test_non_dict_payload_rejected(self):
        with pytest.raises(ProtocolError, match="must be a dict"):
            decode_message(["not", "a", "dict"])

    def test_invalid_json_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            loads_message("{half a payload")

    def test_unknown_dispatch_command_rejected(self):
        with pytest.raises(ProtocolError, match="unknown dispatch command"):
            DispatchCommand(command="reboot")
        payload = encode_message(DispatchCommand(command="pause"))
        payload["command"] = "reboot"
        with pytest.raises(ProtocolError, match="unknown dispatch command"):
            decode_message(payload)

    def test_known_commands_all_construct(self):
        for command in DISPATCH_COMMANDS:
            assert DispatchCommand(command=command).command == command

    def test_messages_are_frozen(self):
        boundary = StepBoundary(round=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            boundary.round = 2

    def test_unregistered_message_cannot_encode(self):
        @dataclasses.dataclass(frozen=True)
        class Rogue:
            TYPE_NAME = "rogue"
            VERSION = 1

        with pytest.raises(ProtocolError, match="not a registered"):
            encode_message(Rogue())
