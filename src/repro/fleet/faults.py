"""Deterministic fault injection for fleet simulations.

Real deployments of the paper's online-IL governor do not run on pristine
hardware: performance counters drop out or saturate, devices crash and
reboot mid-trace, stragglers hang, and telemetry arrives corrupted.  This
module makes those failure modes *first-class, reproducible inputs* of a
fleet run, mirroring the scenario-engine design
(:mod:`repro.scenarios.base`):

* A :class:`FaultSpec` is a small frozen dataclass naming one fault on one
  device at one trace step — counter dropout (NaN fields), telemetry
  corruption (saturated/garbage readings), a device crash, a straggler
  stall, or an unplanned snapshot-restart.  Specs are pure data:
  serializable via ``to_dict``/:func:`fault_from_dict` and registered by
  class name, so fault campaigns can live in config files and cross
  process boundaries.
* A :class:`FaultPlan` is the immutable campaign for a whole fleet.
  :meth:`FaultPlan.generate` draws each device's fault from a **per-device
  derived RNG stream** (``derive_seed(seed, (stream, stable_name_id(name)))``
  — never built-in ``hash()``), so a device's faults depend only on the
  plan seed and its own name: adding or removing *other* devices never
  changes what happens to this one.  That independence is what makes the
  quarantine-isolation invariant provable (see
  :mod:`repro.fleet.supervisor`).

Observation faults implement :meth:`ObservationFault.corrupt`, a pure
transform of a :class:`~repro.soc.simulator.SnippetResult` that rewrites
only the *counters* (the telemetry channel) — measured energy/time are the
physical ground truth and stay intact, so a corrupted observation poisons
the learning stack, not the energy accounting.  Corrupted counters are
built through ``PerformanceCounters._from_values`` because the validating
constructor would (correctly) refuse NaN utilizations.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.soc.counters import COUNTER_NAMES, PerformanceCounters
from repro.soc.simulator import SnippetResult
from repro.utils.rng import derive_seed, make_rng, stable_name_id

#: Seed-stream key for everything :meth:`FaultPlan.generate` draws.
_FAULT_STREAM = stable_name_id("fault-plan")

#: Serialization registry: FaultSpec subclass name -> class.
_FAULT_TYPES: Dict[str, type] = {}

#: Counter fields an observation fault may touch.
_CORRUPTIBLE_FIELDS = tuple(COUNTER_NAMES) + ("execution_time_s",)


class FaultSpec(abc.ABC):
    """One named, serializable fault on one device at one trace step.

    Subclasses are frozen dataclasses whose fields are the fault's
    parameters, always including ``device`` (the target's name) and
    ``step`` (the trace cursor at which the fault fires).  ``kind``
    classifies how the supervisor injects it:

    * ``"observation"`` — corrupts the step's telemetry via
      :meth:`ObservationFault.corrupt`; the step still executes.
    * ``"crash"`` — the device dies before deciding the step and is
      quarantined.
    * ``"stall"`` — the device hangs for a number of lockstep rounds
      without making progress (flatlined log).
    * ``"restart"`` — the device reboots unexpectedly and resumes from its
      last snapshot (checksummed bytes the supervisor keeps in memory;
      only a control-plane service persists them, in its rotation file).
    """

    #: Injection category (class attribute on each subclass).
    kind: str = ""

    #: One-line human description (class attribute on each subclass).
    description: str = ""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        _FAULT_TYPES[cls.__name__] = cls

    # -- shared validation ---------------------------------------------- #
    def _validate_target(self) -> None:
        device = getattr(self, "device", "")
        step = getattr(self, "step", -1)
        if not device:
            raise ValueError(f"{type(self).__name__} needs a device name")
        if step < 0:
            raise ValueError(
                f"{type(self).__name__} step must be non-negative, got {step}"
            )

    # -- serialization --------------------------------------------------- #
    def params(self) -> Dict[str, Any]:
        """The fault's parameters as a JSON-compatible dict."""
        if not dataclasses.is_dataclass(self):
            raise TypeError("FaultSpec subclasses must be dataclasses")
        out: Dict[str, Any] = {}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, tuple):
                value = list(value)
            out[spec_field.name] = value
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Serializable description: fault type plus parameters."""
        return {"type": type(self).__name__, "params": self.params()}

    @classmethod
    def from_params(cls, params: Dict[str, Any]) -> "FaultSpec":
        """Reconstruct a fault from :meth:`params` output."""
        return cls(**params)  # type: ignore[call-arg]


class ObservationFault(FaultSpec):
    """Fault that corrupts the telemetry of an executed step."""

    kind = "observation"

    @abc.abstractmethod
    def _corrupt_counters(self, values: Dict[str, float]) -> None:
        """Rewrite the counter field dict in place."""

    def corrupt(self, result: SnippetResult) -> SnippetResult:
        """Pure transform: ``result`` with corrupted counters.

        The input is never mutated; energy/time/power stay intact (they
        are the physically measured outcome — only the counter telemetry
        channel is faulty).  The corrupted counters bypass the validating
        constructor, which would refuse exactly the values a broken sensor
        produces.
        """
        values = result.counters.as_dict()
        self._corrupt_counters(values)
        payload = dict(result.__dict__)
        payload["counters"] = PerformanceCounters._from_values(values)
        return SnippetResult._from_values(payload)


@dataclass(frozen=True)
class CounterDropout(ObservationFault):
    """Named counter fields read back as NaN (sensor dropout)."""

    device: str
    step: int
    fields: Tuple[str, ...] = ("big_cluster_utilization",
                               "little_cluster_utilization")

    description = "performance-counter fields drop out as NaN"

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields", tuple(self.fields))
        self._validate_target()
        unknown = [name for name in self.fields
                   if name not in _CORRUPTIBLE_FIELDS]
        if unknown:
            raise ValueError(
                f"unknown counter fields {unknown}; known: "
                f"{sorted(_CORRUPTIBLE_FIELDS)}"
            )
        if not self.fields:
            raise ValueError("CounterDropout needs at least one field")

    def _corrupt_counters(self, values: Dict[str, float]) -> None:
        for name in self.fields:
            values[name] = float("nan")


@dataclass(frozen=True)
class TelemetryCorruption(ObservationFault):
    """Counters arrive scaled by a garbage gain (saturated/glitched bus).

    Cycle and power counts are multiplied by ``gain``; the utilization
    fields are overwritten *with* ``gain`` (a saturated sensor pegs at its
    rail), which puts them outside ``[0, 1]`` for any ``gain > 1`` — the
    signature :meth:`~repro.soc.counters.PerformanceCounters.is_valid`
    detects.
    """

    device: str
    step: int
    gain: float = 1e6

    description = "telemetry scaled by a garbage gain / saturated sensors"

    def __post_init__(self) -> None:
        self._validate_target()
        if not self.gain > 1.0:
            raise ValueError(
                f"gain must exceed 1 (got {self.gain}); smaller gains are "
                "indistinguishable from measurement noise"
            )

    def _corrupt_counters(self, values: Dict[str, float]) -> None:
        values["cpu_cycles"] *= self.gain
        values["total_chip_power_w"] *= self.gain
        values["big_cluster_utilization"] = self.gain
        values["little_cluster_utilization"] = self.gain


@dataclass(frozen=True)
class DeviceCrash(FaultSpec):
    """The device dies just before deciding step ``step``."""

    device: str
    step: int

    kind = "crash"
    description = "device crashes before deciding the step"

    def __post_init__(self) -> None:
        self._validate_target()


@dataclass(frozen=True)
class StragglerStall(FaultSpec):
    """The device hangs for ``rounds`` lockstep rounds at step ``step``.

    Its log flatlines while the rest of the fleet advances — the signature
    the supervisor's watchdog detects.
    """

    device: str
    step: int
    rounds: int = 6

    kind = "stall"
    description = "device hangs; log flatlines for N lockstep rounds"

    def __post_init__(self) -> None:
        self._validate_target()
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")


@dataclass(frozen=True)
class SnapshotRestart(FaultSpec):
    """The device reboots at step ``step`` and resumes from its snapshot."""

    device: str
    step: int

    kind = "restart"
    description = "unplanned reboot; device resumes from its last snapshot"

    def __post_init__(self) -> None:
        self._validate_target()


def fault_from_dict(payload: Dict[str, Any]) -> FaultSpec:
    """Inverse of :meth:`FaultSpec.to_dict` (registry-dispatched)."""
    try:
        spec_type = payload["type"]
        params = dict(payload.get("params", {}))
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed fault payload: {payload!r}") from exc
    if spec_type not in _FAULT_TYPES:
        raise KeyError(
            f"unknown fault type {spec_type!r}; known: {sorted(_FAULT_TYPES)}"
        )
    cls = _FAULT_TYPES[spec_type]
    return cls.from_params(params)


#: Kinds :meth:`FaultPlan.generate` draws from, in a fixed order (the order
#: is part of the deterministic contract — reordering would change every
#: generated plan).
_GENERATED_KINDS: Tuple[str, ...] = (
    "dropout", "corruption", "crash", "stall", "restart",
)


@dataclass(frozen=True)
class FaultPlan:
    """Immutable fault campaign for one fleet run.

    ``faults`` is the full fleet-wide fault list; ``seed`` records the
    generation seed (informational for hand-built plans).  Plans are pure
    data: two plans generated from the same ``(device_names, fault_rate,
    seed, horizon)`` are equal.
    """

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __len__(self) -> int:
        return len(self.faults)

    def device_names(self) -> List[str]:
        """Names of all faulted devices, sorted."""
        return sorted({fault.device for fault in self.faults})

    def for_device(self, name: str) -> Tuple[FaultSpec, ...]:
        """This device's faults, ordered by firing step."""
        return tuple(sorted(
            (fault for fault in self.faults if fault.device == name),
            key=lambda fault: fault.step,
        ))

    # -- generation ------------------------------------------------------ #
    @classmethod
    def generate(
        cls,
        device_names: Any,
        fault_rate: float,
        seed: int = 0,
        horizon: int = 20,
    ) -> "FaultPlan":
        """Draw one fault per device with probability ``fault_rate``.

        Every device's draw comes from its own derived stream
        (``derive_seed(seed, (_FAULT_STREAM, stable_name_id(name)))``), so
        whether/what/when a device faults depends only on ``seed`` and its
        name — never on the rest of the fleet.  ``horizon`` bounds the
        firing step to ``[1, horizon)`` (step 0 is excluded so every device
        observes at least one healthy step and the baseline snapshot is
        meaningful).
        """
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError(
                f"fault_rate must be within [0, 1], got {fault_rate}"
            )
        if horizon < 2:
            raise ValueError(f"horizon must be >= 2, got {horizon}")
        faults: List[FaultSpec] = []
        for name in device_names:
            rng = make_rng(derive_seed(
                seed, (_FAULT_STREAM, stable_name_id(name))
            ))
            # Fixed draw order per device: gate, kind, step, parameters.
            gate = float(rng.random())
            kind = _GENERATED_KINDS[int(rng.integers(len(_GENERATED_KINDS)))]
            step = int(rng.integers(1, horizon))
            if gate >= fault_rate:
                continue
            if kind == "dropout":
                faults.append(CounterDropout(device=name, step=step))
            elif kind == "corruption":
                faults.append(TelemetryCorruption(device=name, step=step))
            elif kind == "crash":
                faults.append(DeviceCrash(device=name, step=step))
            elif kind == "stall":
                rounds = int(rng.integers(2, 9))
                faults.append(StragglerStall(device=name, step=step,
                                             rounds=rounds))
            else:
                faults.append(SnapshotRestart(device=name, step=step))
        return cls(faults=tuple(faults), seed=int(seed))
