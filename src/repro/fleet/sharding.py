"""Process-sharded fleet engine: one child process per shard.

:class:`ShardedFleetEngine` partitions a fleet's :class:`~repro.fleet
.device.DeviceSpec` list into contiguous shards and drives each shard's
:class:`~repro.fleet.engine.FleetEngine` inside a child process started
for that engine.  The design goals, in order:

* **Bitwise equivalence** — every per-device log/summary value is
  identical to the single-process :class:`~repro.fleet.engine
  .FleetEngine`, and therefore invariant to the shard count.  This falls
  out of the per-device equivalence contract: the engine already proves
  a lockstep fleet equals ``N`` sequential runs, sessions share no
  mutable state across shard boundaries (the fleet grouping layer keys
  on *content*, never on process-local ``id()`` values), and each
  device's noise stream is a pure function of its own generator state.
* **No per-step traffic** — each child builds its shard's sessions and
  engine itself, step tensors included (each session draws its noise
  from the child's copy of its device's generator, exactly as a
  single-process session draws it).
  A forked child inherits its devices; where fork is unavailable the
  same arguments are pickled.  The pipe carries only the handshake and
  the final summaries.
* **Summaries or logs** — a child builds every device's
  :class:`ShardDeviceSummary` from the session's own
  :class:`~repro.core.framework.PolicyRunResult` with
  :meth:`ShardDeviceSummary.from_run`, which in-process callers use
  too.  ``collect="summaries"`` sends back only those aggregates;
  ``collect="logs"`` adds each device's full column-oriented log dict
  for the equivalence suites.

Protocol (two-phase, so benchmarks can time pure stepping): ``prepare()``
starts one child per shard, each child builds its engine and answers
``("ready",)``; ``execute()`` sends ``("go",)`` to every child, gathers
``("done", results)`` and reaps the children, which exit after replying.
A child that fails replies ``("error", traceback)``; one that dies
reads as end-of-file.  Both raise :class:`ShardExecutionError`.
"""

from __future__ import annotations

import gc
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import multiprocessing
import numpy as np

from repro.core.framework import PolicyRunResult
from repro.fleet.device import (DeviceSpec, build_fleet,
                                check_private_generators)
from repro.fleet.engine import FleetEngine
from repro.soc.configuration import ConfigurationSpace
from repro.soc.simulator import SoCSimulator

# Fork keeps child start cheap: the child inherits the imported modules
# and its devices.  Elsewhere the platform default pickles the same
# arguments (the shard's devices, simulator and base space).
if "fork" in multiprocessing.get_all_start_methods():
    _MP = multiprocessing.get_context("fork")
else:  # pragma: no cover - non-fork platforms
    _MP = multiprocessing.get_context()


# --------------------------------------------------------------------- #
# Per-device summaries streamed back from the shards
# --------------------------------------------------------------------- #
@dataclass
class ShardDeviceSummary:
    """One device's aggregate outcome, streamed back from its shard.

    Every field is what the single-process engine's
    :class:`~repro.core.framework.PolicyRunResult` yields for the device
    (:meth:`from_run` makes every summary, in a shard child or in-process),
    and :attr:`normalized_energy` applies the same guard/arithmetic.
    ``log`` carries :meth:`~repro.utils.records.RunLog.to_dict` — the
    ``step`` key plus every column — under ``collect="logs"`` (``None``
    in summary mode).
    """

    name: str
    policy_name: str
    steps: int
    throttled_steps: int
    total_energy_j: float
    total_time_s: float
    oracle_energy_j: Optional[float]
    final_accuracy: float
    log: Optional[Dict[str, List[float]]] = None

    @classmethod
    def from_run(cls, name: str, run: PolicyRunResult) -> "ShardDeviceSummary":
        """Summarize device ``name``'s run (``log`` left ``None``).

        ``final_accuracy`` is NaN for a run with no Oracle match at all.
        """
        has_matches = not np.all(np.isnan(run.log.column("oracle_match")))
        return cls(
            name=name,
            policy_name=run.policy_name,
            steps=len(run.log),
            throttled_steps=int(run.log.column("throttled").sum()),
            total_energy_j=run.total_energy_j,
            total_time_s=run.total_time_s,
            oracle_energy_j=run.oracle_energy_j,
            final_accuracy=(run.final_accuracy()
                            if has_matches else float("nan")),
        )

    @property
    def normalized_energy(self) -> float:
        if self.oracle_energy_j is None or self.oracle_energy_j <= 0:
            raise ValueError("Oracle energy not available for normalisation")
        return self.total_energy_j / self.oracle_energy_j


# --------------------------------------------------------------------- #
# Child side
# --------------------------------------------------------------------- #
def _run_shard(engine: FleetEngine, collect: str) -> Dict[str, Any]:
    """Drive one prepared shard to completion (the ``go`` phase)."""
    # The child exits after its reply, so the cycle collector's periodic
    # scans over the growing logs are pure overhead: whatever stepping
    # leaves behind goes with the process.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        runs = engine.run()
    finally:
        if gc_was_enabled:
            gc.enable()
    summaries: List[ShardDeviceSummary] = []
    for session, run in zip(engine.sessions, runs):
        summary = ShardDeviceSummary.from_run(session.name, run)
        if collect == "logs":
            summary.log = run.log.to_dict()
        summaries.append(summary)
    return {
        "devices": summaries,
        "steps_executed": engine.steps_executed,
        "batched_decisions": engine.batched_decisions,
        "batched_executions": engine.batched_executions,
        "batched_observes": engine.batched_observes,
    }


def _shard_main(conn, devices: Sequence[DeviceSpec],
                simulator: SoCSimulator, base_space: ConfigurationSpace,
                collect: str) -> None:
    """Child process: build the shard's engine, step it on ``go``, reply."""
    try:
        engine = build_fleet(devices, simulator, base_space)
    except Exception:
        conn.send(("error", traceback.format_exc()))
        return
    conn.send(("ready",))
    conn.recv()  # ("go",)
    try:
        reply = ("done", _run_shard(engine, collect))
    except Exception:
        reply = ("error", traceback.format_exc())
    conn.send(reply)


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #
class ShardExecutionError(RuntimeError):
    """A shard child raised (the message carries its traceback) or died."""


def _reply(process, conn) -> Tuple:
    """One child's next reply; a failed or dead child raises."""
    try:
        reply = conn.recv()
    except EOFError:
        # The child held the only other end of this pipe, so EOF means
        # it exited.
        process.join()
        raise ShardExecutionError(
            f"shard process {process.name} exited with code "
            f"{process.exitcode} before replying"
        ) from None
    if reply[0] == "error":
        raise ShardExecutionError(f"shard failed:\n{reply[1]}")
    return reply


class ShardedFleetEngine:
    """Drive a device fleet as contiguous shards, one child process each.

    The device list is split into ``n_shards`` contiguous blocks
    (``numpy.array_split`` semantics: sizes differ by at most one) and
    each block runs a full :class:`~repro.fleet.engine.FleetEngine`
    inside a child process of this engine.  Results come back in device
    order and are bitwise identical to the single-process engine for any
    shard count — see the module docstring for why.

    Two-phase driving: :meth:`prepare` starts the children and waits
    until every one has built its engine (noise drawn, step tensors
    built); :meth:`execute` then sends the start signal,
    gathers the results and reaps the children, so a benchmark can time
    pure lockstep stepping.  :meth:`run` is simply both.

    ``collect="summaries"`` (default) sends back one
    :class:`ShardDeviceSummary` per device.  ``collect="logs"``
    additionally sends each device's full log columns (equivalence
    suites).
    """

    def __init__(
        self,
        devices: Sequence[DeviceSpec],
        simulator: SoCSimulator,
        base_space: ConfigurationSpace,
        n_shards: int = 2,
        collect: str = "summaries",
    ) -> None:
        if collect not in ("summaries", "logs"):
            raise ValueError(
                f"collect must be 'summaries' or 'logs', got {collect!r}"
            )
        self.devices = list(devices)
        if not self.devices:
            raise ValueError("ShardedFleetEngine needs at least one device")
        n_shards = int(n_shards)
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = min(n_shards, len(self.devices))
        self.simulator = simulator
        self.base_space = base_space
        self.collect = collect
        # Each child checks only its own shard, and a generator shared
        # across shards would be drawn from one copy per child.
        check_private_generators(self.devices, simulator)
        # Contiguous partition (device order preserved, numpy.array_split
        # sizing: the first n % k shards get one extra device), so
        # concatenating shard outputs restores fleet order.
        n, k = len(self.devices), self.n_shards
        self.shard_bounds: List[Tuple[int, int]] = []
        lo = 0
        for shard in range(k):
            hi = lo + n // k + (1 if shard < n % k else 0)
            self.shard_bounds.append((lo, hi))
            lo = hi
        #: ``(process, connection)`` of each started child, until reaped.
        self._children: Optional[List[Tuple[Any, Any]]] = None
        # Fleet-wide aggregates, populated by execute().
        self.steps_executed = 0
        self.batched_decisions = 0
        self.batched_executions = 0
        self.batched_observes = 0

    # ------------------------------------------------------------------ #
    def prepare(self) -> None:
        """Start one child per shard and wait until all engines stand ready."""
        if self._children is not None:
            return
        self._children = []
        try:
            for lo, hi in self.shard_bounds:
                conn, child_conn = _MP.Pipe()
                process = _MP.Process(
                    target=_shard_main,
                    args=(child_conn, self.devices[lo:hi], self.simulator,
                          self.base_space, self.collect),
                    daemon=True, name=f"fleet-shard-{lo}-{hi}",
                )
                self._children.append((process, conn))
                process.start()
                # Only the child keeps this end, so its death reads as
                # EOF here, and later children do not inherit it.
                child_conn.close()
            for process, conn in self._children:
                _reply(process, conn)
        except BaseException:
            self.close()
            raise

    def execute(self) -> List[ShardDeviceSummary]:
        """Start every prepared shard and gather per-device summaries."""
        if self._children is None:
            raise RuntimeError("call prepare() before execute()")
        summaries: List[ShardDeviceSummary] = []
        try:
            for process, conn in self._children:
                try:
                    conn.send(("go",))
                except BrokenPipeError:  # a dead child reads as EOF below
                    pass
            for process, conn in self._children:
                shard = _reply(process, conn)[1]
                self.steps_executed += shard["steps_executed"]
                self.batched_decisions += shard["batched_decisions"]
                self.batched_executions += shard["batched_executions"]
                self.batched_observes += shard["batched_observes"]
                summaries.extend(shard["devices"])
        except BaseException:
            self.close()
            raise
        children, self._children = self._children, None
        for process, conn in children:  # each exits after its reply
            process.join()
            conn.close()
        return summaries

    def run(self) -> List[ShardDeviceSummary]:
        """Prepare and execute every shard; results in device order."""
        self.prepare()
        return self.execute()

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Kill and reap the children of an engine that did not execute.

        A prepared child waits for ``go``.  Closing the parent's end of
        its pipe would not reach it as EOF: forked children hold copies
        of that end (the child itself, and every later child), so the
        children are killed instead.  Idempotent; a no-op after
        :meth:`execute`.
        """
        children, self._children = self._children, None
        for process, conn in children or ():
            if process.pid is not None:  # started
                process.kill()
                process.join()
            conn.close()

    def __enter__(self) -> "ShardedFleetEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
