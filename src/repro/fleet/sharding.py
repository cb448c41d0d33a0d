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
* **No per-step traffic** — each child builds its shard's engine itself,
  step tensors included (noise drawn from the child's copy of each
  device's generator, exactly as the single-process engine draws it).
  A forked child inherits its devices; where fork is unavailable the
  same arguments are pickled.  The pipe carries only the handshake and
  the final summaries.
* **O(devices) fleet memory** — ``collect="summaries"`` replaces each
  child session's :class:`~repro.utils.records.RunLog` with a
  streaming accumulator (:class:`_StreamingRunLog`) holding a constant
  number of scalars per device, and discards the per-step
  ``SnippetResult`` objects, so shard memory never grows with the trace
  length.  ``collect="logs"`` returns full column-oriented log dicts for
  the equivalence suites.

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

from repro.fleet.device import DeviceSpec, build_fleet, warn_rng_hazards
from repro.soc.configuration import ConfigurationSpace
from repro.soc.simulator import SoCSimulator

#: Accuracy smoothing window mirrored from ``PolicyRunResult.final_accuracy``.
_ACCURACY_WINDOW = 10

# Fork keeps child start cheap: the child inherits the imported modules
# and its devices.  Elsewhere the platform default pickles the same
# arguments (the shard's devices, simulator and base space).
if "fork" in multiprocessing.get_all_start_methods():
    _MP = multiprocessing.get_context("fork")
else:  # pragma: no cover - non-fork platforms
    _MP = multiprocessing.get_context()


# --------------------------------------------------------------------- #
# Streaming per-session accumulators (collect="summaries")
# --------------------------------------------------------------------- #
class _DiscardList(list):
    """List stand-in that drops appends (bounds live objects per step)."""

    __slots__ = ()

    def append(self, item: Any) -> None:
        pass

    def extend(self, items: Any) -> None:
        pass


class _StreamingRunLog:
    """O(1)-memory ``RunLog`` stand-in for summary-mode shard children.

    Implements exactly the surface :meth:`~repro.core.session
    .PolicySession.observe` touches (``append_record``/``len``) while
    accumulating the three log-derived summary statistics:

    * ``len(log)`` — a running count.
    * ``throttled_steps`` — a running sum of the 0/1 ``throttled``
      column; 0/1 sums are exact integers in float64, so the total is
      bitwise equal to ``np.nansum`` over the materialised column.
    * ``final_accuracy`` — the last element of ``trailing_nanmean(
      oracle_match, window) * 100``.  The trailing window only ever needs
      the last ``window`` values; for a 0/1 indicator series the window
      sum and count are exact integers, so summing the retained tail
      reproduces the cumsum-difference arithmetic bitwise.
    """

    __slots__ = ("count", "throttled_sum", "window", "tail", "any_match")

    def __init__(self, window: int = _ACCURACY_WINDOW) -> None:
        self.count = 0
        self.throttled_sum = 0.0
        self.window = window
        self.tail: List[float] = []
        self.any_match = False

    def append_record(self, record: Any) -> Any:
        self.count += 1
        values = record.values
        throttled = values.get("throttled")
        if throttled is not None and throttled == throttled:
            self.throttled_sum += throttled
        match = values.get("oracle_match", float("nan"))
        if match == match:
            self.any_match = True
        tail = self.tail
        tail.append(match)
        if len(tail) > self.window:
            del tail[0]
        return record

    def __len__(self) -> int:
        return self.count

    def final_accuracy(self) -> float:
        """Mirror of ``trailing_nanmean(matches, window)[-1] * 100``."""
        total = 0.0
        count = 0
        for value in self.tail:
            if value == value:
                total += value
                count += 1
        if count == 0:
            return float("nan")
        return (total / count) * 100.0


# --------------------------------------------------------------------- #
# Per-device summaries streamed back from the shards
# --------------------------------------------------------------------- #
@dataclass
class ShardDeviceSummary:
    """One device's aggregate outcome, streamed back from its shard.

    Every field is bitwise identical to what the single-process engine's
    :class:`~repro.core.framework.PolicyRunResult` would yield: the
    totals come from the same :class:`~repro.soc.energy.EnergyAccount`
    accumulation, ``final_accuracy`` from the streaming twin of the
    trailing-window smoothing, and :attr:`normalized_energy` applies the
    same guard/arithmetic.  ``log`` carries the full column-oriented log
    dict under ``collect="logs"`` (``None`` in summary mode).
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

    @property
    def normalized_energy(self) -> float:
        if self.oracle_energy_j is None or self.oracle_energy_j <= 0:
            raise ValueError("Oracle energy not available for normalisation")
        return self.total_energy_j / self.oracle_energy_j


# --------------------------------------------------------------------- #
# Child side
# --------------------------------------------------------------------- #
def _prepare_shard(devices: Sequence[DeviceSpec], simulator: SoCSimulator,
                   base_space: ConfigurationSpace,
                   collect: str) -> Dict[str, Any]:
    """Build one shard's engine inside the child (the ``ready`` phase)."""
    engine = build_fleet(devices, simulator, base_space, validate=False)
    sessions = engine.sessions
    streams: List[Optional[_StreamingRunLog]] = [None] * len(sessions)
    if collect == "summaries":
        for row, session in enumerate(sessions):
            stream = _StreamingRunLog()
            session.log = stream
            session.results = _DiscardList()
            # total_energy_j / total_time_s / per-application sums stay
            # eagerly accumulated; only the per-component decomposition
            # (unused by summaries) loses its retained results.
            session.account._results = _DiscardList()
            streams[row] = stream
    engine.prepare()
    return {"engine": engine, "collect": collect, "streams": streams}


def _run_shard(pending: Dict[str, Any]) -> Dict[str, Any]:
    """Drive one prepared shard to completion (the ``go`` phase)."""
    engine = pending["engine"]
    collect = pending["collect"]
    summaries: List[Dict[str, Any]] = []
    if collect == "summaries":
        # Live objects per step are bounded (results discarded, log
        # streamed), so reference counting alone reclaims everything and
        # the cycle collector's periodic scans are pure overhead.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while not engine.done:
                engine.step()
        finally:
            if gc_was_enabled:
                gc.enable()
        for session, stream in zip(engine.sessions, pending["streams"]):
            summaries.append({
                "name": session.name,
                "policy_name": session.policy.name,
                "steps": len(stream),
                "throttled_steps": int(stream.throttled_sum),
                "total_energy_j": session.account.total_energy_j,
                "total_time_s": session.account.total_time_s,
                "oracle_energy_j": (session.oracle_energy
                                    if session.oracle_table is not None
                                    else None),
                "final_accuracy": stream.final_accuracy(),
                "log": None,
            })
    else:
        runs = engine.run()
        for session, run in zip(engine.sessions, runs):
            matches = run.log.column("oracle_match")
            has_matches = bool(np.any(~np.isnan(matches)))
            throttled = run.log.column("throttled", default=0.0)
            summaries.append({
                "name": session.name,
                "policy_name": run.policy_name,
                "steps": len(run.log),
                "throttled_steps": int(np.nansum(throttled)),
                "total_energy_j": run.total_energy_j,
                "total_time_s": run.total_time_s,
                "oracle_energy_j": run.oracle_energy_j,
                "final_accuracy": (run.final_accuracy()
                                   if has_matches else float("nan")),
                "log": run.log.to_dict(),
            })
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
        pending = _prepare_shard(devices, simulator, base_space, collect)
    except Exception:
        conn.send(("error", traceback.format_exc()))
        return
    conn.send(("ready",))
    conn.recv()  # ("go",)
    try:
        reply = ("done", _run_shard(pending))
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
    until every one has built its engine (step tensors built, noise
    streams positioned); :meth:`execute` then sends the start signal,
    gathers the results and reaps the children, so a benchmark can time
    pure lockstep stepping.  :meth:`run` is simply both.

    ``collect="summaries"`` (default) streams back one
    :class:`ShardDeviceSummary` per device — O(devices) memory
    fleet-wide.  ``collect="logs"`` additionally materialises each
    device's full log columns (equivalence suites only; memory grows
    with trace length again).
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
        # The children's own build_fleet warnings never reach the caller.
        warn_rng_hazards(self.devices, simulator)
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
                summaries.extend(
                    ShardDeviceSummary(**device)
                    for device in shard["devices"]
                )
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
