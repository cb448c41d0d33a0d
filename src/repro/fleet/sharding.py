"""Process-sharded fleet engine: lockstep fleets across a worker pool.

:class:`ShardedFleetEngine` partitions a fleet's :class:`~repro.fleet
.device.DeviceSpec` list into contiguous shards and drives each shard's
:class:`~repro.fleet.engine.FleetEngine` inside a persistent worker
process.  The design goals, in order:

* **Bitwise equivalence** — every per-device log/summary value is
  identical to the single-process :class:`~repro.fleet.engine
  .FleetEngine`, and therefore invariant to the shard count.  This falls
  out of the per-device equivalence contract: the engine already proves
  a lockstep fleet equals ``N`` sequential runs, sessions share no
  mutable state across shard boundaries (the fleet grouping layer keys
  on *content*, never on process-local ``id()`` values), and each
  device's noise stream is a pure function of its own generator state.
* **No per-step pickling traffic** — the padded per-shard char/noise
  step tensors are built once in the parent (noise drawn from a *clone*
  of each device's generator state, exactly the draws the worker-side
  pre-draw would produce) and shipped through
  ``multiprocessing.shared_memory``; the pipe carries only the one-time
  device bundle and the final aggregates.
* **O(devices) fleet memory** — ``collect="summaries"`` replaces each
  worker session's :class:`~repro.utils.records.RunLog` with a
  streaming accumulator (:class:`_StreamingRunLog`) holding a constant
  number of scalars per device, and discards the per-step
  ``SnippetResult`` objects, so shard memory never grows with the trace
  length.  ``collect="logs"`` returns full column-oriented log dicts for
  the equivalence suites.

Worker pool protocol (two-phase, so benchmarks can time pure stepping):
the parent sends ``("run", payload)`` to one idle worker per shard, each
worker builds its engine (adopting the shared-memory step tensors) and
answers ``("ready",)``; the parent then broadcasts ``("go",)`` and
gathers ``("done", results)``.  Workers are daemon processes reused
across engines and shut down atexit (or via :func:`shutdown_workers`).
"""

from __future__ import annotations

import atexit
import gc
import traceback
import warnings
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import multiprocessing
import numpy as np

from repro.fleet.device import DeviceSpec, FleetBuildWarning, build_fleet
from repro.fleet.kernels import TRACE_COLUMNS, TraceArrays
from repro.soc.configuration import ConfigurationSpace
from repro.soc.simulator import SoCSimulator
from repro.utils.rng import make_rng

try:  # pragma: no cover - platform capability probe
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None  # type: ignore[assignment]

#: Accuracy smoothing window mirrored from ``PolicyRunResult.final_accuracy``.
_ACCURACY_WINDOW = 10

# Fork keeps worker start cheap and inherits the imported modules; fall
# back to the platform default where fork is unavailable (the payload is
# fully picklable either way).
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
    """O(1)-memory ``RunLog`` stand-in for summary-mode shard workers.

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
# Worker side
# --------------------------------------------------------------------- #
def _attach_shared_memory(name: str):
    """Attach a shared-memory block without resource-tracker ownership.

    The parent owns the block's lifetime (it calls ``unlink``); the
    worker only attaches, copies and closes.  Before Python 3.13 (no
    ``track=False``) attaching still registers the block with a resource
    tracker, which needs undoing — but only when the worker has its *own*
    tracker: forked workers share the parent's tracker process, where the
    attach-register is a no-op (same set entry) and an unregister here
    would strip the parent's registration before its ``unlink``.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        shm = shared_memory.SharedMemory(name=name)
        if _MP.get_start_method() != "fork":  # pragma: no cover - spawn
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        return shm


def _prepare_shard(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Build one shard's engine inside the worker (the ``ready`` phase)."""
    base_space, simulator, devices = payload["bundle"]
    collect = payload["collect"]
    engine = build_fleet(devices, simulator, base_space, validate=False)
    sessions = engine.sessions
    if payload["shm"] is not None:
        name, m, t_max, has_noise = payload["shm"]
        shm = _attach_shared_memory(name)
        try:
            chars_view = np.ndarray(
                (m, t_max, len(TRACE_COLUMNS)), dtype=np.float64,
                buffer=shm.buf,
            )
            chars = chars_view.copy()
            noise = None
            if has_noise:
                noise_view = np.ndarray(
                    (m, t_max, 2), dtype=np.float64, buffer=shm.buf,
                    offset=chars_view.nbytes,
                )
                noise = noise_view.copy()
        finally:
            shm.close()
        # The preset only activates when one exec group adopts exactly
        # every session in order (the common all-batchable shard); any
        # other grouping misses the key and the engine rebuilds its own
        # tensors from the live sessions — bitwise identical, just
        # without the shared-memory shortcut.
        engine._exec_presets[tuple(range(len(sessions)))] = (chars, noise)
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


def _worker_main(conn) -> None:
    """Persistent worker loop: run shards until told to exit."""
    while True:
        try:
            message = conn.recv()
        except EOFError:  # parent went away
            return
        if message[0] == "exit":
            conn.close()
            return
        if message[0] != "run":  # pragma: no cover - protocol guard
            conn.send(("error", f"unexpected command {message[0]!r}"))
            continue
        try:
            pending = _prepare_shard(message[1])
        except Exception:
            conn.send(("error", traceback.format_exc()))
            continue
        conn.send(("ready",))
        go = conn.recv()
        if go[0] == "exit":
            conn.close()
            return
        try:
            conn.send(("done", _run_shard(pending)))
        except Exception:
            conn.send(("error", traceback.format_exc()))
        del pending


# --------------------------------------------------------------------- #
# Parent side: the persistent worker pool
# --------------------------------------------------------------------- #
class _Worker:
    __slots__ = ("process", "conn")

    def __init__(self) -> None:
        # Start the parent's resource tracker BEFORE forking: a worker
        # forked earlier would lazily spawn its own private tracker on
        # its first shared-memory attach, which then "owns" every name
        # the worker ever attaches and warns about phantom leaks when
        # the worker dies.  With the tracker pre-started, forked workers
        # inherit its fd: their attach-registers are set no-ops and the
        # parent's unlink unregisters cleanly.
        try:  # pragma: no branch
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker internals moved
            pass
        parent_conn, child_conn = _MP.Pipe()
        self.process = _MP.Process(
            target=_worker_main, args=(child_conn,),
            daemon=True, name="fleet-shard-worker",
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self) -> None:
        try:
            if self.alive:
                self.conn.send(("exit",))
                self.process.join(timeout=2.0)
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.conn.close()


_POOL: List[_Worker] = []

#: Every parent-created shared-memory block still mapped, process-wide.
#: Engines register blocks here so the atexit sweep can unlink anything a
#: failed/interrupted engine left behind — no stale ``/dev/shm`` segment
#: survives a normal interpreter exit, however abnormal the control flow.
_LIVE_SHARED: List[Any] = []


def _acquire_workers(n: int) -> List[_Worker]:
    """Return ``n`` live pool workers, replacing any that died."""
    for i, worker in enumerate(_POOL):
        if not worker.alive:  # pragma: no cover - crashed worker
            _POOL[i] = _Worker()
    while len(_POOL) < n:
        _POOL.append(_Worker())
    return _POOL[:n]


def _retire_workers(workers: Sequence["_Worker"]) -> None:
    """Stop ``workers`` and drop them from the pool.

    Used on every error path: a worker whose pipe may hold an undrained
    reply (or that is blocked waiting for a ``go`` that will never come)
    must not be handed to the next engine — its next ``recv`` would
    return a stale message from the aborted run.  Fresh workers are
    re-spawned on demand.
    """
    for worker in workers:
        worker.stop()
        try:
            _POOL.remove(worker)
        except ValueError:  # pragma: no cover - already gone
            pass


def _release_leaked_shared() -> None:
    """Unlink any shared-memory block an aborted engine left mapped."""
    while _LIVE_SHARED:
        block = _LIVE_SHARED.pop()
        try:
            block.close()
            block.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass


def shutdown_workers() -> None:
    """Stop every pooled shard worker (idempotent; re-spawned on demand)."""
    while _POOL:
        _POOL.pop().stop()


def _atexit_teardown() -> None:  # pragma: no cover - exercised in subprocess
    shutdown_workers()
    _release_leaked_shared()


atexit.register(_atexit_teardown)


class ShardExecutionError(RuntimeError):
    """A shard worker failed; carries the worker-side traceback."""


def _device_trace(device: DeviceSpec) -> Sequence:
    return (device.scenario.snippets if device.scenario is not None
            else device.snippets)


def _build_shard_preset(
    devices: Sequence[DeviceSpec],
    simulator: SoCSimulator,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Padded (chars, noise) step tensors of one shard, parent-side.

    ``chars`` is exactly what the shard engine's ``_ExecGroup`` would
    build from its sessions; ``noise`` rows are drawn from a *clone* of
    each device's generator state — the same two normals per step, in
    the same order, exponentiated the same way — so the worker can adopt
    the tensors and advance the real generators past the identical
    draws.  Devices without a private generator keep all-ones noise
    rows; they can never be adopted for batched execution, so those rows
    are never gathered.
    """
    traces = [TraceArrays(_device_trace(device)) for device in devices]
    t_max = max(len(trace) for trace in traces)
    chars = np.zeros((len(devices), t_max, len(TRACE_COLUMNS)))
    for row, trace in enumerate(traces):
        chars[row, :len(trace)] = trace.matrix
    noise_scale = simulator.noise_scale
    if noise_scale == 0.0:
        return chars, None
    noise = np.ones((len(devices), t_max, 2))
    for row, (device, trace) in enumerate(zip(devices, traces)):
        rng = device.rng
        if rng is None:
            if device.seed is None:
                continue
            rng = make_rng(device.seed)
        bit_generator = type(rng.bit_generator)()
        bit_generator.state = rng.bit_generator.state
        clone = np.random.Generator(bit_generator)
        noise[row, :len(trace)] = np.exp(
            clone.normal(0.0, noise_scale, size=(len(trace), 2))
        )
    return chars, noise


def _warn_shard_hazards(devices: Sequence[DeviceSpec],
                        simulator: SoCSimulator) -> None:
    """Parent-side twin of the RNG-independence checks in build_fleet.

    Worker-process warnings never reach the caller, so the generator
    hazards are re-checked on the specs before dispatch.  (The
    scalar-execution-fallback warning needs live sessions and stays a
    worker-side concern.)
    """
    shared: Dict[Any, List[str]] = {}
    unseeded: List[str] = []
    aliased: List[str] = []
    for device in devices:
        if device.rng is None and device.seed is None:
            unseeded.append(device.name)
        elif device.rng is not None:
            shared.setdefault(device.rng, []).append(device.name)
            if device.rng is simulator.rng:
                aliased.append(device.name)
    for names in shared.values():
        if len(names) > 1:
            warnings.warn(
                f"fleet devices {names} share one measurement-noise "
                "generator: sharded results will not be bitwise identical "
                "to sequential runs — give each device its own seed/rng",
                FleetBuildWarning, stacklevel=3,
            )
    if aliased:
        warnings.warn(
            f"fleet devices {aliased} use the simulator's own noise "
            "generator: sequential equivalence is lost — give each "
            "device a private seed/rng",
            FleetBuildWarning, stacklevel=3,
        )
    if unseeded:
        warnings.warn(
            f"fleet devices {unseeded} have no private noise generator "
            "(no seed/rng): they draw measurement noise from the "
            "simulator's shared stream and execute scalar — give each "
            "device its own seed",
            FleetBuildWarning, stacklevel=3,
        )


class ShardedFleetEngine:
    """Drive a device fleet as contiguous shards on a worker pool.

    The device list is split into ``n_shards`` contiguous blocks
    (``numpy.array_split`` semantics: sizes differ by at most one) and
    each block runs a full :class:`~repro.fleet.engine.FleetEngine`
    inside a pooled worker process.  Results come back in device order
    and are bitwise identical to the single-process engine for any shard
    count — see the module docstring for why.

    Two-phase driving: :meth:`prepare` ships the shards and waits until
    every worker has built its engine (shared-memory step tensors
    adopted, noise streams positioned); :meth:`execute` then broadcasts
    the start signal and gathers the results, so a benchmark can time
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
        validate: bool = True,
    ) -> None:
        if shared_memory is None:  # pragma: no cover - exotic platform
            raise RuntimeError(
                "multiprocessing.shared_memory is unavailable on this "
                "platform; use the single-process FleetEngine"
            )
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
        if validate:
            _warn_shard_hazards(self.devices, simulator)
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
        self._workers: Optional[List[_Worker]] = None
        self._shared: List[Any] = []
        # Fleet-wide aggregates, populated by execute().
        self.steps_executed = 0
        self.batched_decisions = 0
        self.batched_executions = 0
        self.batched_observes = 0

    # ------------------------------------------------------------------ #
    def _ship_shard(self, worker: _Worker, lo: int, hi: int) -> None:
        shard_devices = self.devices[lo:hi]
        chars, noise = _build_shard_preset(shard_devices, self.simulator)
        size = chars.nbytes + (noise.nbytes if noise is not None else 0)
        block = shared_memory.SharedMemory(create=True, size=size)
        self._shared.append(block)
        _LIVE_SHARED.append(block)
        chars_view = np.ndarray(chars.shape, dtype=np.float64,
                                buffer=block.buf)
        chars_view[:] = chars
        if noise is not None:
            noise_view = np.ndarray(noise.shape, dtype=np.float64,
                                    buffer=block.buf, offset=chars.nbytes)
            noise_view[:] = noise
        worker.conn.send(("run", {
            # One bundle tuple so pickling preserves the shared object
            # graph (policy.space is base_space, shared oracle spaces...)
            # inside the worker exactly as it holds in this process.
            "bundle": (self.base_space, self.simulator, shard_devices),
            "collect": self.collect,
            "shm": (block.name, len(shard_devices), chars.shape[1],
                    noise is not None),
        }))

    def _release_shared(self) -> None:
        while self._shared:
            block = self._shared.pop()
            try:
                _LIVE_SHARED.remove(block)
            except ValueError:  # pragma: no cover - atexit sweep got it
                pass
            try:
                block.close()
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def prepare(self) -> None:
        """Dispatch every shard and wait until all engines stand ready."""
        if self._workers is not None:
            return
        workers = _acquire_workers(self.n_shards)
        try:
            for worker, (lo, hi) in zip(workers, self.shard_bounds):
                self._ship_shard(worker, lo, hi)
            for worker in workers:
                reply = worker.conn.recv()
                if reply[0] == "error":
                    raise ShardExecutionError(
                        f"shard preparation failed:\n{reply[1]}"
                    )
        except BaseException:
            # Any failure (a shard error, KeyboardInterrupt mid-recv, a
            # broken pipe) leaves unknown state in the workers' pipes —
            # undrained "ready" replies, half-shipped bundles.  Retire
            # them all so the pool never hands poisoned pipes to the
            # next engine.
            _retire_workers(workers)
            raise
        finally:
            # Workers copied their tensors before answering ready (and on
            # error nobody will): the parent mapping can go either way.
            self._release_shared()
        self._workers = workers

    def execute(self) -> List[ShardDeviceSummary]:
        """Start every prepared shard and gather per-device summaries."""
        if self._workers is None:
            raise RuntimeError("call prepare() before execute()")
        workers, self._workers = self._workers, None
        summaries: List[ShardDeviceSummary] = []
        try:
            for worker in workers:
                worker.conn.send(("go",))
            for worker in workers:
                reply = worker.conn.recv()
                if reply[0] == "error":
                    raise ShardExecutionError(
                        f"shard execution failed:\n{reply[1]}"
                    )
                shard = reply[1]
                self.steps_executed += shard["steps_executed"]
                self.batched_decisions += shard["batched_decisions"]
                self.batched_executions += shard["batched_executions"]
                self.batched_observes += shard["batched_observes"]
                summaries.extend(
                    ShardDeviceSummary(**device)
                    for device in shard["devices"]
                )
        except BaseException:
            # Mid-run workers and undrained "done" replies: same poisoned
            # -pipe hazard as in prepare().
            _retire_workers(workers)
            raise
        return summaries

    def run(self) -> List[ShardDeviceSummary]:
        """Prepare and execute every shard; results in device order."""
        self.prepare()
        return self.execute()

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release a prepared-but-never-executed engine's resources.

        Workers of a prepared engine sit blocked waiting for the ``go``
        broadcast; reusing them for a new engine would corrupt the pool
        protocol (the next ``run`` message would be read as their ``go``).
        ``close()`` retires them instead.  Idempotent; a no-op after
        :meth:`execute`.
        """
        if self._workers is not None:
            workers, self._workers = self._workers, None
            _retire_workers(workers)
        self._release_shared()

    def __enter__(self) -> "ShardedFleetEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
