"""Tests for the process-sharded fleet engine and identity-key hygiene.

The acceptance bar mirrors the fleet engine's own: a
:class:`~repro.fleet.sharding.ShardedFleetEngine` run is **bitwise
identical** to the single-process :class:`~repro.fleet.engine.FleetEngine`
and **invariant to the shard count** — for governor fleets, online-IL
learning fleets, throttled-scenario devices and ragged trace lengths.
Alongside sit the guards that make cross-process grouping sound at all:
no ``id()``-derived value in any fleet grouping key or map (process-local
addresses do not survive pickling and can alias after GC), object-held
adoption membership, and NaN-aware fleet aggregation.
"""

from __future__ import annotations

import gc
import io
import multiprocessing
import os
import tokenize
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.control.policy import GovernorPolicy
from repro.core.online_il import OnlineILPolicy
from repro.experiments.fleet import FleetDeviceReport, _fleet_aggregates
from repro.fleet import (
    DeviceSpec,
    FleetBuildWarning,
    ShardedFleetEngine,
    ShardExecutionError,
    build_fleet,
)
from repro.scenarios import get_scenario
from repro.soc.governors import (
    InteractiveGovernor,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
)
from repro.soc.simulator import SoCSimulator
from repro.workloads.generator import SnippetTraceGenerator
from repro.workloads.suites import training_workloads

LOG_KEYS = ("energy_j", "time_s", "power_w", "big_opp", "little_opp")

GOVERNORS = (OndemandGovernor, PerformanceGovernor, PowersaveGovernor,
             InteractiveGovernor)


def make_trace(i, factor=0.3, extra=0):
    generator = SnippetTraceGenerator(seed=100 + i)
    workloads = training_workloads()
    trace = generator.generate(workloads[i % len(workloads)].scaled(factor))
    for j in range(extra):
        trace.extend(generator.generate(
            workloads[(i + j + 1) % len(workloads)].scaled(factor)
        ))
    return trace


def assert_logs_bitwise_equal(runs, summaries, keys=None):
    """Single-process PolicyRunResults == sharded log-mode summaries.

    ``keys=None`` compares *every* column the reference log materialised
    (and requires the sharded log to have exactly the same columns —
    e.g. ``throttled`` appears only for devices with a throttle
    schedule, on both paths alike).
    """
    assert len(runs) == len(summaries)
    for run, summary in zip(runs, summaries):
        reference = run.log.to_dict()
        assert len(run.log) == summary.steps
        if keys is None:
            assert set(reference) == set(summary.log), summary.name
        for key in (keys if keys is not None else reference):
            np.testing.assert_array_equal(
                np.asarray(reference[key]), np.asarray(summary.log[key]),
                err_msg=f"{summary.name}:{key}",
            )
        assert run.total_energy_j == summary.total_energy_j
        assert run.total_time_s == summary.total_time_s


class TestShardCountInvariance:
    """Sharded logs == single-process logs, for 1, 2 and 4 shards."""

    def _compare(self, platform, space, devices_factory, n_devices,
                 shard_counts=(1, 2, 4), keys=None):
        simulator = SoCSimulator(platform, noise_scale=0.02, seed=0)
        reference = build_fleet(devices_factory(), simulator, space).run()
        for n_shards in shard_counts:
            engine = ShardedFleetEngine(
                devices_factory(),
                SoCSimulator(platform, noise_scale=0.02, seed=0),
                space, n_shards=n_shards, collect="logs",
            )
            summaries = engine.run()
            assert [s.name for s in summaries] == [
                f"dev-{i}" for i in range(n_devices)
            ]
            assert_logs_bitwise_equal(reference, summaries, keys=keys)

    def test_governor_fleet(self, platform, space):
        def devices():
            return [DeviceSpec(
                name=f"dev-{i}",
                policy=GovernorPolicy(GOVERNORS[i % len(GOVERNORS)](space)),
                snippets=make_trace(i), seed=50 + i,
            ) for i in range(5)]
        self._compare(platform, space, devices, 5)

    def test_ragged_trace_lengths(self, platform, space):
        def devices():
            return [DeviceSpec(
                name=f"dev-{i}",
                policy=GovernorPolicy(OndemandGovernor(space)),
                snippets=make_trace(i, extra=i % 3), seed=70 + i,
            ) for i in range(4)]
        self._compare(platform, space, devices, 4)

    def test_scenario_throttled_devices(self, platform, space):
        def devices():
            out = []
            for i in range(3):
                scenario = get_scenario("thermal_throttle").apply(
                    make_trace(i), 300 + i
                )
                out.append(DeviceSpec(
                    name=f"dev-{i}",
                    policy=GovernorPolicy(OndemandGovernor(space)),
                    scenario=scenario, seed=90 + i,
                ))
            return out
        self._compare(platform, space, devices, 3)

    def test_online_il_fleet(self, trained_framework):
        framework = trained_framework
        space = framework.space
        platform = framework.simulator.platform

        def devices():
            out = []
            for i in range(3):
                trace = make_trace(i, factor=0.2)
                out.append(DeviceSpec(
                    name=f"dev-{i}",
                    policy=framework.build_online_il_policy(isolated=True),
                    snippets=trace, seed=40 + i,
                    oracle_table=framework.build_oracle_for(trace),
                ))
            return out
        self._compare(platform, space, devices, 3, shard_counts=(1, 2))


class TestStreamedSummaries:
    """collect='summaries' streams O(devices) aggregates, bitwise."""

    def _devices(self, space):
        out = []
        for i in range(5):
            trace = make_trace(i, extra=i % 2)
            out.append(DeviceSpec(
                name=f"dev-{i}",
                policy=GovernorPolicy(GOVERNORS[i % len(GOVERNORS)](space)),
                snippets=trace, seed=60 + i,
            ))
        return out

    def test_summary_fields_match_materialized_run(self, platform, space):
        simulator = SoCSimulator(platform, noise_scale=0.02, seed=0)
        reference = build_fleet(self._devices(space), simulator, space).run()
        engine = ShardedFleetEngine(
            self._devices(space),
            SoCSimulator(platform, noise_scale=0.02, seed=0),
            space, n_shards=2, collect="summaries",
        )
        summaries = engine.run()
        for run, summary in zip(reference, summaries):
            assert summary.log is None
            assert summary.steps == len(run.log)
            assert summary.total_energy_j == run.total_energy_j
            assert summary.total_time_s == run.total_time_s
            throttled = run.log.column("throttled", default=0.0)
            assert summary.throttled_steps == int(np.nansum(throttled))
            # No oracle tables on these devices: accuracy stays NaN and
            # normalisation raises exactly like PolicyRunResult does.
            assert np.isnan(summary.final_accuracy)
            with pytest.raises(ValueError, match="Oracle energy"):
                summary.normalized_energy

    def test_partitions_and_aggregates_invariant_to_shard_count(
            self, platform, space):
        """Streamed summaries land in device order for every partition,
        so downstream aggregation is shard-count independent, exactly."""
        per_shards = {}
        for n_shards in (1, 2, 3, 4, 5):
            engine = ShardedFleetEngine(
                self._devices(space),
                SoCSimulator(platform, noise_scale=0.02, seed=0),
                space, n_shards=n_shards, collect="summaries",
            )
            summaries = engine.run()
            assert [s.name for s in summaries] == [
                f"dev-{i}" for i in range(5)
            ]
            reports = [FleetDeviceReport(
                name=s.name, policy=s.policy_name, scenario="",
                steps=s.steps, throttled_steps=s.throttled_steps,
                total_energy_j=s.total_energy_j, total_time_s=s.total_time_s,
                normalized_energy=float("nan"),
                final_accuracy=s.final_accuracy,
            ) for s in summaries]
            per_shards[n_shards] = _fleet_aggregates(reports)
        reference = per_shards[1]
        for n_shards, aggregates in per_shards.items():
            assert aggregates.keys() == reference.keys()
            for key in reference:
                a, b = aggregates[key], reference[key]
                assert a == b or (np.isnan(a) and np.isnan(b)), (
                    n_shards, key
                )

    def test_engine_validates_inputs(self, platform, space):
        simulator = SoCSimulator(platform, noise_scale=0.0, seed=0)
        devices = self._devices(space)
        with pytest.raises(ValueError, match="n_shards"):
            ShardedFleetEngine(devices, simulator, space, n_shards=0)
        with pytest.raises(ValueError, match="collect"):
            ShardedFleetEngine(devices, simulator, space, collect="frames")
        with pytest.raises(ValueError, match="at least one device"):
            ShardedFleetEngine([], simulator, space)
        # More shards than devices degrades to one device per shard.
        engine = ShardedFleetEngine(devices, simulator, space, n_shards=64)
        assert engine.n_shards == len(devices)
        assert engine.shard_bounds == [(i, i + 1)
                                       for i in range(len(devices))]


class TestRngHazards:
    """``build_fleet`` and ``ShardedFleetEngine`` warn alike."""

    @pytest.mark.parametrize("make_fleet", [build_fleet, ShardedFleetEngine])
    def test_generator_passed_as_seed(self, make_fleet, platform, space):
        """A ``Generator`` given as ``seed`` is used as-is, so it can be
        shared, or be the simulator's own, just like an ``rng``."""
        simulator = SoCSimulator(platform, noise_scale=0.02, seed=0)
        shared = np.random.default_rng(0)
        seeds = [shared, shared, simulator.rng]
        devices = [DeviceSpec(name=f"dev{i}",
                              policy=GovernorPolicy(OndemandGovernor(space)),
                              snippets=make_trace(i, factor=0.2), seed=seed)
                   for i, seed in enumerate(seeds)]
        with pytest.warns(FleetBuildWarning) as record:
            make_fleet(devices, simulator, space)
        messages = [str(w.message) for w in record]
        assert any("['dev0', 'dev1'] share one" in m for m in messages)
        assert any("['dev2'] use the simulator's own" in m for m in messages)


class TestAdoptionOwnership:
    """Group membership is held by object, never by process-local id()."""

    def test_members_match_semantics(self):
        a, b, c = object(), object(), object()
        assert not OnlineILPolicy._members_match(None, (a, b))
        assert not OnlineILPolicy._members_match((a,), (a, b))
        assert not OnlineILPolicy._members_match((a, c), (a, b))
        assert OnlineILPolicy._members_match((a, b), (a, b))

    def test_reallocated_policy_cannot_alias_adopted_group(
            self, trained_framework):
        """The old id()-tuple check could confuse a GC'd policy with a new
        allocation at the same address; the stored member tuple now keeps
        the originals alive and compares by identity."""
        policies = [trained_framework.build_online_il_policy(isolated=True)
                    for _ in range(3)]
        state: dict = {}
        adopted = OnlineILPolicy._fleet_adopt(tuple(policies), state)
        assert adopted["members"] == tuple(policies)
        # Same membership: the state object is reused as-is.
        assert OnlineILPolicy._fleet_adopt(tuple(policies), adopted) is adopted

        ghost = weakref.ref(policies[0])
        survivors = policies[1:]
        replaced = tuple(
            [trained_framework.build_online_il_policy(isolated=True)]
            + survivors
        )
        del policies
        gc.collect()
        # The adopted state still pins the dropped policy — its slot can
        # never be re-used by an impostor object...
        assert ghost() is not None
        # ...and the replacement tuple fails the identity check, forcing
        # re-adoption instead of replaying stale stacks.
        assert not OnlineILPolicy._members_match(adopted["members"], replaced)


class TestFleetAggregates:
    """NaN-aware fleet aggregation with explicit reported counts."""

    @staticmethod
    def _report(i, normalized=1.0, accuracy=90.0):
        return FleetDeviceReport(
            name=f"dev-{i}", policy="p", scenario="", steps=10,
            throttled_steps=0, total_energy_j=2.0, total_time_s=1.0,
            normalized_energy=normalized, final_accuracy=accuracy,
        )

    def test_empty_reports_raise(self):
        with pytest.raises(ValueError, match="at least one device report"):
            _fleet_aggregates([])

    def test_nan_device_does_not_poison_percentiles(self):
        reports = [self._report(0, normalized=1.0, accuracy=80.0),
                   self._report(1, normalized=float("nan"),
                                accuracy=float("nan")),
                   self._report(2, normalized=3.0, accuracy=100.0)]
        aggregates = _fleet_aggregates(reports)
        assert aggregates["n_devices_reported"] == 3.0
        assert aggregates["n_normalized_energy_reported"] == 2.0
        assert aggregates["n_final_accuracy_reported"] == 2.0
        assert aggregates["normalized_energy_mean"] == 2.0
        assert aggregates["normalized_energy_p50"] == 2.0
        assert aggregates["final_accuracy_mean"] == 90.0
        assert aggregates["fleet_energy_j"] == 6.0

    def test_all_nan_metric_yields_nan_without_warning(self, recwarn):
        reports = [self._report(0, normalized=float("nan"),
                                accuracy=float("nan"))]
        aggregates = _fleet_aggregates(reports)
        assert aggregates["n_normalized_energy_reported"] == 0.0
        assert np.isnan(aggregates["normalized_energy_p99"])
        assert np.isnan(aggregates["final_accuracy_p50"])
        runtime = [w for w in recwarn.list
                   if issubclass(w.category, RuntimeWarning)]
        assert not runtime


class TestIdentityKeyLint:
    """No id()-derived values anywhere near fleet grouping or maps.

    ``id()`` keys are process-local and reusable after garbage collection:
    they cannot cross a pickling boundary to a shard worker, and within a
    process a recycled address silently aliases two objects into one
    group.  Every module participating in fleet grouping, batching or
    cross-process transport is scanned token-wise (comments and strings
    excluded) for calls to the ``id`` builtin.  ``ml/tree.py`` flattens
    trees with ``id()`` purely inside one process and one call — it is
    deliberately out of scope.
    """

    LINTED = (
        "fleet/engine.py", "fleet/device.py", "fleet/kernels.py",
        "fleet/sharding.py", "fleet/faults.py", "fleet/supervisor.py",
        "control/policy.py", "core/online_il.py",
        "ml/rls.py", "ml/mlp.py",
    )

    def test_no_id_builtin_calls(self):
        src_root = Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        for relative in self.LINTED:
            path = src_root / relative
            source = path.read_text()
            previous = None
            before_previous = None
            for token in tokenize.generate_tokens(
                    io.StringIO(source).readline):
                if (token.type == tokenize.OP and token.string == "("
                        and previous is not None
                        and previous.type == tokenize.NAME
                        and previous.string == "id"
                        and not (before_previous is not None
                                 and before_previous.type == tokenize.OP
                                 and before_previous.string == ".")):
                    offenders.append(f"{relative}:{previous.start[0]}")
                if token.type not in (tokenize.NL, tokenize.NEWLINE,
                                      tokenize.INDENT, tokenize.DEDENT,
                                      tokenize.COMMENT):
                    before_previous = previous
                    previous = token
        assert not offenders, (
            f"id() calls found in fleet-grouping modules: {offenders} — "
            "use object-keyed maps or content keys instead"
        )


class TestShardedExperiment:
    """--shards plumbing: bitwise experiment results and CLI validation."""

    def test_run_fleet_sharded_matches_single_process(self):
        from dataclasses import asdict

        from repro.experiments.fleet import run_fleet
        from repro.experiments.scales import TINY

        reference = run_fleet(TINY, seed=0, n_devices=2)
        sharded = run_fleet(TINY, seed=0, n_devices=2, n_shards=2)
        assert [asdict(d) for d in sharded.devices] == [
            asdict(d) for d in reference.devices
        ]
        assert sharded.aggregates == reference.aggregates
        assert sharded.total_steps == reference.total_steps

    def test_cli_rejects_invalid_shards(self, capsys):
        from repro.experiments.runner import main

        assert main(["fleet", "--shards", "0"]) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_cli_rejects_shards_without_fleet_experiment(self, capsys):
        from repro.experiments.runner import main

        assert main(["figure2", "--shards", "2"]) == 2
        assert "--shards has no effect" in capsys.readouterr().err


class TestShardedFaultTolerance:
    """--shards routes the fault-free cell through the sharded engine."""

    def test_sharded_cells_match_single_process(self):
        from dataclasses import asdict

        from repro.experiments.fault_tolerance import run_fault_tolerance
        from repro.experiments.scales import TINY

        reference = run_fault_tolerance(TINY, seed=0, n_devices=4)
        sharded = run_fault_tolerance(TINY, seed=0, n_devices=4, n_shards=2)
        assert [asdict(cell) for cell in sharded.cells] == [
            asdict(cell) for cell in reference.cells
        ]


class TestResourceHygiene:
    """Every engine reaps the shard children it starts, on every path.

    ``run()`` and ``close()`` leave no child behind, an interrupt between
    child starts kills the started ones, and a child that dies mid-run
    surfaces as :class:`ShardExecutionError`.  The engines use three
    shards: a later child inherits copies of the parent's ends of the
    earlier pipes, so closing them does not stop an idle child.
    """

    def _devices(self, space, n=4):
        return [
            DeviceSpec(name=f"dev{i}",
                       policy=GovernorPolicy(OndemandGovernor(space)),
                       snippets=make_trace(i, factor=0.2), seed=300 + i)
            for i in range(n)
        ]

    def _engine(self, platform, space):
        simulator = SoCSimulator(platform, noise_scale=0.02, seed=0)
        return ShardedFleetEngine(self._devices(space), simulator, space,
                                  n_shards=3)

    def test_no_child_outlives_run_or_close(self, platform, space):
        summaries = self._engine(platform, space).run()
        assert [s.name for s in summaries] == [f"dev{i}" for i in range(4)]
        assert multiprocessing.active_children() == []
        engine = self._engine(platform, space)
        engine.prepare()
        assert len(multiprocessing.active_children()) == 3
        engine.close()
        assert multiprocessing.active_children() == []
        engine.close()  # idempotent
        with pytest.raises(RuntimeError, match="prepare"):
            engine.execute()

    def test_context_manager_closes(self, platform, space):
        with self._engine(platform, space) as engine:
            engine.prepare()
        assert multiprocessing.active_children() == []

    def test_interrupt_between_child_starts_leaves_no_child(
            self, platform, space, monkeypatch):
        import repro.fleet.sharding as sharding

        started = []

        class InterruptedStarts(sharding._MP.Process):
            def start(self):
                super().start()
                started.append(self)
                if len(started) == 2:
                    raise KeyboardInterrupt

        monkeypatch.setattr(sharding._MP, "Process", InterruptedStarts)
        with pytest.raises(KeyboardInterrupt):
            self._engine(platform, space).prepare()
        monkeypatch.undo()
        assert len(started) == 2
        assert multiprocessing.active_children() == []
        # A fresh engine starts fresh children and runs cleanly.
        summaries = self._engine(platform, space).run()
        assert all(s.steps > 0 for s in summaries)
        assert multiprocessing.active_children() == []

    def test_child_exiting_mid_run_raises_shard_execution_error(
            self, platform, space, monkeypatch):
        """The last shard's child dies after the others replied: the
        parent raises instead of a bare EOFError or a hang."""
        import repro.fleet.sharding as sharding

        run_shard = sharding._run_shard

        def dying(pending):
            if pending["engine"].sessions[0].name == "dev3":
                os._exit(3)
            return run_shard(pending)

        monkeypatch.setattr(sharding, "_run_shard", dying)
        engine = self._engine(platform, space)
        with pytest.raises(ShardExecutionError, match="exited with code 3"):
            engine.run()
        assert multiprocessing.active_children() == []
