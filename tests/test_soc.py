"""Tests for the SoC substrate: OPPs, clusters, configurations, simulator, governors."""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.gpu import default_integrated_gpu
from repro.gpu.simulator import GPUSimulator
from repro.soc import (
    ConfigurationSpace,
    InteractiveGovernor,
    OndemandGovernor,
    OperatingPoint,
    OPPTable,
    PerformanceCounters,
    PerformanceGovernor,
    PowersaveGovernor,
    Snippet,
    SnippetCharacteristics,
    SoCConfiguration,
    SoCSimulator,
    odroid_xu3_like,
    generic_big_little,
)
from repro.soc.counters import FEATURE_NAMES
from repro.soc.simulator import BYTES_PER_EXTERNAL_REQUEST
from repro.soc.snippet import CHARACTERISTIC_FIELDS, make_snippets

from scalar_reference import soc_scalar


class TestOPP:
    def test_operating_point_validation(self):
        with pytest.raises(ValueError):
            OperatingPoint(frequency_hz=-1.0, voltage_v=1.0)
        with pytest.raises(ValueError):
            OperatingPoint(frequency_hz=1e9, voltage_v=0.0)

    def test_table_sorted_by_frequency(self):
        table = OPPTable([OperatingPoint(2e9, 1.2), OperatingPoint(1e9, 1.0)])
        assert table[0].frequency_hz == 1e9
        assert table.max_frequency_hz == 2e9

    def test_table_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            OPPTable([])
        with pytest.raises(ValueError):
            OPPTable([OperatingPoint(1e9, 1.0), OperatingPoint(1e9, 1.1)])

    def test_from_frequency_range(self):
        table = OPPTable.from_frequency_range(1e9, 2e9, 5)
        assert len(table) == 5
        assert table[0].frequency_hz == 1e9
        assert table.max_frequency_hz == 2e9
        voltages = [p.voltage_v for p in table]
        assert voltages == sorted(voltages)

    def test_index_of_frequency_and_clamp(self):
        table = OPPTable.from_frequency_range(1e9, 2e9, 5)
        assert table.index_of_frequency(1e9) == 0
        assert table.index_of_frequency(5e9) == 4
        assert table.clamp_index(-3) == 0
        assert table.clamp_index(99) == 4

class TestClusterAndPlatform:
    def test_cluster_power_follows_opp_cores_and_utilization(
            self, simulator, compute_snippet):
        """Chip power rises with the big cluster's OPP and with its
        powered cores, and a cluster that runs no instruction adds its
        leakage only: no dynamic power at zero utilisation."""
        big = simulator.platform.cluster("big")
        top = len(big.opps) - 1

        def power(snippet, big_opp, big_cores):
            config = SoCConfiguration.from_dicts(
                {"big": big_opp, "little": 0}, {"big": big_cores, "little": 4})
            return simulator.run_snippet(snippet, config).average_power_w

        assert power(compute_snippet, top, 4) > power(compute_snippet, 0, 4)
        assert power(compute_snippet, top, 4) > power(compute_snippet, top, 1)
        little_only = Snippet("little-only", 0,
                              characteristics=SnippetCharacteristics(
                                  big_fraction=0.0))
        leakage = (big.leakage_w_per_v * big.n_cores
                   * (big.opps[top].voltage_v - big.opps[0].voltage_v))
        assert (power(little_only, top, 4) - power(little_only, 0, 4)
                == pytest.approx(leakage, rel=1e-9))

    def test_platform_lookup(self, platform):
        assert platform.cluster("big").name == "big"
        with pytest.raises(KeyError):
            platform.cluster("gpu")

    def test_generic_platform_parameters(self):
        platform = generic_big_little(n_big_cores=2, n_little_cores=6)
        assert platform.cluster("big").n_cores == 2
        assert platform.cluster("little").n_cores == 6


class TestConfigurationSpace:
    def test_size_without_gating(self, platform):
        space = ConfigurationSpace(platform)
        big, little = platform.cluster("big"), platform.cluster("little")
        assert len(space) == len(big.opps) * len(little.opps)

    def test_size_with_big_gating_only(self, platform):
        space = ConfigurationSpace(platform, gated_clusters=("big",))
        big, little = platform.cluster("big"), platform.cluster("little")
        expected = len(big.opps) * len(little.opps) * big.n_cores
        assert len(space) == expected

    def test_unknown_gated_cluster_rejected(self, platform):
        with pytest.raises(KeyError):
            ConfigurationSpace(platform, gated_clusters=("gpu",))

    @pytest.mark.parametrize("gated_clusters", [(), ("big",)],
                             ids=["default", "big-gated"])
    def test_restrict_by_one_cap(self, platform, gated_clusters):
        """``restrict(cap)`` keeps exactly the configurations whose every
        cluster OPP is at most ``cap``, in base order; a cap that binds
        nothing is the space itself; two restrictions share a key exactly
        when they hold the same configurations."""
        base = ConfigurationSpace(platform, gated_clusters=gated_clusters)
        top = max(len(platform.cluster(name).opps) - 1
                  for name in base.cluster_order)
        restricted = {}
        for cap in range(top + 2):
            space = base.restrict(cap)
            expected = [config for config in base
                        if all(index <= cap for _, index in config.opp_indices)]
            assert space.configurations == expected
            assert (space is base) == (len(expected) == len(base))
            restricted[cap] = space
        assert restricted[top] is base and restricted[top + 1] is base
        for first in restricted.values():
            for second in restricted.values():
                assert ((first.content_key() == second.content_key())
                        == (first.configurations == second.configurations))

    def test_index_round_trip(self, space):
        for i in [0, len(space) // 2, len(space) - 1]:
            assert space.index_of(space[i]) == i

    def test_default_configuration_all_cores(self, space, platform):
        default = space.default_configuration()
        assert default.cores("big") == platform.cluster("big").n_cores
        assert space.contains(default)

    def test_neighbors_radius_zero_is_self(self, space):
        index = space.default_index()
        assert space.neighbor_indices(index, radius=0).tolist() == [index]

    def test_every_neighborhood_contains_its_own_configuration(self,
                                                              platform):
        """Each row of the padded neighbour table holds its own index once,
        so the fleet sweep never meets a row without a candidate."""
        for space in (ConfigurationSpace(platform),
                      ConfigurationSpace(platform, gated_clusters=("big",))):
            for radius in (1, 2, 3):
                table, lengths = space.neighborhood_table(radius=radius)
                assert (lengths >= 1).all()
                for index in range(len(space)):
                    row = table[index, :lengths[index]].tolist()
                    assert row.count(index) == 1
                    assert len(set(row)) == len(row)

    def test_neighbors_within_radius(self, space):
        config = space.default_configuration()
        for i in space.neighbor_indices(space.default_index(), radius=2):
            neighbor = space[int(i)]
            assert abs(neighbor.opp_index("big") - config.opp_index("big")) <= 2
            assert abs(neighbor.opp_index("little") - config.opp_index("little")) <= 2

    def test_random_configuration_in_space(self, space, rng):
        for _ in range(10):
            assert space.contains(space.random_configuration(rng))

    def test_configuration_accessors(self, space):
        config = space.default_configuration()
        opps, cores = config.as_dicts()
        rebuilt = SoCConfiguration.from_dicts(opps, cores)
        assert rebuilt == config
        with pytest.raises(KeyError):
            config.opp_index("gpu")

    @settings(max_examples=25, deadline=None)
    @given(radius=st.integers(min_value=1, max_value=3))
    def test_neighbors_always_contain_self_property(self, radius):
        platform = odroid_xu3_like(n_big_levels=4, n_little_levels=3)
        space = ConfigurationSpace(platform)
        index = space.default_index()
        assert index in space.neighbor_indices(index, radius=radius)


class TestConfigurationSpacePickling:
    """A space pickles its constructor state, never its derived caches."""

    @staticmethod
    def _use(space):
        space.soa_view()
        space.restrict(max_opp_index=2)
        space.neighborhood_table()
        space.neighborhood_view(0)
        space.clamp(space[len(space) - 1])
        space.opp_lookup_table()
        space.default_index()
        space.content_key()

    @pytest.mark.parametrize("options", [
        {},
        {"max_opp_index": 4},
        {"gated_clusters": ("big",)},
    ], ids=["full", "restricted", "core-gated"])
    def test_used_space_pickles_like_a_fresh_one(self, platform, options):
        fresh = ConfigurationSpace(platform, **options)
        used = ConfigurationSpace(platform, **options)
        self._use(used)
        data = pickle.dumps(used, protocol=pickle.HIGHEST_PROTOCOL)
        assert data == pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL)
        copy = pickle.loads(data)
        assert copy.content_key() == used.content_key()
        assert copy.configurations == used.configurations
        assert copy.gated_clusters == used.gated_clusters
        assert copy.max_opp_index == used.max_opp_index
        self._use(copy)

    def test_restricted_space_round_trips(self, space):
        restricted = space.restrict(max_opp_index=2)
        copy = pickle.loads(pickle.dumps(restricted))
        assert copy.content_key() == restricted.content_key()
        assert copy.configurations == restricted.configurations
        assert copy.restrict(max_opp_index=2) is copy

    def test_shared_space_stays_shared(self, space):
        first, second = pickle.loads(pickle.dumps([space, space]))
        assert first is second


class TestCounters:
    def test_validation(self):
        with pytest.raises(ValueError):
            PerformanceCounters(
                instructions_retired=0, cpu_cycles=1, branch_mispredictions=0,
                l2_cache_misses=0, data_memory_accesses=0,
                noncache_external_memory_requests=0,
                little_cluster_utilization=0.5, big_cluster_utilization=0.5,
                total_chip_power_w=1.0,
            )
        with pytest.raises(ValueError):
            PerformanceCounters(
                instructions_retired=1e6, cpu_cycles=1e6, branch_mispredictions=0,
                l2_cache_misses=0, data_memory_accesses=0,
                noncache_external_memory_requests=0,
                little_cluster_utilization=1.5, big_cluster_utilization=0.5,
                total_chip_power_w=1.0,
            )

    def test_feature_vector_shape_and_names(self, simulator, space, compute_snippet):
        result = simulator.run_snippet(compute_snippet, space.default_configuration())
        counters = result.counters
        assert counters.feature_vector().shape == (len(FEATURE_NAMES),)
        assert set(counters.as_dict()) >= {"cpu_cycles", "total_chip_power_w"}


class TestSnippet:
    def test_characteristics_validation(self):
        with pytest.raises(ValueError):
            SnippetCharacteristics(memory_intensity=-1.0)
        with pytest.raises(ValueError):
            SnippetCharacteristics(ilp_factor=0.0)
        with pytest.raises(ValueError):
            SnippetCharacteristics(thread_count=0)
        with pytest.raises(ValueError):
            SnippetCharacteristics(big_fraction=1.5)

    def test_snippet_name(self):
        snippet = Snippet(application="fft", index=3)
        assert snippet.name == "fft[3]"
        with pytest.raises(ValueError):
            Snippet(application="fft", index=0, n_instructions=0)


_EDGE_VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 5e-324, -5e-324,
                float("nan"), float("inf"), float("-inf"), 1 - 2**-53)


def _constructed(application, index, n_instructions, **characteristics):
    """``make_snippets``' result built by the dataclass constructors, or
    the error the first invalid snippet raises."""
    columns = {name: value if isinstance(value, list) else [value] * len(index)
               for name, value in characteristics.items()}
    instructions = (n_instructions if isinstance(n_instructions, list)
                    else [n_instructions] * len(index))
    snippets = []
    for row, idx in enumerate(index):
        try:
            snippets.append(Snippet(
                application, idx, instructions[row], SnippetCharacteristics(
                    **{name: values[row] for name, values in columns.items()})))
        except ValueError as error:
            return str(error)
    return snippets


class TestMakeSnippets:
    """``make_snippets`` is the dataclass constructors in bulk."""

    def test_equals_the_dataclass_constructors(self):
        rng = np.random.default_rng(0)
        rates = rng.uniform(0.05, 1.0, size=6)
        kwargs = dict(memory_intensity=rng.uniform(0, 9, size=6).tolist(),
                      memory_access_rate=rates, external_request_rate=0.6,
                      branch_misprediction_mpki=(1.0, 2.0, 0, 4.0, 5.0, 6.0),
                      ilp_factor=0.5, parallel_fraction=0.1,
                      thread_count=[1, 2, 4, 1, 2, 8], big_fraction=1)
        snippets = make_snippets("app", range(6), [1e6] * 6, **kwargs)
        expected = _constructed(
            "app", list(range(6)), 1e6, **{
                **kwargs, "memory_access_rate": rates.tolist(),
                "branch_misprediction_mpki": [1.0, 2.0, 0, 4.0, 5.0, 6.0]})
        assert snippets == expected
        for made, built in zip(snippets, expected):
            assert list(vars(made)) == list(vars(built))
            assert list(vars(made.characteristics)) == list(
                vars(built.characteristics))
            assert pickle.dumps(made) == pickle.dumps(built)
        assert type(snippets[0].characteristics.memory_access_rate) is float
        assert type(snippets[2].characteristics.branch_misprediction_mpki) is int

    def test_rejects_unknown_or_missing_fields_and_ragged_columns(self):
        fields = {name: getattr(SnippetCharacteristics(), name)
                  for name in CHARACTERISTIC_FIELDS}
        with pytest.raises(TypeError, match="ipc"):
            make_snippets("app", [0], 1e6, ipc=1.0, **fields)
        del fields["ilp_factor"]
        with pytest.raises(TypeError):
            make_snippets("app", [0], 1e6, **fields)
        fields["ilp_factor"] = [0.5]
        with pytest.raises(ValueError, match="ilp_factor has 1 values"):
            make_snippets("app", [0, 1], 1e6, **fields)

    def test_raises_what_the_constructors_raise(self):
        """Random columns with edge values (NaN, ±0.0, ±inf, subnormals,
        bounds): the same snippets or the first invalid snippet's error."""
        rng = np.random.default_rng(1)
        raised = set()
        for _ in range(400):
            count = int(rng.integers(1, 5))

            def column(valid):
                values = [valid] * count
                for row in range(count):
                    if rng.random() < 0.08:
                        values[row] = _EDGE_VALUES[rng.integers(len(_EDGE_VALUES))]
                return values

            kwargs = {name: column(getattr(SnippetCharacteristics(), name))
                      for name in CHARACTERISTIC_FIELDS}
            index = [int(i) if i == i and abs(i) != float("inf") else i
                     for i in column(3)]
            instructions = column(1e6)
            expected = _constructed("app", index, instructions, **kwargs)
            if isinstance(expected, str):
                raised.add(expected)
                with pytest.raises(ValueError) as error:
                    make_snippets("app", index, instructions, **kwargs)
                assert str(error.value) == expected
            else:
                assert make_snippets("app", index, instructions,
                                     **kwargs) == expected
        assert len(raised) == 10  # every check fired

    @pytest.mark.parametrize("field, message", [
        ("memory_intensity", "memory_intensity must be non-negative"),
        ("branch_misprediction_mpki",
         "branch_misprediction_mpki must be non-negative"),
        ("thread_count", "thread_count must be >= 1"),
        ("n_instructions", "n_instructions must be positive"),
        ("index", "index must be non-negative"),
    ])
    def test_nan_fails_the_checks_bounded_only_below(self, field, message):
        """NaN is below no bound, yet a field checked only from below
        refuses it: in the constructors, and in a second row in bulk."""
        row = {"index": 0, "n_instructions": 1e6,
               **{name: getattr(SnippetCharacteristics(), name)
                  for name in CHARACTERISTIC_FIELDS}}
        bad = {**row, field: float("nan")}
        with pytest.raises(ValueError) as error:
            Snippet("app", bad["index"], bad["n_instructions"],
                    SnippetCharacteristics(**{
                        name: bad[name] for name in CHARACTERISTIC_FIELDS}))
        assert str(error.value) == message
        with pytest.raises(ValueError) as error:
            make_snippets("app", **{name: [row[name], bad[name]]
                                    for name in row})
        assert str(error.value) == message

    def test_allocates_no_more_than_the_dataclass_constructors(self):
        """Fields assigned one by one keep each instance dict
        key-sharing; a ready ``__dict__`` per object would double this."""
        count = 2000
        values = np.random.default_rng(2).uniform(0.1, 0.9, size=(7, count))
        columns = dict(zip(
            ("memory_intensity", "memory_access_rate", "external_request_rate",
             "branch_misprediction_mpki", "ilp_factor", "parallel_fraction",
             "big_fraction"), values.tolist()))
        threads, index = [1] * count, list(range(count))

        def by_dataclass():
            return [Snippet("app", idx, 1e6, SnippetCharacteristics(
                memory_intensity=mi, memory_access_rate=ar,
                external_request_rate=er, branch_misprediction_mpki=bm,
                ilp_factor=ilp, parallel_fraction=pf, thread_count=tc,
                big_fraction=bf))
                for idx, mi, ar, er, bm, ilp, pf, tc, bf in zip(
                    index, *list(columns.values())[:6], threads,
                    columns["big_fraction"])]

        def freed_with(build):
            """Bytes that emptying a fresh build releases: its snippets'
            own memory, with no temporary of the build (nor the list
            object, which may come from a free list) in the count."""
            build()  # any first-use growth of the shared instance keys
            tracemalloc.start()
            try:
                snippets = build()
                alive = tracemalloc.get_traced_memory()[0]
                snippets.clear()
                return alive - tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        def made():
            return make_snippets("app", index, 1e6, thread_count=threads,
                                 **columns)

        assert made() == by_dataclass()
        assert freed_with(made) <= freed_with(by_dataclass)


class TestSimulator:
    def test_higher_big_frequency_is_faster(self, simulator, space, compute_snippet):
        slow = SoCConfiguration.from_dicts({"big": 0, "little": 0},
                                           {"big": 4, "little": 4})
        fast = SoCConfiguration.from_dicts(
            {"big": len(simulator.platform.cluster("big").opps) - 1, "little": 0},
            {"big": 4, "little": 4})
        t_slow = simulator.run_snippet(compute_snippet, slow).execution_time_s
        t_fast = simulator.run_snippet(compute_snippet, fast).execution_time_s
        assert t_fast < t_slow

    def test_memory_bound_gains_less_from_frequency(self, simulator, compute_snippet,
                                                    memory_snippet):
        platform = simulator.platform
        low = SoCConfiguration.from_dicts({"big": 0, "little": 0}, {"big": 4, "little": 4})
        high = SoCConfiguration.from_dicts(
            {"big": len(platform.cluster("big").opps) - 1, "little": 0}, {"big": 4, "little": 4})
        speedup_compute = (simulator.run_snippet(compute_snippet, low).execution_time_s
                           / simulator.run_snippet(compute_snippet, high).execution_time_s)
        speedup_memory = (simulator.run_snippet(memory_snippet, low).execution_time_s
                          / simulator.run_snippet(memory_snippet, high).execution_time_s)
        assert speedup_compute > speedup_memory

    def test_parallel_snippet_uses_big_cluster_fully(self, simulator, space,
                                                     parallel_snippet, compute_snippet):
        config = space.default_configuration()
        parallel_util = simulator.run_snippet(
            parallel_snippet, config).counters.big_cluster_utilization
        serial_util = simulator.run_snippet(
            compute_snippet, config).counters.big_cluster_utilization
        assert parallel_util > serial_util

    def test_power_increases_with_frequency(self, simulator, compute_snippet):
        platform = simulator.platform
        low = SoCConfiguration.from_dicts({"big": 0, "little": 0}, {"big": 4, "little": 4})
        high = SoCConfiguration.from_dicts(
            {"big": len(platform.cluster("big").opps) - 1, "little": 0}, {"big": 4, "little": 4})
        assert (simulator.run_snippet(compute_snippet, high).average_power_w
                > simulator.run_snippet(compute_snippet, low).average_power_w)

    def test_energy_equals_power_times_time(self, simulator, space, compute_snippet):
        result = simulator.run_snippet(compute_snippet, space.default_configuration())
        assert result.energy_j == pytest.approx(
            result.average_power_w * result.execution_time_s)

    def test_deterministic_evaluation_repeatable(self, simulator, space, memory_snippet):
        config = space.default_configuration()
        a = simulator.run_snippet(memory_snippet, config)
        b = simulator.run_snippet(memory_snippet, config)
        assert a.energy_j == b.energy_j

    def test_noise_produces_variation(self, noisy_simulator, space, compute_snippet):
        config = space.default_configuration()
        energies = {noisy_simulator.run_snippet(compute_snippet, config,
                                                factors).energy_j
                    for factors in noisy_simulator.draw_noise(5)}
        assert len(energies) > 1

    def test_draw_noise_is_the_per_execution_draw_order(self, noisy_simulator):
        """Row k holds exp(normal) of the (2k)-th and (2k+1)-th normals: the
        time then power draws of the k-th execution, and nothing more."""
        rows = noisy_simulator.draw_noise(5, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        scale = noisy_simulator.noise_scale
        expected = [[float(np.exp(rng.normal(0.0, scale))) for _ in "tp"]
                    for _ in range(5)]
        assert rows.shape == (5, 2)
        assert rows.tolist() == expected
        drawn = np.random.default_rng(7)
        noisy_simulator.draw_noise(5, drawn)
        assert drawn.bit_generator.state == rng.bit_generator.state

    def test_noise_free_draw_is_ones_and_consumes_nothing(self, simulator):
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        assert simulator.draw_noise(3, rng).tolist() == [[1.0, 1.0]] * 3
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("cluster", ["big", "little"])
    @pytest.mark.parametrize("knob", ["opp -1", "opp past table",
                                      "0 cores", "n_cores + 1"])
    def test_run_snippet_refuses_out_of_range_knobs(self, simulator, space,
                                                    compute_snippet, cluster,
                                                    knob):
        """The array model would wrap a negative OPP index, divide by zero
        cores and clamp extra cores; ``run_snippet`` refuses each, naming
        the cluster."""
        spec = simulator.platform.cluster(cluster)
        opps, cores = space.default_configuration().as_dicts()
        if knob.startswith("opp"):
            opps[cluster] = -1 if knob == "opp -1" else len(spec.opps)
        else:
            cores[cluster] = 0 if knob == "0 cores" else spec.n_cores + 1
        config = SoCConfiguration.from_dicts(opps, cores)
        with pytest.raises(ValueError, match=f"cluster '{cluster}'"):
            simulator.run_snippet(compute_snippet, config)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -0.01])
    @pytest.mark.parametrize("make", [
        lambda scale: SoCSimulator(odroid_xu3_like(), noise_scale=scale),
        lambda scale: GPUSimulator(default_integrated_gpu(), noise_scale=scale),
    ], ids=["soc", "gpu"])
    def test_noise_scale_must_be_finite_and_non_negative(self, make, scale):
        with pytest.raises(ValueError, match="noise_scale"):
            make(scale)

    def test_counters_reflect_characteristics(self, simulator, space, memory_snippet):
        result = simulator.run_snippet(memory_snippet, space.default_configuration())
        counters = result.counters
        expected_misses = (memory_snippet.n_instructions
                           * memory_snippet.characteristics.memory_intensity / 1000.0)
        assert counters.l2_cache_misses == pytest.approx(expected_misses)
        assert counters.instructions_retired == memory_snippet.n_instructions

    def test_total_power_sums_its_components(self, simulator, space,
                                             compute_snippet, memory_snippet):
        """Chip power is the base power, plus each cluster's dynamic and
        static power at the utilization its counters report, plus DRAM
        power at the external-request bandwidth."""
        platform = simulator.platform
        config = space.default_configuration()
        for snippet in (compute_snippet, memory_snippet):
            result = simulator.run_snippet(snippet, config)
            counters = result.counters
            utilization = {"big": counters.big_cluster_utilization,
                           "little": counters.little_cluster_utilization}
            expected = platform.base_power_w
            for name in platform.cluster_names:
                spec = platform.cluster(name)
                opp, active = config.opp_index(name), config.cores(name)
                expected += (soc_scalar.dynamic_power_w(
                    spec, opp, active, utilization[name])
                    + soc_scalar.static_power_w(spec, opp, active))
            traffic_gbps = (counters.noncache_external_memory_requests
                            * BYTES_PER_EXTERNAL_REQUEST
                            / result.execution_time_s / 1e9)
            expected += platform.memory_power_w_per_gbps * traffic_gbps
            assert result.average_power_w == pytest.approx(expected, rel=1e-12)
            assert counters.total_chip_power_w == result.average_power_w

    def test_result_derived_metrics(self, simulator, space, compute_snippet):
        result = simulator.run_snippet(compute_snippet, space.default_configuration())
        assert result.energy_per_instruction_nj == pytest.approx(
            result.energy_j / compute_snippet.n_instructions * 1e9)

    def test_fewer_cores_slow_down_parallel_snippet(self, platform, parallel_snippet):
        space = ConfigurationSpace(platform, gated_clusters=("big",))
        simulator = SoCSimulator(platform, noise_scale=0.0)
        opps, _ = space.default_configuration().as_dicts()
        four = SoCConfiguration.from_dicts(opps, {"big": 4, "little": 4})
        one = SoCConfiguration.from_dicts(opps, {"big": 1, "little": 4})
        assert (simulator.run_snippet(parallel_snippet, one).execution_time_s
                > simulator.run_snippet(parallel_snippet, four).execution_time_s * 2)

    @settings(max_examples=20, deadline=None)
    @given(mpki=st.floats(min_value=0.0, max_value=30.0),
           ilp=st.floats(min_value=0.2, max_value=1.0),
           threads=st.integers(min_value=1, max_value=4))
    def test_energy_and_time_always_positive(self, mpki, ilp, threads):
        platform = odroid_xu3_like(n_big_levels=4, n_little_levels=3)
        space = ConfigurationSpace(platform)
        simulator = SoCSimulator(platform, noise_scale=0.0)
        snippet = Snippet(
            application="prop", index=0,
            characteristics=SnippetCharacteristics(
                memory_intensity=mpki, ilp_factor=ilp, thread_count=threads,
                parallel_fraction=0.5 if threads > 1 else 0.0,
            ),
        )
        result = simulator.run_snippet(snippet, space.default_configuration())
        assert result.execution_time_s > 0
        assert result.energy_j > 0
        assert 0.0 <= result.counters.big_cluster_utilization <= 1.0


class TestGovernors:
    def _counters_with_util(self, simulator, space, snippet):
        return simulator.run_snippet(snippet, space.default_configuration()).counters

    def test_performance_governor_max_frequency(self, space, simulator, compute_snippet):
        governor = PerformanceGovernor(space)
        counters = self._counters_with_util(simulator, space, compute_snippet)
        config = governor.decide(counters)
        assert config.opp_index("big") == len(space.platform.cluster("big").opps) - 1

    def test_powersave_governor_min_frequency(self, space, simulator, compute_snippet):
        governor = PowersaveGovernor(space)
        counters = self._counters_with_util(simulator, space, compute_snippet)
        config = governor.decide(counters)
        assert config.opp_index("big") == 0
        assert config.opp_index("little") == 0

    def test_ondemand_ramps_up_on_high_utilization(self, space, simulator, parallel_snippet):
        governor = OndemandGovernor(space, up_threshold=0.7)
        counters = self._counters_with_util(simulator, space, parallel_snippet)
        config = governor.decide(counters)
        assert config.opp_index("big") == len(space.platform.cluster("big").opps) - 1

    def test_ondemand_steps_down_when_idle(self, space, simulator, compute_snippet):
        governor = OndemandGovernor(space, down_threshold=0.3)
        start = governor.current.opp_index("big")
        counters = self._counters_with_util(simulator, space, compute_snippet)
        # Single-threaded workload leaves the 4-core big cluster under-utilised.
        config = governor.decide(counters)
        assert config.opp_index("big") <= start

    def test_ondemand_threshold_validation(self, space):
        with pytest.raises(ValueError):
            OndemandGovernor(space, up_threshold=0.2, down_threshold=0.5)

    def test_interactive_governor_moves_toward_target(self, space, simulator,
                                                      parallel_snippet):
        governor = InteractiveGovernor(space, target_utilization=0.5)
        counters = self._counters_with_util(simulator, space, parallel_snippet)
        before = governor.current.opp_index("big")
        config = governor.decide(counters)
        assert config.opp_index("big") >= before

    def test_governor_reset(self, space, simulator, compute_snippet):
        governor = PerformanceGovernor(space)
        governor.decide(self._counters_with_util(simulator, space, compute_snippet))
        governor.reset()
        assert governor.current == space.default_configuration()
