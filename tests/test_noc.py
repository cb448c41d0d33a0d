"""Tests for the NoC substrate: topology, traffic, simulator, analytical and SVR models."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.noc import (
    AnalyticalNoCModel,
    MeshTopology,
    NoCSimulator,
    Packet,
    RouterConfig,
    SVRNoCLatencyModel,
    UniformRandomTraffic,
    build_noc_training_set,
)

from scalar_reference.noc_latency import manhattan_hops, zero_load_latency


@pytest.fixture(scope="module")
def mesh():
    return MeshTopology(4, 4)


class TestTopology:
    def test_node_coordinate_round_trip(self, mesh):
        for node in range(mesh.n_nodes):
            x, y = mesh.coordinates(node)
            assert mesh.node_at(x, y) == node

    def test_xy_route_properties(self, mesh):
        route = mesh.xy_route(0, 15)
        assert route[0] == 0 and route[-1] == 15
        assert len(route) == manhattan_hops(mesh, 0, 15) + 1
        # XY routing: x changes first, then y.
        xs = [mesh.coordinates(n)[0] for n in route]
        ys = [mesh.coordinates(n)[1] for n in route]
        assert ys[: xs.index(max(xs)) + 1].count(ys[0]) == xs.index(max(xs)) + 1

    def test_route_links_are_adjacent(self, mesh):
        for src, dst in [(0, 5), (3, 12), (15, 0)]:
            for a, b in mesh.route_links(src, dst):
                ax, ay = mesh.coordinates(a)
                bx, by = mesh.coordinates(b)
                assert abs(ax - bx) + abs(ay - by) == 1

    def test_links_count(self, mesh):
        # 2 * (width-1) * height horizontal + 2 * width * (height-1) vertical.
        assert len(mesh.links()) == 2 * 3 * 4 + 2 * 4 * 3

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            MeshTopology(0, 4)
        with pytest.raises(ValueError):
            MeshTopology(4, 4).coordinates(99)

    def test_link_usage_accumulates(self, mesh):
        usage = mesh.link_usage({(0, 3): 0.1, (1, 3): 0.1})
        assert usage[(2, 3)] == pytest.approx(0.2)

    @settings(max_examples=30, deadline=None)
    @given(src=st.integers(0, 15), dst=st.integers(0, 15))
    def test_hop_count_matches_route_length(self, src, dst):
        mesh = MeshTopology(4, 4)
        assert len(mesh.xy_route(src, dst)) - 1 == manhattan_hops(mesh, src,
                                                                  dst)


class TestRouterAndPacket:
    def test_router_latency_helpers(self):
        router = RouterConfig(router_delay_cycles=2, link_delay_cycles=1,
                              flits_per_cycle=1)
        assert router.service_cycles(4) == 4
        assert router.per_hop_latency(4) == 7
        with pytest.raises(ValueError):
            RouterConfig(flits_per_cycle=0)

    def test_packet_latency(self):
        packet = Packet(packet_id=0, source=0, destination=3, size_flits=4,
                        injection_cycle=10)
        assert packet.latency_cycles is None
        packet.ejection_cycle = 25
        assert packet.latency_cycles == 15
        with pytest.raises(ValueError):
            Packet(packet_id=0, source=0, destination=1, size_flits=0,
                   injection_cycle=0)


class TestTraffic:
    def test_uniform_traffic_rate(self, mesh):
        traffic = UniformRandomTraffic(mesh, injection_rate=0.1, seed=0)
        packets = traffic.generate(500)
        expected = 0.1 * mesh.n_nodes * 500
        assert len(packets) == pytest.approx(expected, rel=0.15)
        assert all(p.source != p.destination for p in packets)

    def test_uniform_rate_matrix_sums_to_injection_rate(self, mesh):
        traffic = UniformRandomTraffic(mesh, injection_rate=0.08, seed=0)
        matrix = traffic.rate_matrix()
        per_source = sum(rate for (src, _), rate in matrix.items() if src == 0)
        assert per_source == pytest.approx(0.08)

    def test_invalid_injection_rate(self, mesh):
        with pytest.raises(ValueError):
            UniformRandomTraffic(mesh, injection_rate=0.0)
        with pytest.raises(ValueError):
            UniformRandomTraffic(mesh, injection_rate=1.5)


class TestNoCSimulator:
    def test_all_packets_delivered_at_low_load(self, mesh):
        simulator = NoCSimulator(mesh)
        traffic = UniformRandomTraffic(mesh, injection_rate=0.02, seed=0)
        result = simulator.run(traffic, n_cycles=200)
        assert result.undelivered_count == 0
        assert result.n_delivered > 0
        assert result.average_latency_cycles > 0

    def test_latency_increases_with_load(self, mesh):
        simulator = NoCSimulator(mesh)
        low = simulator.run(UniformRandomTraffic(mesh, 0.02, seed=1), n_cycles=300)
        high = simulator.run(UniformRandomTraffic(mesh, 0.25, seed=1), n_cycles=300)
        assert high.average_latency_cycles > low.average_latency_cycles

    def test_zero_load_latency_matches_single_packet(self, mesh):
        simulator = NoCSimulator(mesh)
        packet = Packet(packet_id=0, source=0, destination=15, size_flits=4,
                        injection_cycle=0)
        result = simulator.run_packets([packet], n_cycles=1)
        expected = zero_load_latency(simulator, 0, 15, size_flits=4)
        # The final-hop ejection does not pay the last router+link stage.
        assert abs(result.average_latency_cycles - expected) <= (
            simulator.router.router_delay_cycles + simulator.router.link_delay_cycles)

    def test_slower_router_raises_latency_on_identical_traffic(self):
        topology = MeshTopology(3, 3)
        packets = UniformRandomTraffic(topology, injection_rate=0.05,
                                       seed=0).generate(100)
        fast = RouterConfig()
        slow = RouterConfig(router_delay_cycles=fast.router_delay_cycles + 4)
        results = [
            NoCSimulator(topology, config).run_packets(copy.deepcopy(packets),
                                                       100)
            for config in (fast, slow, fast)
        ]
        assert results[0].average_latency_cycles == (
            results[2].average_latency_cycles)
        assert results[1].average_latency_cycles > (
            results[0].average_latency_cycles)

    def test_latency_scales_with_packet_size(self, mesh):
        simulator = NoCSimulator(mesh)
        small = simulator.run(UniformRandomTraffic(mesh, 0.05, packet_size_flits=2,
                                                   seed=2), n_cycles=200)
        large = simulator.run(UniformRandomTraffic(mesh, 0.05, packet_size_flits=8,
                                                   seed=2), n_cycles=200)
        assert large.average_latency_cycles > small.average_latency_cycles

    def test_statistics_fields(self, mesh):
        simulator = NoCSimulator(mesh)
        result = simulator.run(UniformRandomTraffic(mesh, 0.05, seed=3), n_cycles=150)
        assert 1.0 <= result.average_hops() <= 6.0


class TestAnalyticalModel:
    def test_matches_simulator_at_low_load(self, mesh):
        simulator = NoCSimulator(mesh)
        analytical = AnalyticalNoCModel(mesh)
        traffic = UniformRandomTraffic(mesh, injection_rate=0.03, seed=0)
        estimate = analytical.estimate(traffic.rate_matrix())
        simulated = simulator.run(traffic, n_cycles=400).average_latency_cycles
        assert estimate.average_latency_cycles == pytest.approx(simulated, rel=0.35)
        assert not estimate.saturated

    def test_latency_monotone_in_injection_rate(self, mesh):
        analytical = AnalyticalNoCModel(mesh)
        estimates = [
            analytical.estimate(
                UniformRandomTraffic(mesh, rate, seed=0).rate_matrix()
            ).average_latency_cycles
            for rate in (0.02, 0.06, 0.10)
        ]
        assert estimates[0] < estimates[1] < estimates[2]

    def test_saturation_detected(self, mesh):
        analytical = AnalyticalNoCModel(mesh)
        estimate = analytical.estimate(
            UniformRandomTraffic(mesh, 0.9, seed=0).rate_matrix())
        assert estimate.saturated

    def test_empty_traffic(self, mesh):
        analytical = AnalyticalNoCModel(mesh)
        estimate = analytical.estimate({})
        assert np.isnan(estimate.average_latency_cycles)


class TestSVRModel:
    def test_training_set_construction(self):
        mesh = MeshTopology(3, 3)
        samples = build_noc_training_set(mesh, injection_rates=[0.02, 0.05, 0.08],
                                         n_cycles=150, seed=0)
        assert len(samples) == 3
        assert all(s.simulated_latency > 0 for s in samples)
        assert all(s.features().shape == (6,) for s in samples)

    def test_svr_beats_or_matches_analytical_model(self):
        mesh = MeshTopology(3, 3)
        train = build_noc_training_set(
            mesh, injection_rates=[0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.15],
            n_cycles=200, seed=0)
        test = build_noc_training_set(mesh, injection_rates=[0.03, 0.07, 0.11],
                                      n_cycles=200, seed=1)
        model = SVRNoCLatencyModel().fit(train)
        svr_mape, predictions = model.evaluate(test)
        assert predictions.shape == (len(test),)
        simulated = np.array([s.simulated_latency for s in test])
        analytical = np.array([s.analytical_latency for s in test])
        analytical_mape = float(np.mean(np.abs(simulated - analytical) / simulated) * 100)
        assert svr_mape < max(analytical_mape, 25.0)

    def test_requires_minimum_samples(self):
        with pytest.raises(ValueError):
            SVRNoCLatencyModel().fit([])

    def test_predict_before_fit_raises(self):
        mesh = MeshTopology(3, 3)
        samples = build_noc_training_set(mesh, injection_rates=[0.05],
                                         n_cycles=100, seed=0)
        with pytest.raises(RuntimeError):
            SVRNoCLatencyModel().predict(samples)
