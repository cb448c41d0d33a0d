"""Tests for the DRM controllers: RL, NMPC, explicit NMPC, multi-rate GPU control."""

import numpy as np
import pytest

from repro.control import (
    CounterStateDiscretizer,
    ExplicitNMPCGpuController,
    FastRateFrequencyController,
    MultiRateGPUController,
    NMPCGpuController,
    QLearningController,
    RandomPolicy,
    StaticPolicy,
    WorkloadPredictor,
)
from repro.control.explicit_nmpc import halton_sequence
from repro.core.framework import run_policy_on_snippets
from repro.gpu import GPUConfiguration, GPUSimulator, GPUSpec, default_integrated_gpu
from repro.soc.opp import OPPTable, OperatingPoint
from repro.workloads.graphics import get_graphics_workload
from repro.workloads.suites import get_workload
from repro.workloads.generator import SnippetTraceGenerator
from scalar_reference import nmpc_loop


@pytest.fixture(scope="module")
def gpu():
    return default_integrated_gpu()


class TestBasicPolicies:
    def test_static_policy_always_same(self, space, simulator, compute_snippet):
        policy = StaticPolicy(space)
        counters = simulator.run_snippet(compute_snippet,
                                         space.default_configuration()).counters
        assert policy.decide(counters) == policy.decide(None)

    def test_random_policy_in_space(self, space, simulator, compute_snippet):
        policy = RandomPolicy(space, seed=0)
        counters = simulator.run_snippet(compute_snippet,
                                         space.default_configuration()).counters
        for _ in range(5):
            assert space.contains(policy.decide(counters))


class TestDiscretizer:
    def test_state_range(self, simulator, space, compute_snippet, memory_snippet):
        discretizer = CounterStateDiscretizer()
        for snippet in (compute_snippet, memory_snippet):
            counters = simulator.run_snippet(snippet,
                                             space.default_configuration()).counters
            state = discretizer.discretize(counters)
            assert 0 <= state < discretizer.n_states

    def test_distinguishes_memory_bound_from_compute_bound(self, simulator, space,
                                                           compute_snippet, memory_snippet):
        discretizer = CounterStateDiscretizer()
        config = space.default_configuration()
        s1 = discretizer.discretize(simulator.run_snippet(compute_snippet, config).counters)
        s2 = discretizer.discretize(simulator.run_snippet(memory_snippet, config).counters)
        assert s1 != s2


class TestQLearning:
    def test_learns_on_workload(self, trained_framework):
        framework = trained_framework
        policy = QLearningController(framework.space, seed=0)
        workload = get_workload("fft").scaled(0.3)
        run = framework.evaluate_policy(policy, workload, reset_policy=False)
        assert policy.n_updates > 0
        assert run.total_energy_j > 0

    def test_epsilon_decays(self, trained_framework):
        policy = QLearningController(trained_framework.space, epsilon=0.5,
                                     epsilon_decay=0.9, seed=0)
        workload = get_workload("sha").scaled(0.3)
        trained_framework.evaluate_policy(policy, workload, reset_policy=False)
        assert policy.epsilon < 0.5

    def test_reset_options(self, trained_framework, simulator, compute_snippet):
        policy = QLearningController(trained_framework.space, seed=0, epsilon=0.3)
        workload = get_workload("aes").scaled(0.2)
        trained_framework.evaluate_policy(policy, workload, reset_policy=False)
        policy.reset(reset_table=True, reset_epsilon=True)
        assert np.all(policy.q_table == 0.0)
        assert policy.epsilon == 0.3

    def test_parameter_validation(self, space):
        with pytest.raises(ValueError):
            QLearningController(space, learning_rate=0.0)
        with pytest.raises(ValueError):
            QLearningController(space, discount=1.0)
        with pytest.raises(ValueError):
            QLearningController(space, epsilon=1.5)

    def test_worse_than_oracle_on_unseen_app(self, trained_framework):
        """RL needs many samples: on a short unseen app it stays well above Oracle."""
        policy = QLearningController(trained_framework.space, seed=0)
        run = trained_framework.evaluate_policy(policy, get_workload("kmeans").scaled(0.4),
                                                reset_policy=False)
        assert run.normalized_energy > 1.02


class TestWorkloadPredictor:
    def test_prediction_tracks_mean(self):
        predictor = WorkloadPredictor(smoothing=0.5, margin_sigma=0.0)
        for _ in range(20):
            predictor.observe(1e7, 2e6)
        work, memory = predictor.predict()
        assert work == pytest.approx(1e7, rel=0.01)
        assert memory == pytest.approx(2e6, rel=0.01)

    def test_margin_adds_headroom_under_variability(self, rng):
        predictor = WorkloadPredictor(margin_sigma=2.0)
        values = rng.normal(1e7, 1e6, size=50)
        for value in values:
            predictor.observe(float(value), 1e6)
        work, _ = predictor.predict()
        assert work > np.mean(values)

    def test_requires_observation(self):
        predictor = WorkloadPredictor()
        assert not predictor.has_observations
        with pytest.raises(RuntimeError):
            predictor.predict()


class TestNMPC:
    def test_meets_deadline_and_beats_max_config(self, gpu,
                                                 pinned_gpu_controller):
        simulator = GPUSimulator(gpu, noise_scale=0.01, seed=0)
        trace = get_graphics_workload("fruitninja", gpu=gpu, n_frames=150, seed=0)
        controller = NMPCGpuController(gpu, target_fps=trace.target_fps)
        run = simulator.run(trace, controller)
        fixed_max = GPUSimulator(gpu, noise_scale=0.0).run(
            trace, pinned_gpu_controller(
                GPUConfiguration(len(gpu.opps) - 1, gpu.n_slices)))
        assert run.deadline_miss_rate < 0.08
        assert run.gpu_energy_j < fixed_max.gpu_energy_j

    def test_solver_prefers_low_energy_feasible_config(self, gpu):
        controller = NMPCGpuController(gpu, target_fps=30.0)
        light_config = controller.solve(work_cycles=1e6, memory_bytes=1e5)
        heavy_config = controller.solve(work_cycles=8e7, memory_bytes=3e7)
        light_power = gpu.active_power_w(light_config)
        heavy_power = gpu.active_power_w(heavy_config)
        assert light_power < heavy_power
        assert light_config.active_slices <= heavy_config.active_slices

    def test_solver_falls_back_when_infeasible(self, gpu):
        controller = NMPCGpuController(gpu, target_fps=30.0)
        config = controller.solve(work_cycles=1e12, memory_bytes=0.0)
        assert config.opp_index == len(gpu.opps) - 1
        assert config.active_slices == gpu.n_slices

    def test_parameter_validation(self, gpu):
        with pytest.raises(ValueError):
            NMPCGpuController(gpu, target_fps=0.0)
        with pytest.raises(ValueError):
            NMPCGpuController(gpu, target_fps=30.0, deadline_margin=1.0)


class _RepeatingOPPTable(OPPTable):
    """An OPP table that lists one operating point twice.

    ``OPPTable`` refuses repeated frequencies; the sweep's tie-break must
    still pick what the loop picks when two configurations are identical.
    """

    def __init__(self, points):
        self._points = list(points)


class TestNMPCSweep:
    """``solve_batch`` and ``solve`` pick what the reference loop picks."""

    @staticmethod
    def seeded_states(gpu, target_fps, n, seed):
        """States from idle to ~30% past what the fastest config sustains."""
        rng = np.random.default_rng(seed)
        frame_s = 1.0 / target_fps
        work = rng.uniform(0.0, 1.3 * gpu.max_throughput_cycles_per_s() * frame_s, n)
        memory = rng.uniform(0.0, 0.4 * gpu.memory_bandwidth_gbps * 1e9 * frame_s, n)
        return work, memory

    @staticmethod
    def assert_matches_loop(controller, work, memory):
        opps, slices = controller.solve_batch(work, memory)
        assert opps.shape == slices.shape == (len(work),)
        for w, m, opp, n_slices in zip(work, memory, opps, slices):
            expected = nmpc_loop.solve(controller, float(w), float(m))
            assert (opp, n_slices) == (expected.opp_index, expected.active_slices)
            assert controller.solve(float(w), float(m)) == expected

    @staticmethod
    def fastest_busy(controller, work, memory):
        gpu = controller.gpu
        return np.array([min(gpu.busy_time_s(c, float(w), float(m))
                             for c in gpu.configurations())
                         for w, m in zip(work, memory)])

    def test_seeded_states_feasible_and_overloaded(self, gpu):
        controller = NMPCGpuController(gpu, target_fps=30.0)
        work, memory = self.seeded_states(gpu, 30.0, 300, seed=11)
        deadline = (1.0 / 30.0) * (1.0 - controller.deadline_margin)
        feasible = self.fastest_busy(controller, work, memory) <= deadline
        assert 50 < feasible.sum() < 250
        self.assert_matches_loop(controller, work, memory)

    def test_overload_picks_first_fastest(self, gpu):
        controller = NMPCGpuController(gpu, target_fps=60.0)
        # The last three states are memory bound: their compute times are
        # below half an ulp of the memory time for the faster
        # configurations, so several busy times tie exactly and the first
        # of them in configurations() order must win.
        work = np.array([1e12, 5e9, 3e7, 2e7, 0.0, 2e-9, 5e-9])
        memory = np.array([0.0, 1e9, 2e8, 5e8, 5e8, 5e8, 5e8])
        deadline = (1.0 / 60.0) * (1.0 - controller.deadline_margin)
        assert np.all(self.fastest_busy(controller, work, memory) > deadline)
        self.assert_matches_loop(controller, work, memory)

    def test_zero_memory_traffic(self, gpu):
        controller = NMPCGpuController(gpu, target_fps=30.0)
        work, _ = self.seeded_states(gpu, 30.0, 100, seed=12)
        self.assert_matches_loop(controller, work, np.zeros_like(work))
        self.assert_matches_loop(controller, np.zeros(3), np.zeros(3))

    def test_states_exactly_on_the_deadline(self, gpu):
        controller = NMPCGpuController(gpu, target_fps=30.0)
        deadline = (1.0 / 30.0) * (1.0 - controller.deadline_margin)
        on_deadline = []
        for config in gpu.configurations():
            # The work that makes this configuration's busy time equal the
            # deadline exactly, found by stepping one ulp at a time.
            work = deadline * (gpu.operating_point(config).frequency_hz
                               * gpu.slice_throughput_factor(config.active_slices))
            for _ in range(64):
                busy = gpu.busy_time_s(config, work, 0.0)
                if busy == deadline:
                    break
                work = float(np.nextafter(work, np.inf if busy < deadline
                                          else -np.inf))
            assert gpu.busy_time_s(config, work, 0.0) == deadline
            on_deadline.append((config, work))
        work = np.array([w for _, w in on_deadline])
        self.assert_matches_loop(controller, work, np.zeros_like(work))
        self.assert_matches_loop(controller, np.nextafter(work, np.inf),
                                 np.zeros_like(work))
        # Somewhere the configuration exactly on the deadline is the pick,
        # so a strict comparison would have changed the answer.
        assert any(controller.solve(w, 0.0) == config
                   for config, w in on_deadline)

    @pytest.mark.parametrize("current_slices", [1, 2])
    def test_switch_penalty_from_fewer_slices(self, gpu, current_slices):
        controller = NMPCGpuController(gpu, target_fps=30.0,
                                       slice_switch_energy_j=0.02)
        controller.current = GPUConfiguration(opp_index=2,
                                              active_slices=current_slices)
        work, memory = self.seeded_states(gpu, 30.0, 200, seed=13)
        self.assert_matches_loop(controller, work, memory)
        unpenalised = NMPCGpuController(gpu, target_fps=30.0,
                                        slice_switch_energy_j=0.02)
        unpenalised.current = GPUConfiguration(opp_index=2, active_slices=3)
        assert (controller.solve_batch(work, memory)[1]
                != unpenalised.solve_batch(work, memory)[1]).any()

    def test_repeated_operating_point_ties_exactly(self):
        points = list(default_integrated_gpu(n_opp_levels=4).opps)
        gpu = GPUSpec(opps=_RepeatingOPPTable(
            [points[0], points[1], points[1], points[2], points[3]]))
        controller = NMPCGpuController(gpu, target_fps=30.0)
        work, memory = self.seeded_states(gpu, 30.0, 300, seed=14)
        self.assert_matches_loop(controller, work, memory)
        opps, _ = controller.solve_batch(work, memory)
        # Opp 1 and 2 are the same point: every tie goes to the lower index.
        assert (opps == 1).any() and not (opps == 2).any()

    def test_configurations_twinned_across_slice_counts(self):
        # Perfect slice scaling, no leakage and one voltage make one slice
        # at 800 MHz and two slices at 400 MHz the same configuration to
        # the laws.  The (energy, opp_index, active_slices) rule picks two
        # slices at opp 0, which configurations() order lists second.
        gpu = GPUSpec(opps=OPPTable([OperatingPoint(400e6, 1.0),
                                     OperatingPoint(800e6, 1.0)]),
                      n_slices=2, slice_scaling_alpha=1.0,
                      leakage_w_per_v=0.0)
        controller = NMPCGpuController(gpu, target_fps=30.0,
                                       slice_switch_energy_j=0.0)
        work, memory = self.seeded_states(gpu, 30.0, 200, seed=15)
        self.assert_matches_loop(controller, work, memory)
        opps, slices = controller.solve_batch(work, memory)
        assert ((opps == 0) & (slices == 2)).any()
        assert not ((opps == 1) & (slices == 1)).any()

    def test_negative_inputs_raise(self, gpu):
        controller = NMPCGpuController(gpu, target_fps=30.0)
        with pytest.raises(ValueError):
            controller.solve(-1.0, 0.0)
        with pytest.raises(ValueError):
            controller.solve(1e6, -1.0)
        with pytest.raises(ValueError):
            controller.solve_batch([1e6, -1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            controller.solve_batch([1e6, 1e6], [0.0, -1.0])


class TestExplicitNMPC:
    def test_halton_sequence_in_unit_cube(self):
        samples = halton_sequence(50, 2)
        assert samples.shape == (50, 2)
        assert samples.min() >= 0.0 and samples.max() <= 1.0
        with pytest.raises(ValueError):
            halton_sequence(10, 99)

    def test_surface_close_to_exact_nmpc(self, gpu):
        controller = ExplicitNMPCGpuController(gpu, target_fps=30.0,
                                               n_surface_samples=200)
        controller.fit()
        assert controller.surface_disagreement(n_probe=60) < 0.35

    def test_control_law_respects_deadline_guard(self, gpu):
        controller = ExplicitNMPCGpuController(gpu, target_fps=30.0,
                                               n_surface_samples=120)
        controller.fit()
        deadline = (1.0 / 30.0) * (1.0 - controller.deadline_margin)
        work = gpu.max_throughput_cycles_per_s() / 30.0 * 0.8
        config = controller.control_law(work, work * 0.5)
        assert gpu.busy_time_s(config, work, work * 0.5) <= deadline * 1.02


class TestMultiRate:
    def test_saves_energy_vs_baseline_with_small_overhead(self, gpu):
        from repro.gpu.baseline_governor import BaselineGPUGovernor

        simulator = GPUSimulator(gpu, noise_scale=0.01, seed=0)
        trace = get_graphics_workload("vendettamark", gpu=gpu, n_frames=200, seed=0)
        baseline_run = simulator.run(trace, BaselineGPUGovernor(gpu, trace.target_fps))
        controller = MultiRateGPUController(gpu, target_fps=trace.target_fps)
        enmpc_run = simulator.run(trace, controller)
        assert enmpc_run.gpu_energy_j < baseline_run.gpu_energy_j
        assert enmpc_run.achieved_fps >= baseline_run.achieved_fps * 0.9

    def test_slow_rate_controls_slices(self, gpu):
        simulator = GPUSimulator(gpu, noise_scale=0.0, seed=0)
        trace = get_graphics_workload("angrybirds", gpu=gpu, n_frames=100, seed=0)
        controller = MultiRateGPUController(gpu, target_fps=trace.target_fps,
                                            slow_period=8)
        run = simulator.run(trace, controller)
        # A light game should not need every slice for the whole run.
        assert min(r.active_slices for r in run.frame_results) < gpu.n_slices

    def test_fast_rate_controller_steps_up_after_miss(self, gpu):
        fast = FastRateFrequencyController(gpu, target_fps=30.0)
        from repro.gpu.frames import Frame, FrameResult

        miss = FrameResult(
            frame=Frame(index=0, work_cycles=1e7, memory_bytes=0.0),
            opp_index=2, active_slices=2, busy_time_s=0.05, frame_time_s=0.05,
            gpu_energy_j=0.1, dram_energy_j=0.0, cpu_energy_j=0.0,
            deadline_s=1 / 30.0,
        )
        assert fast.correction(miss) >= 1
        assert fast.apply(len(gpu.opps) - 1, miss) == len(gpu.opps) - 1

    def test_fast_rate_controller_steps_down_when_idle(self, gpu):
        fast = FastRateFrequencyController(gpu, target_fps=30.0,
                                           utilization_setpoint=0.9)
        from repro.gpu.frames import Frame, FrameResult

        idle = FrameResult(
            frame=Frame(index=0, work_cycles=1e6, memory_bytes=0.0),
            opp_index=5, active_slices=3, busy_time_s=0.005, frame_time_s=1 / 30.0,
            gpu_energy_j=0.05, dram_energy_j=0.0, cpu_energy_j=0.0,
            deadline_s=1 / 30.0,
        )
        for _ in range(3):
            correction = fast.correction(idle)
        assert correction <= -1

    def test_validation(self, gpu):
        with pytest.raises(ValueError):
            MultiRateGPUController(gpu, target_fps=30.0, slow_period=0)
        with pytest.raises(ValueError):
            FastRateFrequencyController(gpu, target_fps=30.0, utilization_setpoint=0.0)
