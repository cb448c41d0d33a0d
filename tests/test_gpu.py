"""Tests for the GPU subsystem: hardware model, frame traces, simulator, baseline governor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import (
    BaselineGPUGovernor,
    Frame,
    FrameTrace,
    GPUConfiguration,
    GPUSimulator,
    GPUSpec,
    default_integrated_gpu,
)
from repro.gpu.frames import generate_frame_trace
from repro.workloads.graphics import get_graphics_workload


@pytest.fixture(scope="module")
def gpu():
    return default_integrated_gpu()


@pytest.fixture()
def gpu_simulator(gpu):
    return GPUSimulator(gpu, noise_scale=0.0, seed=0)


class TestGPUSpec:
    def test_configuration_enumeration(self, gpu):
        configs = gpu.configurations()
        assert len(configs) == len(gpu.opps) * gpu.n_slices
        assert all(1 <= c.active_slices <= gpu.n_slices for c in configs)

    def test_busy_time_decreases_with_frequency_and_slices(self, gpu):
        work, memory = 5e7, 1e7
        slow = gpu.busy_time_s(GPUConfiguration(0, 1), work, memory)
        fast = gpu.busy_time_s(GPUConfiguration(len(gpu.opps) - 1, 1), work, memory)
        more_slices = gpu.busy_time_s(GPUConfiguration(0, gpu.n_slices), work, memory)
        assert fast < slow
        assert more_slices < slow

    def test_slice_scaling_sublinear(self, gpu):
        assert gpu.slice_throughput_factor(3) < 3.0
        assert gpu.slice_throughput_factor(1) == 1.0

    def test_active_power_increases_with_knobs(self, gpu):
        low = gpu.active_power_w(GPUConfiguration(0, 1))
        high_freq = gpu.active_power_w(GPUConfiguration(len(gpu.opps) - 1, 1))
        more_slices = gpu.active_power_w(GPUConfiguration(0, gpu.n_slices))
        assert high_freq > low
        assert more_slices > low

    def test_idle_power_below_active_power(self, gpu):
        config = GPUConfiguration(len(gpu.opps) - 1, gpu.n_slices)
        assert gpu.idle_power_w_at(config) < gpu.active_power_w(config)

    def test_gating_slices_reduces_idle_power(self, gpu):
        all_on = gpu.idle_power_w_at(GPUConfiguration(0, gpu.n_slices))
        one_on = gpu.idle_power_w_at(GPUConfiguration(0, 1))
        assert one_on < all_on

    def test_invalid_inputs(self, gpu):
        with pytest.raises(ValueError):
            GPUConfiguration(opp_index=-1, active_slices=1)
        with pytest.raises(ValueError):
            GPUConfiguration(opp_index=0, active_slices=0)
        with pytest.raises(ValueError):
            gpu.busy_time_s(GPUConfiguration(0, 1), -1.0, 0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GPUSpec(opps=default_integrated_gpu().opps, n_slices=0)
        with pytest.raises(ValueError):
            GPUSpec(opps=default_integrated_gpu().opps, slice_scaling_alpha=1.5)


class TestFrames:
    def test_frame_validation(self):
        with pytest.raises(ValueError):
            Frame(index=0, work_cycles=0.0, memory_bytes=0.0)
        with pytest.raises(ValueError):
            Frame(index=0, work_cycles=1.0, memory_bytes=-1.0)

    def test_trace_generation_properties(self):
        trace = generate_frame_trace("t", n_frames=100, mean_work_cycles=1e7,
                                     seed=0, target_fps=30.0)
        assert len(trace) == 100
        assert trace.deadline_s == pytest.approx(1 / 30.0)
        assert trace.mean_work_cycles() == pytest.approx(1e7, rel=0.2)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            FrameTrace(name="x", frames=[], target_fps=30.0)
        with pytest.raises(ValueError):
            generate_frame_trace("x", n_frames=0, mean_work_cycles=1e7)


class TestGPUSimulator:
    def test_frame_result_energy_accounting(self, gpu, gpu_simulator):
        frame = Frame(index=0, work_cycles=2e7, memory_bytes=5e6)
        config = GPUConfiguration(len(gpu.opps) - 1, gpu.n_slices)
        result = gpu_simulator.render_frame(frame, config, deadline_s=1 / 30.0,
                                            deterministic=True)
        assert result.gpu_energy_j > 0
        assert result.package_energy_j > result.gpu_energy_j
        assert result.package_dram_energy_j > result.package_energy_j
        assert result.met_deadline
        assert result.frame_time_s == pytest.approx(1 / 30.0)

    def test_overloaded_frame_misses_deadline(self, gpu, gpu_simulator):
        heavy = Frame(index=0, work_cycles=1e10, memory_bytes=0.0)
        config = GPUConfiguration(0, 1)
        result = gpu_simulator.render_frame(heavy, config, deadline_s=1 / 30.0,
                                            deterministic=True)
        assert not result.met_deadline
        assert result.frame_time_s > 1 / 30.0

    def test_run_fixed_summary(self, gpu, gpu_simulator):
        trace = get_graphics_workload("angrybirds", gpu=gpu, n_frames=60, seed=0)
        config = GPUConfiguration(len(gpu.opps) - 1, gpu.n_slices)
        summary = gpu_simulator.run_fixed(trace, config)
        assert summary.n_frames == 60
        assert summary.deadline_miss_rate == 0.0
        assert summary.achieved_fps == pytest.approx(trace.target_fps, rel=0.01)
        assert summary.gpu_energy_j > 0

    def test_deterministic_run_ignores_configured_noise(self, gpu):
        trace = get_graphics_workload("nenamark2", gpu=gpu, n_frames=30, seed=3)
        config = GPUConfiguration(len(gpu.opps) // 2, gpu.n_slices)
        noisy = GPUSimulator(gpu, noise_scale=0.05, seed=0)
        quiet = GPUSimulator(gpu, noise_scale=0.0, seed=1)
        reference = quiet.run_fixed(trace, config)
        assert noisy.run_fixed(trace, config).frame_results == (
            reference.frame_results)
        sampled = noisy.run_fixed(trace, config, deterministic=False)
        assert sampled.busy_time_series_s().tolist() != (
            reference.busy_time_series_s().tolist())

    def test_higher_frequency_burns_more_gpu_energy(self, gpu, gpu_simulator):
        trace = get_graphics_workload("nenamark2", gpu=gpu, n_frames=20, seed=0)
        energies = [
            gpu_simulator.run_fixed(
                trace, GPUConfiguration(opp, gpu.n_slices)).gpu_energy_j
            for opp in range(len(gpu.opps))
        ]
        assert energies[-1] > energies[0]

    def test_lower_frequency_saves_energy_for_light_load(self, gpu, gpu_simulator):
        trace = get_graphics_workload("angrybirds", gpu=gpu, n_frames=60, seed=0)
        high = gpu_simulator.run_fixed(trace, GPUConfiguration(len(gpu.opps) - 1,
                                                               gpu.n_slices))
        low = gpu_simulator.run_fixed(trace, GPUConfiguration(2, 1))
        if low.deadline_miss_rate == 0.0:
            assert low.gpu_energy_j < high.gpu_energy_j


class TestBaselineGovernor:
    def test_meets_fps_on_every_benchmark(self, gpu):
        simulator = GPUSimulator(gpu, noise_scale=0.01, seed=1)
        for name in ("angrybirds", "gfxbench-trex", "sharkdash"):
            trace = get_graphics_workload(name, gpu=gpu, n_frames=120, seed=0)
            governor = BaselineGPUGovernor(gpu, target_fps=trace.target_fps)
            summary = simulator.run(trace, governor)
            assert summary.deadline_miss_rate < 0.05
            assert summary.achieved_fps >= trace.target_fps * 0.97

    def test_keeps_all_slices_active(self, gpu):
        governor = BaselineGPUGovernor(gpu, target_fps=30.0)
        simulator = GPUSimulator(gpu, noise_scale=0.0, seed=0)
        trace = get_graphics_workload("fruitninja", gpu=gpu, n_frames=40, seed=0)
        summary = simulator.run(trace, governor)
        assert all(r.active_slices == gpu.n_slices for r in summary.frame_results)

    def test_scales_frequency_with_load(self, gpu):
        simulator = GPUSimulator(gpu, noise_scale=0.0, seed=0)
        light_trace = get_graphics_workload("angrybirds", gpu=gpu, n_frames=60, seed=0)
        heavy_trace = get_graphics_workload("gfxbench-trex", gpu=gpu, n_frames=60, seed=0)
        light = simulator.run(light_trace, BaselineGPUGovernor(gpu, 30.0))
        heavy = simulator.run(heavy_trace, BaselineGPUGovernor(gpu, 30.0))
        light_mean_opp = np.mean([r.opp_index for r in light.frame_results[20:]])
        heavy_mean_opp = np.mean([r.opp_index for r in heavy.frame_results[20:]])
        assert heavy_mean_opp > light_mean_opp

    def test_parameter_validation(self, gpu):
        with pytest.raises(ValueError):
            BaselineGPUGovernor(gpu, target_fps=0.0)
        with pytest.raises(ValueError):
            BaselineGPUGovernor(gpu, target_fps=30.0, headroom=-0.1)
        with pytest.raises(ValueError):
            BaselineGPUGovernor(gpu, target_fps=30.0, window=0)

    def test_reset_restores_max_configuration(self, gpu):
        governor = BaselineGPUGovernor(gpu, target_fps=30.0)
        governor.reset()
        assert governor.current.opp_index == len(gpu.opps) - 1
        assert governor.current.active_slices == gpu.n_slices

    @settings(max_examples=10, deadline=None)
    @given(work=st.floats(min_value=1e6, max_value=5e8),
           memory=st.floats(min_value=0.0, max_value=1e8))
    def test_busy_time_monotone_in_work_property(self, work, memory):
        gpu = default_integrated_gpu()
        config = GPUConfiguration(3, 2)
        base = gpu.busy_time_s(config, work, memory)
        more = gpu.busy_time_s(config, work * 1.5, memory)
        assert more > base
