"""Tests for the workload specifications, generators, suites and sequences."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scalar_reference import trace_generator_loop
from scalar_reference.trace_generator_loop import ScalarSnippetTraceGenerator

from repro.soc.snippet import SnippetCharacteristics
from repro.workloads import (
    ALL_CPU_APPS,
    CORTEX_APPS,
    GRAPHICS_APPS,
    MIBENCH_APPS,
    PARSEC_APPS,
    SnippetTraceGenerator,
    WorkloadPhase,
    WorkloadSpec,
    build_online_sequence,
    figure4_workloads,
    get_graphics_workload,
    get_workload,
)
from repro.workloads.spec import single_phase_workload
from repro.workloads.suites import training_workloads, unseen_workloads


def _phase_mean(spec, name):
    """Snippet-count-weighted mean of one characteristic over the phases."""
    return sum(phase.n_snippets * getattr(phase.characteristics, name)
               for phase in spec.phases) / spec.n_snippets


class TestWorkloadSpec:
    def test_phase_validation(self):
        with pytest.raises(ValueError):
            WorkloadPhase(SnippetCharacteristics(), n_snippets=0)
        with pytest.raises(ValueError):
            WorkloadPhase(SnippetCharacteristics(), jitter=-0.1)

    def test_spec_requires_phases(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", suite="test", phases=())

    def test_n_snippets(self):
        spec = single_phase_workload("x", "test", SnippetCharacteristics(),
                                     n_snippets=7, snippet_instructions=1e6)
        assert spec.n_snippets == 7

    def test_scaled_changes_length_not_characteristics(self):
        spec = single_phase_workload("x", "test", SnippetCharacteristics(),
                                     n_snippets=20)
        shorter = spec.scaled(0.25)
        assert shorter.n_snippets == 5
        assert shorter.name == spec.name
        with pytest.raises(ValueError):
            spec.scaled(0.0)

    def test_scaled_never_drops_to_zero(self):
        spec = single_phase_workload("x", "test", SnippetCharacteristics(),
                                     n_snippets=3)
        assert spec.scaled(0.01).n_snippets >= 1


class TestTraceGenerator:
    def test_generates_requested_length(self):
        generator = SnippetTraceGenerator(seed=0)
        spec = get_workload("fft")
        trace = generator.generate(spec)
        assert len(trace) == spec.n_snippets
        assert all(s.application == "fft" for s in trace)
        assert [s.index for s in trace] == list(range(len(trace)))

    def test_deterministic_given_seed(self):
        spec = get_workload("qsort")
        trace_a = SnippetTraceGenerator(seed=5).generate(spec)
        trace_b = SnippetTraceGenerator(seed=5).generate(spec)
        assert all(
            a.characteristics.memory_intensity == b.characteristics.memory_intensity
            for a, b in zip(trace_a, trace_b)
        )

    def test_jitter_stays_near_mean(self):
        spec = get_workload("kmeans")
        trace = SnippetTraceGenerator(seed=1).generate(spec)
        mean_mpki = np.mean([s.characteristics.memory_intensity for s in trace])
        assert mean_mpki == pytest.approx(
            _phase_mean(spec, "memory_intensity"), rel=0.2)

    @settings(max_examples=20, deadline=None)
    @given(jitter=st.floats(min_value=0.0, max_value=0.3))
    def test_generated_characteristics_always_valid(self, jitter):
        spec = single_phase_workload(
            "prop", "test",
            SnippetCharacteristics(memory_intensity=5.0, memory_access_rate=0.5),
            n_snippets=5, jitter=jitter,
        )
        for snippet in SnippetTraceGenerator(seed=0).generate(spec):
            chars = snippet.characteristics
            assert 0.0 <= chars.memory_access_rate <= 1.0
            assert chars.memory_intensity >= 0.0
            assert 0.0 < chars.ilp_factor <= 1.0


_FLOAT_FIELDS = ("memory_intensity", "memory_access_rate",
                 "external_request_rate", "branch_misprediction_mpki",
                 "ilp_factor", "parallel_fraction", "big_fraction")


def _trace_bits(trace):
    """Every field of every snippet, floats as their IEEE-754 bytes."""
    return [
        (snippet.application, snippet.index, snippet.n_instructions,
         snippet.characteristics.thread_count,
         tuple(struct.pack("<d", getattr(snippet.characteristics, name))
               for name in _FLOAT_FIELDS))
        for snippet in trace
    ]


def _assert_matches_loop(generate, specs, seed):
    """``generate(generator, specs, rng)`` through the production generator
    and the per-snippet loop: same snippets bit for bit, same generator
    state afterwards."""
    rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    trace = generate(SnippetTraceGenerator(), specs, rng)
    reference = generate(ScalarSnippetTraceGenerator(), specs, reference_rng)
    assert _trace_bits(trace) == _trace_bits(reference)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def _generate_each(generator, specs, rng):
    return [snippet for spec in specs
            for snippet in generator.generate(spec, rng=rng)]


class TestGeneratorMatchesScalarLoop:
    """One normal block per phase == five scalar draws per snippet
    (``tests/scalar_reference/trace_generator_loop.py``), byte for byte."""

    @pytest.mark.parametrize("factor", [0.3, 1.0, 1.2, 2.5])
    @pytest.mark.parametrize("suite", [training_workloads, unseen_workloads])
    def test_suites_match_over_seeds(self, suite, factor):
        specs = [spec.scaled(factor) for spec in suite()]
        for seed in range(50):
            _assert_matches_loop(_generate_each, specs, seed)

    def test_online_sequences_match(self):
        for seed in range(20):
            sequence = build_online_sequence(specs=unseen_workloads(),
                                             snippet_factor=0.3, seed=seed)
            reference = trace_generator_loop.build_online_sequence(
                unseen_workloads(), snippet_factor=0.3, seed=seed)
            assert _trace_bits(sequence.snippets) == _trace_bits(
                reference.snippets)
            assert sequence.boundaries == reference.boundaries

    def test_clipping_at_the_bounds_matches(self):
        """Means on the clip bounds clip half the draws, and -0.0 and NaN
        means resolve as the scalar ``max``/``min`` do (a -0.0 rate stays
        -0.0, a -0.0 or NaN MPKI floors to 0.0)."""
        edge = SnippetCharacteristics(
            memory_intensity=-0.0, memory_access_rate=1.0,
            external_request_rate=-0.0, branch_misprediction_mpki=0.0,
            ilp_factor=0.05, parallel_fraction=1.0, big_fraction=-0.0,
        )
        # The constructor refuses NaN; a mean set after it still clips.
        unknown = SnippetCharacteristics()
        unknown.memory_intensity = float("nan")
        unknown.branch_misprediction_mpki = float("nan")
        spec = WorkloadSpec(name="edge", suite="test", phases=(
            WorkloadPhase(edge, n_snippets=40, jitter=0.3),
            WorkloadPhase(unknown, n_snippets=5, jitter=0.3),
            WorkloadPhase(edge, n_snippets=3, jitter=0.0),
        ))
        for seed in range(10):
            _assert_matches_loop(_generate_each, [spec], seed)

    def test_zero_jitter_phase_draws_nothing(self):
        still = WorkloadPhase(SnippetCharacteristics(memory_intensity=3.0),
                              n_snippets=4, jitter=0.0)
        moving = WorkloadPhase(SnippetCharacteristics(), n_snippets=3,
                               jitter=0.1)
        quiet = WorkloadSpec(name="quiet", suite="test", phases=(still,))
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        trace = SnippetTraceGenerator().generate(quiet, rng=rng)
        assert rng.bit_generator.state == before
        assert {s.characteristics.memory_intensity for s in trace} == {3.0}
        mixed = WorkloadSpec(name="mixed", suite="test",
                             phases=(moving, still, moving))
        for seed in range(10):
            _assert_matches_loop(_generate_each, [mixed, quiet], seed)


class TestSuites:
    def test_suite_membership_counts(self):
        assert len(MIBENCH_APPS) == 10
        assert len(CORTEX_APPS) == 4
        assert len(PARSEC_APPS) == 2
        assert len(ALL_CPU_APPS) == 16

    def test_figure4_order_covers_all_apps(self):
        assert len(figure4_workloads()) == 16
        assert {w.name for w in figure4_workloads()} == set(ALL_CPU_APPS)

    def test_get_workload_case_insensitive_and_errors(self):
        assert get_workload("KMEANS").name == "kmeans"
        with pytest.raises(KeyError):
            get_workload("doom")

    def test_training_and_unseen_partition(self):
        train = {w.name for w in training_workloads()}
        unseen = {w.name for w in unseen_workloads()}
        assert train.isdisjoint(unseen)
        assert train | unseen == set(ALL_CPU_APPS)

    def test_suite_distribution_shift(self):
        """Cortex apps are markedly more memory intensive than Mi-Bench apps."""
        mibench_mpki = np.mean([_phase_mean(w, "memory_intensity")
                                for w in MIBENCH_APPS.values()])
        cortex_mpki = np.mean([_phase_mean(w, "memory_intensity")
                               for w in CORTEX_APPS.values()])
        assert cortex_mpki > 2.0 * mibench_mpki

    def test_parsec_apps_are_multithreaded(self):
        assert all(round(_phase_mean(w, "thread_count")) > 1
                   for w in PARSEC_APPS.values())


class TestSequences:
    def test_default_sequence_covers_unseen_apps(self):
        sequence = build_online_sequence(snippet_factor=0.5, seed=0)
        apps = sequence.applications()
        assert set(apps) == {w.name for w in unseen_workloads()}
        assert len(sequence) == sum(
            w.scaled(0.5).n_snippets for w in unseen_workloads())

    def test_boundaries_recorded(self):
        sequence = build_online_sequence(snippet_factor=0.5, seed=0)
        assert sequence.boundaries[sequence.applications()[0]] == 0


class TestGraphicsWorkloads:
    def test_ten_figure5_benchmarks(self):
        assert len(GRAPHICS_APPS) == 10

    def test_trace_generation_scales_with_load(self):
        light = get_graphics_workload("angrybirds", n_frames=100, seed=0)
        heavy = get_graphics_workload("gfxbench-trex", n_frames=100, seed=0)
        assert heavy.mean_work_cycles() > 2.0 * light.mean_work_cycles()
        assert len(light) == 100

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            get_graphics_workload("crysis")

    def test_nenamark_trace_available(self):
        trace = get_graphics_workload("nenamark2", n_frames=50, seed=0)
        assert trace.target_fps == 60.0
        assert trace.deadline_s == pytest.approx(1.0 / 60.0)

    def test_trace_deterministic_for_seed(self):
        a = get_graphics_workload("sharkdash", n_frames=30, seed=7)
        b = get_graphics_workload("sharkdash", n_frames=30, seed=7)
        assert [f.work_cycles for f in a.frames] == [f.work_cycles for f in b.frames]
