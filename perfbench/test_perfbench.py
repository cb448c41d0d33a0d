"""Tests of the benchmark itself (not of the program it measures).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

import reference
import spec
import targets
from tracing import Span, Tracer, self_times, summarize

ROOT = Path(__file__).resolve().parent.parent


def _spans(*rows):
    return [Span(name, start, end, parent, -1)
            for name, start, end, parent in rows]


class TestSelfTime:
    def test_nested_children_count_once(self):
        # root [0,10] > child [1,6] > grandchild [2,5]: the grandchild is
        # inside the child, so the root loses only the child's 5 s.
        spans = _spans(("root", 0, 10, -1), ("child", 1, 6, 0),
                       ("grand", 2, 5, 1))
        assert self_times(spans) == [5, 2, 3]

    def test_back_to_back_children(self):
        spans = _spans(("root", 0, 10, -1), ("a", 1, 4, 0), ("b", 4, 7, 0))
        assert self_times(spans) == [4, 3, 3]

    def test_child_overrunning_parent_is_clipped(self):
        spans = _spans(("root", 0, 10, -1), ("a", 8, 12, 0))
        assert self_times(spans) == [8, 4]

    def test_recursive_name_is_busy_once(self):
        spans = _spans(("f", 0, 10, -1), ("f", 2, 6, 0), ("g", 11, 12, -1))
        stats = summarize(spans)
        assert stats["f"].total_s == 10
        assert stats["f"].calls == 2
        assert stats["f"].self_s == 10
        assert stats["g"].total_s == 1

    def test_recorded_spans_nest(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: next(ticks))

        def inner():
            return 1

        def outer():
            return wrapped_inner() + wrapped_inner()

        wrapped_inner = tracer.wrap(inner, "inner")
        assert tracer.wrap(outer, "outer")() == 2
        names = [(s.name, s.parent) for s in tracer.spans]
        assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
        assert self_times(tracer.spans)[0] == 5 - 2


def _stretch(work_s, *kernel_s):
    stretch = reference.Stretch()
    stretch.add(work_s, [k * reference.NOMINAL_S for k in kernel_s])
    return stretch


class TestHostSpeedScaling:
    def test_work_is_scaled_by_the_mean_kernel_time(self):
        assert _stretch(4.0, 1, 2, 3, 2).scaled() == pytest.approx(2.0)
        assert _stretch(4.0, 1).scaled() == 4.0

    def test_a_stretch_without_samples_is_refused(self):
        with pytest.raises(RuntimeError):
            _stretch(1.0).scaled()

    def test_timed_blocks_exclude_kernel_time(self):
        ticks = iter([0.0, 2.5])
        stretch = reference.Stretch()
        sampler = reference.Sampler(None)
        original = reference.time.perf_counter
        reference.time.perf_counter = lambda: next(ticks)
        try:
            with sampler.timed(stretch):
                sampler.kernel_total_s += 0.5  # as a sample inside would
        finally:
            reference.time.perf_counter = original
        assert stretch.work_s == 2.0

    def test_sampler_samples_inside_timed_blocks_only(self):
        stretch = reference.Stretch()
        with reference.Sampler(0.005) as sampler:
            reference.time.sleep(0.05)
            assert sampler.kernel_total_s == 0.0
            with sampler.timed(stretch):
                deadline = reference.time.perf_counter() + 0.1
                while reference.time.perf_counter() < deadline:
                    pass
        assert len(stretch.kernel_s) >= 3
        assert sampler.kernel_total_s == pytest.approx(sum(stretch.kernel_s))
        assert reference.signal.getitimer(reference.signal.ITIMER_REAL) == (
            0.0, 0.0)

    def test_metrics_are_medians_over_the_run(self):
        from workloads import Cycle, end_to_end
        cycles = [Cycle(setup=_stretch(2.0, 1), setups=2,
                        work=_stretch(2.0, 1)),
                  Cycle(setup=_stretch(4.0, 2), setups=1,
                        work=_stretch(3.0, 2)),
                  Cycle(work=_stretch(9.0, 1))]
        assert end_to_end(cycles, 50.0) == {
            "setup_s": 1.5, "pass_s": 2.0, "peak_rss_mb": 50.0}


class TestWrapperRemoval:
    def test_every_target_is_restored(self):
        originals = []
        for module_name, class_name, attribute, _ in targets.TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
                originals.append((owner, attribute,
                                  owner.__dict__[attribute]))
            else:
                originals.append((owner, attribute,
                                  getattr(owner, attribute)))
        tracer = Tracer()
        targets.install(tracer)
        try:
            changed = [(owner, attribute) for owner, attribute, original
                       in originals
                       if (owner.__dict__[attribute]
                           if isinstance(owner, type)
                           else getattr(owner, attribute)) is original]
            assert changed == []
            from repro.workloads import sequences
            sequences.build_online_sequence(snippet_factor=0.2, seed=1)
        finally:
            tracer.restore()
        assert [s.name for s in tracer.spans] == [
            "workloads.build_online_sequence"]
        for owner, attribute, original in originals:
            current = (owner.__dict__[attribute] if isinstance(owner, type)
                       else getattr(owner, attribute))
            assert current is original, f"{owner}.{attribute}"

    def test_classmethod_stays_a_classmethod(self):
        from repro.service.run import ServiceRun
        tracer = Tracer()
        tracer.patch(ServiceRun, "recover", "service.run.recover")
        try:
            assert isinstance(ServiceRun.__dict__["recover"], classmethod)
        finally:
            tracer.restore()


class TestSpec:
    def test_benchmark_json_is_generated_from_spec(self):
        committed = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert committed == spec.benchmark_json()

    def test_should_move_targets_are_end_to_end_metrics(self):
        workloads = [name for name, _ in spec.WORKLOADS]
        for name, (_, _, moves) in spec.PER_LAYER.items():
            for workload, metric in moves:
                assert workload in workloads, (name, workload)
                assert metric in spec.END_TO_END, (name, metric)

    def test_experiment_spans_cover_the_registry(self):
        from repro.experiments.runner import available_experiments
        assert sorted(spec.EXPERIMENTS) == sorted(available_experiments())
