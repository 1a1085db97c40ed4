"""Tests of the NASGrid-like workload synthesis."""

import random

import pytest

from repro.workloads.nasgrid import (
    TASK_DURATION_S,
    Benchmark,
    NASGridSpec,
    ProblemClass,
    make_nasgrid_vjob,
    nasgrid_traces,
    paper_experiment_vjobs,
)


class TestTraceStructure:
    def test_ed_all_vms_compute_constantly(self):
        traces = nasgrid_traces(NASGridSpec(Benchmark.ED, ProblemClass.W, vm_count=4))
        assert all(p.cpu_demand > 0 for t in traces for p in t.phases)
        assert all(t.peak_demand == 1 for t in traces)

    def test_hc_only_one_vm_computes_at_a_time(self):
        traces = nasgrid_traces(NASGridSpec(Benchmark.HC, ProblemClass.W, vm_count=5))
        duration = traces[0].total_duration
        # sample the chain at several points and check the parallelism is 1
        for progress in [1.0, duration * 0.3, duration * 0.7, duration - 1.0]:
            active = sum(t.demand_at(progress) for t in traces)
            assert active == 1

    def test_hc_every_vm_computes_exactly_one_task(self):
        spec = NASGridSpec(Benchmark.HC, ProblemClass.A, vm_count=6)
        traces = nasgrid_traces(spec)
        for trace in traces:
            busy = sum(p.duration for p in trace.phases if p.cpu_demand > 0)
            assert busy == pytest.approx(spec.task_duration())

    def test_vp_pipeline_has_bounded_parallelism(self):
        traces = nasgrid_traces(NASGridSpec(Benchmark.VP, ProblemClass.W, vm_count=9))
        duration = max(t.total_duration for t in traces)
        peak = 0
        step = duration / 50
        progress = 0.0
        while progress < duration:
            peak = max(peak, sum(t.demand_at(progress) for t in traces))
            progress += step
        assert 1 <= peak <= 3

    def test_mb_parallelism_grows_over_time(self):
        traces = nasgrid_traces(NASGridSpec(Benchmark.MB, ProblemClass.W, vm_count=6))
        duration = max(t.total_duration for t in traces)
        early = sum(t.demand_at(duration * 0.05) for t in traces)
        late = sum(t.demand_at(duration * 0.9) for t in traces)
        assert early <= late

    def test_class_scaling(self):
        w = nasgrid_traces(NASGridSpec(Benchmark.HC, ProblemClass.W, vm_count=3))
        b = nasgrid_traces(NASGridSpec(Benchmark.HC, ProblemClass.B, vm_count=3))
        assert b[0].total_duration > w[0].total_duration
        assert TASK_DURATION_S[ProblemClass.W] < TASK_DURATION_S[ProblemClass.A]
        assert TASK_DURATION_S[ProblemClass.A] < TASK_DURATION_S[ProblemClass.B]

    def test_jitter_changes_durations_deterministically(self):
        spec = NASGridSpec(Benchmark.ED, ProblemClass.W, vm_count=3)
        a = nasgrid_traces(spec, rng=random.Random(1), jitter=0.2)
        b = nasgrid_traces(spec, rng=random.Random(1), jitter=0.2)
        c = nasgrid_traces(spec, rng=random.Random(2), jitter=0.2)
        assert [t.total_duration for t in a] == [t.total_duration for t in b]
        assert [t.total_duration for t in a] != [t.total_duration for t in c]

    def test_jitter_without_rng_is_deterministic(self):
        """The fallback RNG is seeded: two calls without an explicit rng must
        produce the same jittered traces (no hidden global randomness)."""
        spec = NASGridSpec(Benchmark.ED, ProblemClass.W, vm_count=3)
        a = nasgrid_traces(spec, jitter=0.2)
        b = nasgrid_traces(spec, jitter=0.2)
        assert [t.total_duration for t in a] == [t.total_duration for t in b]


class TestVJobFactory:
    def test_vjob_and_traces_are_consistent(self):
        workload = make_nasgrid_vjob(
            "job1", NASGridSpec(Benchmark.HC, ProblemClass.W, vm_count=4), memory_mb=1024
        )
        assert workload.vjob.name == "job1"
        assert len(workload.vjob.vms) == 4
        assert set(workload.traces) == set(workload.vjob.vm_names)
        assert all(vm.memory == 1024 for vm in workload.vjob.vms)
        assert all(vm.vjob == "job1" for vm in workload.vjob.vms)

    def test_initial_cpu_demand_matches_first_phase(self):
        workload = make_nasgrid_vjob(
            "job1", NASGridSpec(Benchmark.HC, ProblemClass.W, vm_count=3), memory_mb=512
        )
        for vm in workload.vjob.vms:
            assert vm.cpu_demand == workload.traces[vm.name].demand_at(0.0)

    def test_per_vm_memory_sizes(self):
        memories = [512, 1024, 2048]
        workload = make_nasgrid_vjob(
            "job1",
            NASGridSpec(Benchmark.ED, ProblemClass.W, vm_count=3),
            memory_mb=memories,
        )
        assert [vm.memory for vm in workload.vjob.vms] == memories

    def test_memory_list_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_nasgrid_vjob(
                "job1",
                NASGridSpec(Benchmark.ED, ProblemClass.W, vm_count=3),
                memory_mb=[512],
            )


class TestPaperExperimentVjobs:
    def test_eight_vjobs_of_nine_vms(self):
        workloads = paper_experiment_vjobs(count=8, vm_count=9)
        assert len(workloads) == 8
        assert all(len(w.vjob.vms) == 9 for w in workloads)
        assert all(w.vjob.submitted_at == 0.0 for w in workloads)
        priorities = [w.vjob.priority for w in workloads]
        assert priorities == sorted(priorities)

    def test_memory_sizes_are_in_paper_range(self):
        workloads = paper_experiment_vjobs(count=4, vm_count=9)
        for workload in workloads:
            for vm in workload.vjob.vms:
                assert vm.memory in (512, 1024, 2048)

    def test_generation_is_deterministic(self):
        a = paper_experiment_vjobs(count=3)
        b = paper_experiment_vjobs(count=3)
        assert [w.duration for w in a] == [w.duration for w in b]
