"""Tests of the static-allocation (FCFS) baseline simulator."""

import pytest

from repro.decision.static import StaticAllocationSimulator
from repro.model.node import make_working_nodes
from repro.model.vjob import VJob
from repro.model.vm import VirtualMachine
from repro.workloads.traces import VJobWorkload, alternating_trace


def workload(name, vm_count, duration=100.0, busy_fraction=0.5, memory=512, priority=0):
    vms = [
        VirtualMachine(name=f"{name}.vm{i}", memory=memory, cpu_demand=1, vjob=name)
        for i in range(vm_count)
    ]
    vjob = VJob(name=name, vms=vms, priority=priority)
    busy = duration * busy_fraction
    trace = alternating_trace([(busy, 1), (duration - busy, 0)])
    return VJobWorkload(vjob=vjob, traces={vm.name: trace for vm in vms})


class TestStaticRun:
    def test_jobs_book_their_peak_demand(self):
        nodes = make_working_nodes(2, cpu_capacity=2, memory_capacity=4096)
        workloads = [workload("a", vm_count=4), workload("b", vm_count=4)]
        result = StaticAllocationSimulator(nodes, workloads).run()
        # 4 CPUs total: the two 4-CPU jobs cannot overlap
        a = result.schedule.allocation_of("a")
        b = result.schedule.allocation_of("b")
        assert b.start >= a.end or a.start >= b.end
        assert result.makespan == pytest.approx(200.0)

    def test_completion_times_reported_per_vjob(self):
        nodes = make_working_nodes(4, cpu_capacity=2, memory_capacity=4096)
        workloads = [workload("a", vm_count=2), workload("b", vm_count=2)]
        result = StaticAllocationSimulator(nodes, workloads).run()
        assert set(result.completion_times) == {"a", "b"}
        assert all(v > 0 for v in result.completion_times.values())

    def test_utilization_reflects_actual_demand_not_booking(self):
        nodes = make_working_nodes(2, cpu_capacity=2, memory_capacity=4096)
        workloads = [workload("a", vm_count=4, busy_fraction=0.5)]
        result = StaticAllocationSimulator(nodes, workloads).run()
        early = result.utilization[0]
        late = [s for s in result.utilization if s.time >= 60.0][0]
        assert early.cpu_used_units == 4       # all VMs computing
        assert late.cpu_used_units == 0        # booked but idle
        assert late.memory_used_mb == 4 * 512  # memory stays claimed

    def test_memory_dimension_limits_concurrency(self):
        nodes = make_working_nodes(1, cpu_capacity=8, memory_capacity=2048)
        workloads = [
            workload("fat1", vm_count=2, memory=1024),
            workload("fat2", vm_count=2, memory=1024),
        ]
        result = StaticAllocationSimulator(nodes, workloads).run()
        a = result.schedule.allocation_of("fat1")
        b = result.schedule.allocation_of("fat2")
        assert b.start >= a.end or a.start >= b.end

    def test_backfilling_none_is_supported(self):
        nodes = make_working_nodes(2, cpu_capacity=2, memory_capacity=4096)
        workloads = [workload("a", vm_count=4), workload("b", vm_count=1)]
        easy = StaticAllocationSimulator(nodes, workloads, backfilling="easy").run()
        plain = StaticAllocationSimulator(nodes, workloads, backfilling="none").run()
        assert easy.makespan <= plain.makespan
