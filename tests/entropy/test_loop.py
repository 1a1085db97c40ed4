"""Tests of the Entropy control loop simulation."""

from repro import config
from repro.api.loop import ControlLoop
from repro.model.node import make_working_nodes
from repro.model.vjob import VJob, VJobState
from repro.model.vm import VirtualMachine
from repro.workloads.traces import VJobWorkload, alternating_trace, constant_trace


def simple_workload(name, vm_count=2, memory=512, duration=120.0, priority=0, idle_head=0.0):
    """A vjob whose VMs compute for ``duration`` seconds (optionally after an
    idle phase)."""
    vms = [
        VirtualMachine(name=f"{name}.vm{i}", memory=memory, cpu_demand=1, vjob=name)
        for i in range(vm_count)
    ]
    vjob = VJob(name=name, vms=vms, priority=priority)
    if idle_head > 0:
        trace = alternating_trace([(idle_head, 0), (duration, 1)])
    else:
        trace = constant_trace(duration, cpu_demand=1)
    return VJobWorkload(vjob=vjob, traces={vm.name: trace for vm in vms})


def consolidation_loop(nodes, workloads, **options):
    """The loop wired to the paper's sample policy (dynamic consolidation,
    Section 3.2) at the default decision period."""
    period = config.DECISION_PERIOD_S
    return ControlLoop(
        nodes,
        workloads,
        policy="consolidation",
        period=period,
        **options,
    )


class TestSingleVJob:
    def test_vjob_runs_to_completion(self):
        nodes = make_working_nodes(2, cpu_capacity=2, memory_capacity=4096)
        simulation = consolidation_loop(
            nodes, [simple_workload("j", vm_count=2, duration=100.0)],
            optimizer_timeout=2.0,
        )
        result = simulation.run()
        assert simulation.queue.get("j").is_terminated
        assert result.completion_times["j"] > 0
        assert result.makespan == result.completion_times["j"]
        # at least one context switch: the initial run of the vjob
        assert result.switch_count >= 1
        assert result.switches[0].runs == 2

    def test_progress_only_advances_while_running(self):
        nodes = make_working_nodes(1, cpu_capacity=1, memory_capacity=4096)
        # Two single-VM vjobs competing for one CPU: they cannot both run.
        workloads = [
            simple_workload("a", vm_count=1, duration=60.0, priority=1),
            simple_workload("b", vm_count=1, duration=60.0, priority=2),
        ]
        simulation = consolidation_loop(nodes, workloads, optimizer_timeout=2.0)
        result = simulation.run()
        assert simulation.queue.get("a").is_terminated
        assert simulation.queue.get("b").is_terminated
        # b can only finish after a released the CPU
        assert result.completion_times["b"] > result.completion_times["a"]


class TestOverloadHandling:
    def test_low_priority_vjob_is_suspended_then_resumed(self):
        nodes = make_working_nodes(1, cpu_capacity=1, memory_capacity=4096)
        # Both vjobs start idle, then compute: the cluster becomes overloaded
        # and the lower-priority vjob must be suspended.
        workloads = [
            simple_workload("high", vm_count=1, duration=90.0, priority=1, idle_head=60.0),
            simple_workload("low", vm_count=1, duration=90.0, priority=2, idle_head=60.0),
        ]
        simulation = consolidation_loop(nodes, workloads, optimizer_timeout=2.0)
        result = simulation.run()
        suspends = sum(s.suspends for s in result.switches)
        resumes = sum(s.resumes for s in result.switches)
        assert suspends >= 1
        assert resumes >= 1
        assert simulation.queue.get("high").is_terminated
        assert simulation.queue.get("low").is_terminated

    def test_configuration_stays_viable_after_every_switch(self):
        nodes = make_working_nodes(2, cpu_capacity=1, memory_capacity=2048)
        workloads = [
            simple_workload("a", vm_count=2, duration=80.0, priority=1, idle_head=30.0),
            simple_workload("b", vm_count=2, duration=80.0, priority=2, idle_head=30.0),
        ]
        simulation = consolidation_loop(nodes, workloads, optimizer_timeout=2.0)
        simulation.run()
        assert simulation.cluster.configuration.is_viable()


class TestRecords:
    def test_utilization_samples_are_collected(self):
        nodes = make_working_nodes(2, cpu_capacity=2, memory_capacity=4096)
        simulation = consolidation_loop(
            nodes, [simple_workload("j", vm_count=2, duration=100.0)],
            optimizer_timeout=2.0,
        )
        result = simulation.run()
        assert result.utilization
        assert all(0.0 <= s.cpu_fraction <= 1.0 for s in result.utilization)
        peak_memory = max(s.memory_used_mb for s in result.utilization)
        assert peak_memory == 1024  # two 512 MB VMs

    def test_switch_records_have_costs_and_durations(self):
        nodes = make_working_nodes(2, cpu_capacity=1, memory_capacity=2048)
        workloads = [
            simple_workload("a", vm_count=2, duration=80.0, priority=1, idle_head=30.0),
            simple_workload("b", vm_count=2, duration=80.0, priority=2, idle_head=30.0),
        ]
        simulation = consolidation_loop(nodes, workloads, optimizer_timeout=2.0)
        result = simulation.run()
        for record in result.switches:
            assert record.duration >= 0.0
            assert record.cost >= 0
            assert record.action_count >= 0

    def test_max_time_bounds_the_simulation(self):
        nodes = make_working_nodes(1, cpu_capacity=1, memory_capacity=512)
        # The VM can never run (not enough memory): the loop must stop anyway.
        workloads = [simple_workload("stuck", vm_count=1, memory=1024, duration=50.0)]
        simulation = consolidation_loop(
            nodes, workloads, optimizer_timeout=1.0, max_time=300.0
        )
        result = simulation.run()
        assert result.makespan <= 330.0
        assert not simulation.queue.get("stuck").is_terminated

    def test_submission_times_are_honoured(self):
        nodes = make_working_nodes(2, cpu_capacity=2, memory_capacity=4096)
        early = simple_workload("early", vm_count=1, duration=60.0, priority=1)
        late = simple_workload("late", vm_count=1, duration=60.0, priority=2)
        late.vjob.submitted_at = 120.0
        simulation = consolidation_loop(nodes, [early, late], optimizer_timeout=2.0)
        result = simulation.run()
        assert result.completion_times["late"] >= 120.0
