"""The loop command queue: mid-run vjob submission and fault injection."""

import pytest

from repro.api import LoopObserver
from repro.api.scenario import Scenario
from repro.model.node import make_working_nodes
from repro.service.commands import LoopCommandQueue
from repro.sim.faults import FaultEvent, FaultKind, FaultSchedule
from repro.testing import make_workload


def fast_scenario(**overrides):
    defaults = dict(
        nodes=make_working_nodes(4),
        workloads=[make_workload("base", vm_count=2, duration=120.0)],
        policy="ffd",
        optimizer_timeout=2.0,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def test_queued_workload_is_submitted_and_completes():
    queue = LoopCommandQueue()
    queue.submit_workload(make_workload("late", vm_count=2, duration=60.0))
    result = fast_scenario().build(command_queue=queue).run()
    assert "base" in result.completion_times
    assert "late" in result.completion_times
    assert queue.applied == ["submit_vjob:late"]
    assert queue.errors == []
    assert queue.pending == 0


class _SubmitsAfter(LoopObserver):
    """Queues ``workload`` at the sample taken at ``time``, and records the
    demand the live configuration holds for ``vm`` at every observation."""

    def __init__(self, queue, time, workload, vm):
        self.queue, self.time, self.workload, self.vm = queue, time, workload, vm
        self.seen = []

    def on_sample(self, sample):
        if sample.time == self.time:
            self.queue.submit_workload(self.workload)

    def on_iteration(self, now, configuration):
        if configuration.has_vm(self.vm):
            self.seen.append((now, configuration.vm(self.vm).cpu_demand))


def test_a_vjob_submitted_mid_run_has_its_demands_observed_at_once():
    # The VM is registered at 1 cpu and its trace starts idle: the first
    # observation after the command applied must write 0, then 1 once the
    # idle phase is over.
    queue = LoopCommandQueue()
    late = make_workload("late", vm_count=1, duration=60.0, idle_head=45.0)
    recorder = _SubmitsAfter(queue, 60.0, late, "late.vm0")
    result = fast_scenario(observers=[recorder]).build(command_queue=queue).run()
    assert queue.applied == ["submit_vjob:late"] and queue.errors == []
    assert late.vjob.submitted_at == 90.0
    assert recorder.seen[0] == (90.0, 0)
    assert (150.0, 1) in recorder.seen
    assert "late" in result.completion_times


def test_queued_fault_fires_during_the_run():
    queue = LoopCommandQueue()
    queue.inject_fault(
        FaultEvent(time=30.0, kind=FaultKind.NODE_CRASH, target="node-3")
    )
    scenario = fast_scenario(faults=FaultSchedule())
    result = scenario.build(command_queue=queue).run()
    assert [(f.kind, f.target) for f in result.faults] == [
        ("node_crash", "node-3")
    ]
    assert "base" in result.completion_times


def test_duplicate_vjob_is_recorded_as_error_not_crash():
    queue = LoopCommandQueue()
    queue.submit_workload(make_workload("base", vm_count=2, duration=60.0))
    result = fast_scenario().build(command_queue=queue).run()
    assert "base" in result.completion_times
    assert queue.applied == []
    (label, error) = queue.errors[0]
    assert label == "submit_vjob:base"
    assert "already submitted" in error


def test_fault_without_injector_is_recorded_as_error():
    queue = LoopCommandQueue()
    queue.inject_fault(
        FaultEvent(time=30.0, kind=FaultKind.NODE_CRASH, target="node-0")
    )
    # No FaultSchedule attached: the loop has no injector.
    result = fast_scenario().build(command_queue=queue).run()
    assert result.faults == []
    (label, error) = queue.errors[0]
    assert label.startswith("inject_fault:")
    assert "no fault injector" in error


def test_delayed_boot_injection_is_rejected():
    queue = LoopCommandQueue()
    queue.inject_fault(
        FaultEvent(time=30.0, kind=FaultKind.DELAYED_BOOT, target="node-1")
    )
    fast_scenario(faults=FaultSchedule()).build(command_queue=queue).run()
    (label, error) = queue.errors[0]
    assert "delayed_boot" in error


def test_generic_call_runs_at_the_boundary():
    queue = LoopCommandQueue()
    seen = []
    queue.call(lambda loop, now: seen.append(now), label="probe")
    fast_scenario().build(command_queue=queue).run()
    assert seen == [0.0]
    assert "probe" in queue.applied


def test_past_fault_time_is_clamped_to_now():
    # A fault stamped in the simulated past must not crash the engine: it
    # fires at the next boundary instead.
    queue = LoopCommandQueue()
    queue.inject_fault(
        FaultEvent(time=0.0, kind=FaultKind.NODE_CRASH, target="node-3")
    )
    result = (
        fast_scenario(faults=FaultSchedule())
        .build(command_queue=queue)
        .run()
    )
    assert len(result.faults) == 1
    assert result.faults[0].detected_at >= 0.0
