"""A vjob whose VMs an operator stops from outside the loop.

The loop reads a vjob's state from its VMs: a drain of the command queue
that ran a command reconciles every live vjob, so a vjob whose VMs an
operator stopped is terminated before the next decision, which then asks
to stop the VMs it still runs and never to run a stopped one.  The
partial-stop rule of ``docs/ARCHITECTURE.md`` is the one asserted: a vjob
with one VM stopped from outside is terminated, and its other VMs are
stopped.  Such a vjob is neither completed nor unfinished; the run lists it
under ``metadata["stopped_vjobs"]``.
"""

from __future__ import annotations

from repro import Scenario
from repro.api import ControlLoop, LoopObserver
from repro.model import make_working_nodes
from repro.model.vjob import VJobState
from repro.model.vm import VMState
from repro.service.commands import LoopCommandQueue
from repro.testing import make_workload


def _stop_the_first_running_vjob(loop, now):
    """The operator stops every VM of the first running vjob."""
    for vjob in loop.queue:
        if vjob.state is VJobState.RUNNING:
            for vm_name in vjob.vm_names:
                loop.cluster.configuration.set_terminated(vm_name)
            return


def _stop_one_vm_of_the_first_running_vjob(loop, now):
    """The operator stops the first VM of the first running vjob."""
    for vjob in loop.queue:
        if vjob.state is VJobState.RUNNING:
            loop.cluster.configuration.set_terminated(vjob.vm_names[0])
            return


class _StopAt(LoopObserver):
    """Queues ``command`` at the first sample at or after ``at``, and keeps
    every decision and every sample's VM states of the vjob it stops."""

    def __init__(self, commands: LoopCommandQueue, command, at: float) -> None:
        self.commands = commands
        self.command = command
        self.at = at
        self.loop = None
        #: Per decision: the VMs it asks to run that are TERMINATED.
        self.asked_to_run_stopped: list[list[str]] = []
        #: ``(time, {vm: state})`` of the first vjob at every sample.
        self.states: list[tuple[float, dict[str, VMState]]] = []

    def on_run_start(self, loop):
        self.loop = loop

    def on_decision(self, now, decision):
        configuration = self.loop.cluster.configuration
        self.asked_to_run_stopped.append(
            [
                vm
                for vm, state in decision.vm_states.items()
                if state is VMState.RUNNING
                and configuration.state_of(vm) is VMState.TERMINATED
            ]
        )

    def on_sample(self, sample):
        configuration = self.loop.cluster.configuration
        self.states.append(
            (
                sample.time,
                {vm: configuration.state_of(vm) for vm in ("w0.vm0", "w0.vm1")},
            )
        )
        if self.at is not None and self.at <= sample.time:
            self.commands.call(self.command, label="stop")
            self.at = None


def _run(command):
    commands = LoopCommandQueue()
    observer = _StopAt(commands, command, 90.0)
    result = (
        Scenario(
            nodes=make_working_nodes(3, cpu_capacity=2, memory_capacity=4096),
            workloads=[make_workload(f"w{i}", duration=300.0) for i in range(3)],
            optimizer_timeout=1.0,
            observers=[observer],
        )
        .build(command_queue=commands)
        .run()
    )
    assert commands.applied == ["stop"] and commands.errors == []
    return result, observer


def test_an_operator_stop_leaves_no_round_unplannable():
    result, observer = _run(_stop_the_first_running_vjob)
    assert result.metadata["planning_failures"] == 0
    assert result.metadata["stopped_vjobs"] == ["w0"]
    assert "w0" not in result.completion_times
    assert "w0" not in result.unfinished_vjobs
    assert sorted(result.completion_times) == ["w1", "w2"]
    assert not any(observer.asked_to_run_stopped)


def test_a_partial_stop_terminates_the_vjob_and_stops_its_other_vms():
    """One VM of a running two-VM vjob is stopped: the vjob is terminated
    and its other, running VM is stopped by the next switch."""
    result, observer = _run(_stop_one_vm_of_the_first_running_vjob)
    assert result.metadata["planning_failures"] == 0
    assert result.metadata["stopped_vjobs"] == ["w0"]
    assert "w0" not in result.completion_times
    assert "w0" not in result.unfinished_vjobs
    assert not any(observer.asked_to_run_stopped)
    # The sample before the stop runs both VMs; the first one after it has
    # stopped both (the stop is drained at the next round, whose switch
    # stops the other VM).
    before = [states for time, states in observer.states if time < 90.0]
    after = [states for time, states in observer.states if time > 90.0]
    assert set(before[-1].values()) == {VMState.RUNNING}
    assert after and all(
        set(states.values()) == {VMState.TERMINATED} for states in after
    )
    assert any(switch.stops == 1 for switch in result.switches)


def test_the_reconcile_stops_the_idle_vms_of_a_partly_stopped_vjob():
    """White-box: a vjob with one VM stopped, one sleeping and one waiting
    is terminated, and its sleeping and waiting VMs are stopped at once —
    they need no driver action, and a kept image would hold nothing that
    can run again."""
    workload = make_workload("w0", vm_count=3, duration=300.0)
    loop = ControlLoop(
        nodes=make_working_nodes(2, cpu_capacity=2, memory_capacity=4096),
        workloads=[workload],
    )
    loop._submit_pending(0.0)
    configuration = loop.cluster.configuration
    stopped, sleeping, waiting = workload.vjob.vm_names
    configuration.set_running(stopped, "node-0")
    configuration.set_running(sleeping, "node-1")
    configuration.set_terminated(stopped)
    configuration.set_sleeping(sleeping, "node-1")
    workload.vjob.state = VJobState.SLEEPING
    loop._reconcile()
    assert workload.vjob.state is VJobState.TERMINATED
    assert all(
        configuration.state_of(vm) is VMState.TERMINATED
        for vm in (stopped, sleeping, waiting)
    )
    assert configuration.images_on("node-1") == ()
    assert loop._live == [] and loop._stopped == ["w0"]
