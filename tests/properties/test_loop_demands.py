"""The loop observes what the traces demand — stated against the
specification, not a copy of the loop.

The control loop keeps its demand cache as a delta: ``_advance`` refreshes
the vjobs it moved, and an observation carries only the demands that changed
since the previous fresh one.  The property holds the live configuration to
the rule the paper's monitoring states (Section 3.1): after every observe,
each VM's CPU demand is its trace's demand at its vjob's progress *as of the
last fresh observation* — a stale one, inside the refresh delay after a
switch, keeps the values it had; a VM that joined since the last fresh
observation keeps the demand it was registered with.  The runs draw stale
windows (the period and the VM sizes set how long a switch takes), node
crashes, slowdowns, migration failures and mid-run submissions over the
operator's command queue.

After every round the loop's own records of its vjobs are held to their
definitions over ``loop.workloads``: the arriving list (admitted, not yet
submitted) and the live one (submitted, not terminated), both in admission
order, and the VM→vjob index that admission keeps.  Some runs draw an
operator command that stops every VM, or one VM, of a running vjob, under
the default policy: the reconcile after that drain terminates the vjob
(the partial-stop rule of ``docs/ARCHITECTURE.md``), and no decision asks
to run a TERMINATED VM.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import FaultSchedule, Scenario, config
from repro.api import LoopObserver
from repro.model.errors import PlanningError
from repro.model import make_working_nodes
from repro.model.vjob import VJobState, index_vms_by_vjob
from repro.model.vm import VMState
from repro.service.commands import LoopCommandQueue
from repro.testing import make_vjob, make_workload
from repro.workloads.traces import VJobWorkload, alternating_trace

_PHASES = st.lists(
    st.tuples(st.sampled_from([10.0, 25.0, 40.0, 70.0]), st.integers(0, 2)),
    min_size=1,
    max_size=4,
)


@st.composite
def _workload(draw, name, submitted_at=0.0):
    vm_count = draw(st.integers(1, 3))
    vjob = make_vjob(
        name,
        vm_count=vm_count,
        memory=draw(st.sampled_from([256, 1024, 2048])),
        priority=draw(st.integers(0, 2)),
    )
    vjob.submitted_at = submitted_at
    traces = {vm.name: alternating_trace(draw(_PHASES)) for vm in vjob.vms}
    return VJobWorkload(vjob=vjob, traces=traces)


def _stop_a_running_vjob(loop, now):
    """The operator stops every VM of the first running vjob."""
    for vjob in loop.queue:
        if vjob.state is VJobState.RUNNING:
            for vm_name in vjob.vm_names:
                loop.cluster.configuration.set_terminated(vm_name)
            return


def _stop_one_vm_of_a_running_vjob(loop, now):
    """The operator stops the last VM of the first running vjob."""
    for vjob in loop.queue:
        if vjob.state is VJobState.RUNNING:
            loop.cluster.configuration.set_terminated(vjob.vm_names[-1])
            return


@st.composite
def _runs(draw):
    """A scenario, the ``(sample time, workload)`` submissions the operator
    queues during it, and ``(sample time, command)`` of its stop (or
    ``None``)."""
    node_count = draw(st.integers(2, 4))
    arrivals = st.sampled_from([0.0, 0.0, 45.0, 90.0])
    workloads = [
        draw(_workload(f"j{index}", draw(arrivals)))
        for index in range(draw(st.integers(1, 4)))
    ]
    names = [f"node-{index}" for index in range(node_count)]
    faults = FaultSchedule(
        migration_failure_rate=draw(st.sampled_from([0.0, 0.3, 0.6])),
        seed=draw(st.integers(0, 99)),
    )
    if draw(st.booleans()):
        faults.node_crash(
            draw(st.sampled_from(names)), at=draw(st.sampled_from([30.0, 95.0]))
        )
    for _ in range(draw(st.integers(0, 2))):
        faults.node_slowdown(
            draw(st.sampled_from(names)),
            at=draw(st.sampled_from([0.0, 20.0, 60.0])),
            duration=draw(st.sampled_from([15.0, 50.0, 120.0])),
            factor=draw(st.sampled_from([1.5, 3.0])),
        )
    submissions = [
        (draw(st.sampled_from([0.0, 30.0, 60.0, 120.0])), draw(_workload(f"op{i}")))
        for i in range(draw(st.integers(0, 2)))
    ]
    stop_at = draw(st.sampled_from([30.0, None, 60.0, None]))
    if stop_at is not None:
        stop_at = (
            stop_at,
            draw(st.sampled_from([_stop_a_running_vjob, _stop_one_vm_of_a_running_vjob])),
        )
    scenario = Scenario(
        nodes=make_working_nodes(node_count, cpu_capacity=2, memory_capacity=4096),
        workloads=workloads,
        period=draw(st.sampled_from([5.0, 12.0, 30.0])),
        optimizer_timeout=1.0,
        max_time=900.0,
        faults=faults,
    )
    return scenario, submissions, stop_at


class _Specification(LoopObserver):
    """Checks every observation against the traces, and queues the
    operator's submissions at the samples they were drawn for."""

    def __init__(self, commands, submissions, stop_at=None):
        self.commands = commands
        self.submissions = list(submissions)
        self.stop_at = stop_at
        #: vjobs the reconcile retired: terminated, never completed.
        self.retired = set()
        #: Per decision, the TERMINATED VMs it asks to run.
        self.asked_to_run_stopped = []
        self.loop = None
        self.reconfigured = None
        self.last_fresh = None
        self.observations = self.fresh = 0

    def on_run_start(self, loop):
        self.loop = loop

    def on_decision(self, now, decision):
        configuration = self.loop.cluster.configuration
        self.asked_to_run_stopped.extend(
            vm
            for vm, state in decision.vm_states.items()
            if state is VMState.RUNNING
            and configuration.state_of(vm) is VMState.TERMINATED
        )

    def on_switch(self, record, report):
        self.reconfigured = record.time + record.duration

    def on_sample(self, sample):
        self.check_vjob_records()
        for time, workload in list(self.submissions):
            if time <= sample.time:
                self.commands.submit_workload(workload)
                self.submissions.remove((time, workload))
        if self.stop_at is not None and self.stop_at[0] <= sample.time:
            self.commands.call(self.stop_at[1], label="stop")
            self.stop_at = None

    def on_run_end(self, result):
        self.check_vjob_records()
        self.retired = {
            vjob.name
            for vjob in self.loop.queue
            if vjob.is_terminated and vjob.name not in result.completion_times
        }

    def check_vjob_records(self):
        """The loop's lists and index, against their definitions."""
        loop = self.loop
        workloads, queue = loop.workloads, loop.queue
        assert [w.vjob.name for w in loop._arriving] == [
            w.vjob.name for w in workloads if w.vjob.name not in queue
        ]
        assert [w.vjob.name for w in loop._live] == [
            w.vjob.name
            for w in workloads
            if w.vjob.name in queue and not w.vjob.is_terminated
        ]
        assert loop._vjob_of_vm == index_vms_by_vjob(w.vjob for w in workloads)

    def on_iteration(self, now, configuration):
        # The monitoring rule: stale inside the refresh delay after the
        # end of the last switch, once something was observed.
        stale = (
            self.last_fresh is not None
            and self.reconfigured is not None
            and now - self.reconfigured < config.MONITORING_DELAY_S
        )
        if not stale:
            self.last_fresh = dict(self.loop.progress)
            self.fresh += 1
        self.observations += 1
        for workload in self.loop.workloads:
            progress = self.last_fresh.get(workload.vjob.name)
            for vm in workload.vjob.vms:
                expected = (
                    vm.cpu_demand
                    if progress is None
                    else workload.traces[vm.name].demand_at(progress)
                )
                assert configuration.vm(vm.name).cpu_demand == expected, (
                    now,
                    vm.name,
                )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_runs())
def test_every_observation_writes_the_traces_at_the_last_fresh_progress(run):
    scenario, submissions, stop_at = run
    commands = LoopCommandQueue()
    specification = _Specification(commands, submissions, stop_at)
    scenario.observers.append(specification)
    try:
        scenario.build(command_queue=commands).run()
    except PlanningError:
        # A drawn fleet the planner gives up on: every observation up to
        # there was checked, which is what this property is about.
        pass
    assert commands.errors == []
    assert specification.fresh >= 1
    assert specification.asked_to_run_stopped == []


@pytest.mark.parametrize(
    "stop", [_stop_a_running_vjob, _stop_one_vm_of_a_running_vjob]
)
def test_a_vjob_whose_vms_the_operator_stopped_is_retired_by_the_reconcile(stop):
    """Two nodes run two of three vjobs; the operator stops the first (all
    its VMs, or one) at 60 s, the reconcile after that drain terminates it,
    and the third runs in the freed room under the default policy; the
    stopped vjob never completes."""
    commands = LoopCommandQueue()
    specification = _Specification(commands, (), stop_at=(60.0, stop))
    result = (
        Scenario(
            nodes=make_working_nodes(2, cpu_capacity=2, memory_capacity=4096),
            workloads=[make_workload(f"w{i}", duration=300.0) for i in range(3)],
            optimizer_timeout=1.0,
            observers=[specification],
        )
        .build(command_queue=commands)
        .run()
    )
    assert commands.applied == ["stop"] and commands.errors == []
    assert specification.retired == {"w0"}
    assert result.metadata["stopped_vjobs"] == ["w0"]
    assert result.metadata["planning_failures"] == 0
    assert sorted(result.completion_times) == ["w1", "w2"]
    assert specification.asked_to_run_stopped == []
