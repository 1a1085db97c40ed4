"""What a loop round's bookkeeping costs, in counts, not clocks.

A round used to recompute the whole fleet whatever changed: every VM's
demand twice (the observation and the utilization sample), an
``update_demand`` per VM, every running VM's host, and a sort of the queue
on every ``pending()`` / ``terminated()`` call — on the Sec. 5.2 campaign
112 ``demand_at`` and 72 ``update_demand`` calls a round for 0.56 demands
that changed.  A round now walks what moved: ``_advance`` refreshes the
demands of the vjobs it advanced (reading a vjob's traces again only once
its progress leaves the phases they were in), an observation writes the
changed ones,
hosts are read only when the round switched a node or a slowdown is in
force, and the queue keeps its order from ``submit``.  The steps that walk
vjobs walk the loop's two lists — the admitted vjobs not yet submitted, and
the live ones — so no step visits a vjob it has nothing to do with.  A
vjob's state is derived from its VMs only after a step that wrote VM states
outside a plan (the execute step, a command drain that ran a command, a node
crash), and a decision visits a terminated vjob only until it sees none of
its VMs running.  The counts are deterministic, so this runs with the tier-1
suite.
"""

from __future__ import annotations

import builtins
from collections import Counter

import pytest

import repro.decision.consolidation
import repro.model.queue
from repro import FaultSchedule, Scenario
from repro.api import LoopObserver
from repro.api.loop import ControlLoop
from repro.model.configuration import Configuration
from repro.model.vjob import VJobState
from repro.model.vm import VMState
from repro.service.commands import LoopCommandQueue
from repro.sim.cluster import SimulatedCluster
from repro.workloads import paper_cluster_nodes, paper_experiment_vjobs
from repro.workloads.traces import DemandTrace, VJobWorkload

#: The steps that walk vjobs, and the vjobs none of them may visit: a
#: submitted one for the submit step, a terminated one for the others.
_WALKS = ("_submit_pending", "_mark_finished_vjobs", "_sample", "_advance")


def _campaign(faults=None):
    """The Sec. 5.2 campaign (11 nodes, 8 vjobs of 9 VMs)."""
    return Scenario(
        nodes=paper_cluster_nodes(),
        workloads=paper_experiment_vjobs(8, 9),
        engine="event",
        optimizer_timeout=3.0,
        faults=faults,
    )


def _faulted():
    """The campaign with two slowdown windows, a node crash and migration
    failures."""
    nodes = [node.name for node in paper_cluster_nodes()]
    faults = FaultSchedule(migration_failure_rate=0.9, seed=5)
    faults.node_slowdown(nodes[1], at=300.0, duration=400.0, factor=2.0)
    faults.node_slowdown(nodes[4], at=1500.0, duration=90.0, factor=1.5)
    faults.node_crash(nodes[7], at=900.0)
    return _campaign(faults)


@pytest.fixture
def visits(monkeypatch):
    """One ``(step, vjobs it must skip, visits to them)`` record per call of
    a step of :data:`_WALKS`; a visit is a read of ``workload.vjob``."""
    records: list[list] = []
    active = [None]

    def read(workload):
        vjob = workload.__dict__["vjob"]
        if active[0] is not None:
            record, skipped = active[0]
            record[2] += vjob.name in skipped
        return vjob

    def write(workload, vjob):
        workload.__dict__["vjob"] = vjob

    monkeypatch.setattr(VJobWorkload, "vjob", property(read, write), raising=False)

    def walking(name):
        original = getattr(ControlLoop, name)

        def walked(loop, *args):
            skipped = {
                vjob.name
                for vjob in loop.queue
                if name == "_submit_pending" or vjob.is_terminated
            }
            record = [name, len(skipped), 0]
            records.append(record)
            active[0] = (record, skipped)
            try:
                return original(loop, *args)
            finally:
                active[0] = None

        monkeypatch.setattr(ControlLoop, name, walked)

    for name in _WALKS:
        walking(name)
    return records


@pytest.fixture
def rounds(monkeypatch):
    """One record of counts per round, opened by each ``_observe``."""
    records: list[dict] = []
    in_advance = [False]

    def spy(owner, name, before):
        original = getattr(owner, name)

        def spied(*args, **kwargs):
            before(*args, **kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spied)

    def open_round(loop, now):
        records.append(
            dict.fromkeys(
                ("trace_reads", "update_demand", "changed", "host_reads", "sorts"),
                0,
            )
        )

    def count(key):
        def before(*args, **kwargs):
            if records:
                records[-1][key] += 1

        return before

    def update(cluster, vm_name, demand):
        records[-1]["update_demand"] += 1
        records[-1]["changed"] += cluster.configuration.vm(vm_name).cpu_demand != demand

    def host_read(*args):
        records[-1]["host_reads"] += in_advance[0]

    spy(ControlLoop, "_observe", open_round)
    # ``demand_at`` reads through it.
    spy(DemandTrace, "demand_until", count("trace_reads"))
    spy(SimulatedCluster, "update_demand", update)
    spy(Configuration, "location_of", host_read)
    spy(Configuration, "hosts_of", host_read)

    advance = ControlLoop._advance

    def spied_advance(loop, now, switch_duration, involved_nodes):
        record = records[-1]
        record["advanced_vms"] = sum(
            len(workload.traces)
            for workload in loop.workloads
            if workload.vjob.state is VJobState.RUNNING
        )
        record["switched"] = switch_duration > 0 and bool(involved_nodes)
        record["slowed"] = bool(loop.faults and loop.faults.slowdowns_at(now))
        in_advance[0] = True
        try:
            return advance(loop, now, switch_duration, involved_nodes)
        finally:
            in_advance[0] = False

    monkeypatch.setattr(ControlLoop, "_advance", spied_advance)

    def counted_sorted(*args, **kwargs):
        if records:
            records[-1]["sorts"] += 1
        return builtins.sorted(*args, **kwargs)

    monkeypatch.setattr(repro.model.queue, "sorted", counted_sorted, raising=False)
    return records


@pytest.mark.parametrize("scenario", [_campaign, _faulted])
def test_a_round_walks_what_moved(scenario, rounds):
    result = scenario().run()
    assert result.metadata["final_viable"] and not result.unfinished_vjobs
    # The last round notices that every vjob is done and stops: no advance.
    advanced = [record for record in rounds if "advanced_vms" in record]
    assert len(advanced) == len(rounds) - 1 > 100
    for record in advanced:
        # Trace reads: only for the VMs of the vjobs advanced.
        assert record["trace_reads"] <= record["advanced_vms"]
        # update_demand: only for the VMs whose demand changed.
        assert record["update_demand"] == record["changed"]
        # The hosts are read only when the round switched or slowed a node.
        if not (record["switched"] or record["slowed"]):
            assert record["host_reads"] == 0
        # The queue keeps its order: nothing sorts it.
        assert record["sorts"] == 0
    assert sum(record["update_demand"] for record in rounds) < len(rounds)
    # Most rounds leave every advanced vjob inside the phases it was in.
    assert 4 * sum(record["trace_reads"] for record in rounds) < sum(
        record["advanced_vms"] for record in advanced
    )
    assert any(record["host_reads"] for record in advanced)
    if scenario is _faulted:
        kinds = {fault.kind for fault in result.faults}
        assert {"node_slowdown", "node_crash", "migration_failure"} <= kinds
        assert any(
            record["slowed"] and not record["switched"] and record["host_reads"]
            for record in advanced
        )


@pytest.mark.parametrize("scenario", [_campaign, _faulted])
def test_a_round_visits_no_vjob_it_is_done_with(scenario, visits):
    """The submit step visits no submitted vjob; the finish test, the
    sample and the advance visit no terminated one."""
    result = scenario().run()
    assert not result.unfinished_vjobs
    for name in _WALKS:
        calls = [record for record in visits if record[0] == name]
        assert len(calls) > 100
        assert [record[2] for record in calls] == [0] * len(calls), name
        # Not vacuous: most calls had such vjobs to skip.
        assert sum(record[1] > 0 for record in calls) > len(calls) // 2, name


def _stop_the_first_running_vjob(loop, now):
    """The operator stops every VM of the first running vjob."""
    for vjob in loop.queue:
        if vjob.state is VJobState.RUNNING:
            for vm_name in vjob.vm_names:
                loop.cluster.configuration.set_terminated(vm_name)
            return


class _Operator(LoopObserver):
    """Queues an operator stop at the first sample at or after 600 s, and a
    command that writes nothing at the first one after 1200 s."""

    def __init__(self, commands):
        self.commands = commands
        self.due = [
            (600.0, _stop_the_first_running_vjob),
            (1200.0, lambda loop, now: None),
        ]

    def on_sample(self, sample):
        if self.due and self.due[0][0] <= sample.time:
            self.commands.call(self.due.pop(0)[1])


def _operated():
    """The faulted campaign, with an operator stop and a no-op command."""
    commands = LoopCommandQueue()
    scenario = _faulted().observe(_Operator(commands))
    return scenario.build(command_queue=commands).run(), commands


def test_a_decision_visits_no_vjob_it_saw_stopped(monkeypatch):
    """``stop_terminated_vms`` visits a terminated vjob until a decision
    finds none of its VMs running: a vjob whose VMs were all stopped before
    the previous decision is visited 0 times."""
    calls = []
    original = repro.decision.consolidation.stop_terminated_vms

    def spied(configuration, queue, vm_states):
        stopped = {
            vjob.name
            for vjob in queue
            if vjob.is_terminated
            and all(
                configuration.state_of(vm) is VMState.TERMINATED
                for vm in vjob.vm_names
            )
        }
        visited = {vjob.name for vjob in queue.stopping()}
        calls.append((stopped, visited))
        return original(configuration, queue, vm_states)

    monkeypatch.setattr(repro.decision.consolidation, "stop_terminated_vms", spied)
    result, _ = _operated()
    assert result.metadata["stopped_vjobs"] and len(calls) > 100
    for (stopped_before, _), (_, visited) in zip(calls, calls[1:]):
        assert not stopped_before & visited
    # Not vacuous: vjobs were visited, and most decisions had finished
    # vjobs to skip.
    assert sum(len(visited) for _, visited in calls) > 0
    assert sum(bool(stopped) for stopped, _ in calls) > len(calls) // 2


def test_the_reconcile_runs_only_after_a_vm_state_write(monkeypatch):
    """One reconcile per execute step, per command drain that ran a command
    and per node crash, and none on any other round."""
    rounds: list[Counter] = []

    def spy(owner, name):
        original = getattr(owner, name)

        def spied(*args):
            if name == "_drain_commands":
                # The first step of a round opens its record.
                rounds.append(Counter())
            value = original(*args)
            rounds[-1][name] += 1 if name != "drain" else bool(value)
            return value

        monkeypatch.setattr(owner, name, spied)

    for name in ("_drain_commands", "_reconcile", "_execute", "_crash_node"):
        spy(ControlLoop, name)
    spy(LoopCommandQueue, "drain")
    result, commands = _operated()
    assert len(commands.applied) == 2 and result.metadata["stopped_vjobs"]
    for record in rounds:
        assert record["_reconcile"] == (
            record["_execute"] + record["_crash_node"] + record["drain"]
        )
    assert sum(record["drain"] for record in rounds) == 2
    assert sum(record["_crash_node"] for record in rounds) == 1
    # Not a per-round walk: most rounds neither switch nor take a command.
    assert 2 * sum(record["_reconcile"] > 0 for record in rounds) < len(rounds)
