"""Lockstep testing of the one-edge-list planner against the rebuild-per-pool
oracle.

:meth:`ReconfigurationPlanner.build` derives the reconfiguration graph once
and carries its edge list from pool to pool over one working configuration
mutated in place; ``reference_planner.py`` next to this file keeps the loop
it replaced, which re-derived the graph from fresh fleet copies after every
pool.  Both must produce the same plan — pool for pool, action for action —
on every input, raise the same error when there is no plan, and leave the
two configurations they were handed untouched.

Hypothesis draws 3–8 nodes and 3–14 VMs in every state, targets that take
every branch of ``_derive_edges`` (the refused ones included), capacities
tight enough for multi-pool sequences and for migration cycles that need a
bypass — through a pivot outside the cycle, or, when there is none, through
a node of the cycle itself — a vjob mapping that regroups resumes and a
``Fence`` that steers the pivot.  The explicit-stack cycle search is held
against the recursive one the same way.
"""

from __future__ import annotations

import inspect
import sys

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.constraints import Fence
from repro.core.actions import Migrate
from repro.core.planner import ReconfigurationPlanner
from repro.model.configuration import Configuration
from repro.model.errors import ReproError
from repro.model.node import make_working_nodes
from repro.model.vm import VirtualMachine, VMState

from reference_planner import RebuildPerPoolPlanner, recursive_find_cycle

#: What a VM may be asked to become, by what it is, weighted towards the
#: transitions that produce actions.
_WISHES = {
    VMState.RUNNING: ("stay", "stay", "move", "move", "suspend", "stop"),
    VMState.SLEEPING: ("run", "run", "run-at-image", "stay", "stop", "wait"),
    VMState.WAITING: ("run", "run", "stay", "sleep", "stop"),
    VMState.TERMINATED: ("stay",),
}


def _snapshot(configuration: Configuration):
    return (
        configuration.states(),
        dict(configuration.placement()),
        {vm: configuration.image_location_of(vm) for vm in configuration.vm_names},
    )


@st.composite
def planning_instances(draw):
    """``(current, target, vjob_of_vm, constraints)``.

    Nodes share one capacity and the whole running load of each node of a
    drawn *rotating* subset moves to that node's successor under a drawn
    permutation of the subset, so node loads trade places: the target stays
    viable while each migration of a permutation cycle is blocked by the
    next one — the shape that needs a bypass.  The other VMs wish one by
    one, and a wish that needs room is granted only where the target has
    it.  Two instances in ten are poisoned instead: one asks for a
    transition ``_derive_edges`` refuses, one grants wishes without looking
    at the room left.
    """
    node_count = draw(st.integers(min_value=3, max_value=8))
    vm_count = draw(st.integers(min_value=3, max_value=14))
    nodes = make_working_nodes(
        node_count,
        cpu_capacity=2,
        memory_capacity=draw(st.sampled_from((1024, 2048))),
    )
    names = [node.name for node in nodes]
    node = st.sampled_from(names)
    current = Configuration(nodes=nodes)
    for index in range(vm_count):
        vm = VirtualMachine(
            name=f"vm{index}",
            memory=draw(st.sampled_from((512, 1024, 1024, 2048))),
            cpu_demand=draw(st.integers(min_value=0, max_value=1)),
        )
        current.add_vm(vm)
        state = draw(
            st.sampled_from(
                (VMState.RUNNING,) * 6
                + (VMState.SLEEPING, VMState.WAITING, VMState.TERMINATED)
            )
        )
        host = draw(node)
        if state is VMState.RUNNING and current.can_host(host, vm):
            current.set_running(vm.name, host)
        elif state is VMState.SLEEPING:
            current.set_sleeping(vm.name, host)
        elif state is VMState.TERMINATED:
            current.set_terminated(vm.name)

    poison = draw(
        st.sampled_from((None,) * 8 + ("refused transition", "no room"))
    )
    rotating = draw(st.lists(node, unique=True))
    successor = dict(zip(rotating, draw(st.permutations(rotating))))
    target = current.copy()
    for vm_name in current.vm_names:
        if current.location_of(vm_name) in successor:
            target.set_running(vm_name, successor[current.location_of(vm_name)])
    for vm_name in current.vm_names:
        if current.location_of(vm_name) in successor:
            continue
        wish = draw(st.sampled_from(_WISHES[current.state_of(vm_name)]))
        if wish in ("move", "run", "run-at-image"):
            image = current.image_location_of(vm_name)
            destination = image if wish == "run-at-image" and image else draw(node)
            if poison == "no room" or target.can_host(
                destination, current.vm(vm_name)
            ):
                target.set_running(vm_name, destination)
        elif wish in ("suspend", "sleep"):
            target.set_sleeping(vm_name, current.image_location_of(vm_name))
        elif wish == "stop":
            target.set_terminated(vm_name)
        elif wish == "wait":
            target.set_waiting(vm_name)
    if poison == "refused transition":
        refused = draw(st.sampled_from(current.vm_names))
        if current.state_of(refused) is VMState.RUNNING:
            target.set_waiting(refused)
        elif current.state_of(refused) is VMState.TERMINATED:
            target.set_running(refused, draw(node))

    jobs = draw(st.integers(min_value=0, max_value=4))
    vjob_of_vm = (
        {vm: f"job{i % jobs}" for i, vm in enumerate(current.vm_names)}
        if jobs
        else None
    )
    fenced = draw(st.lists(st.sampled_from(current.vm_names), unique=True))
    fence = draw(st.lists(node, unique=True, min_size=1))
    constraints = [Fence(fenced, fence)] if fenced else []
    return current, target, vjob_of_vm, constraints


def _assert_lockstep(current, target, vjob_of_vm, constraints):
    """Build with both planners; returns the plan, or ``None`` when both
    refused with the same error type."""
    before = _snapshot(current), _snapshot(target)
    try:
        expected = RebuildPerPoolPlanner().build(
            current, target, vjob_of_vm, constraints=constraints
        )
    except ReproError as error:
        with pytest.raises(type(error)) as raised:
            ReconfigurationPlanner().build(
                current, target, vjob_of_vm, constraints=constraints
            )
        assert type(raised.value) is type(error)
        assert (_snapshot(current), _snapshot(target)) == before
        return None
    plan = ReconfigurationPlanner().build(
        current, target, vjob_of_vm, constraints=constraints
    )
    assert plan.pools == expected.pools
    assert _snapshot(plan.source) == _snapshot(expected.source) == before[0]
    assert plan.source is not current
    assert plan.constraint_violations == expected.constraint_violations
    assert (_snapshot(current), _snapshot(target)) == before
    return plan


def _bypasses(plan, target) -> int:
    """Migrations that stop short of their VM's target host."""
    return sum(
        1
        for action in plan.actions()
        if isinstance(action, Migrate)
        and action.destination_node != target.location_of(action.vm)
    )


@settings(max_examples=300, deadline=None)
@given(planning_instances())
def test_the_carried_edge_list_plans_like_the_rebuilt_graph(instance):
    current, target, vjob_of_vm, constraints = instance
    plan = _assert_lockstep(current, target, vjob_of_vm, constraints)
    if plan is None:
        event("refused")
    else:
        event(f"pools: {min(len(plan.pools), 4)}{'+' if len(plan.pools) > 4 else ''}")
        event(f"bypasses: {min(_bypasses(plan, target), 2)}")


def _rotation(sizes, spare_memory=None, node_memory=1024, fillers=()):
    """``len(sizes)`` nodes whose ``vm<i>`` each move to the next node —
    ``fillers[i]`` is the memory of a VM that stays on ``node-<i>`` — plus
    an optional spare node declared *first* (so it comes first in node
    order)."""
    nodes = []
    if spare_memory is not None:
        nodes += make_working_nodes(
            1, cpu_capacity=2, memory_capacity=spare_memory, prefix="spare"
        )
    nodes += make_working_nodes(len(sizes), cpu_capacity=2, memory_capacity=node_memory)
    current = Configuration(nodes=nodes)
    for prefix, memories in (("vm", sizes), ("filler", fillers)):
        for index, memory in enumerate(memories):
            current.add_vm(
                VirtualMachine(name=f"{prefix}{index}", memory=memory, cpu_demand=0)
            )
            current.set_running(f"{prefix}{index}", f"node-{index}")
    target = current.copy()
    for index in range(len(sizes)):
        target.set_running(f"vm{index}", f"node-{(index + 1) % len(sizes)}")
    return current, target


class TestTheParkedEdgeIsRewritten:
    """Deterministic twins of the shapes the property must reach: after a
    bypass the parked VM's edge leaves from the pivot, whichever pivot it
    was."""

    def test_through_a_pivot_outside_the_cycle(self):
        current, target = _rotation([1024, 1024, 1024], spare_memory=1024)
        plan = _assert_lockstep(current, target, None, [])
        assert _bypasses(plan, target) == 1
        assert plan.pools[0].actions == [Migrate("vm0", "node-0", "spare-0")]
        assert Migrate("vm0", "spare-0", "node-1") in plan.pools[-1].actions
        plan.check_reaches(target)

    def test_through_a_node_of_the_cycle(self):
        # No node outside the cycle.  node-2 has 512 MB to spare: room to
        # park vm0, not for the vm1 it is waiting for.
        current, target = _rotation(
            [512, 1024, 1024], node_memory=2048, fillers=[1024, 1024, 512]
        )
        plan = _assert_lockstep(current, target, None, [])
        assert [pool.actions for pool in plan.pools] == [
            [Migrate("vm0", "node-0", "node-2")],
            [Migrate("vm2", "node-2", "node-0")],
            [Migrate("vm1", "node-1", "node-2")],
            [Migrate("vm0", "node-2", "node-1")],
        ]
        plan.check_reaches(target)

    def test_two_cycles_share_one_pivot_under_a_fence_and_a_vjob(self):
        # Two swaps of full nodes and one spare with room for one parked VM
        # next to the resume it also receives: the second bypass waits for
        # the first cycle to clear the pivot.
        current, target = _rotation([1024, 1024], spare_memory=1280)
        for node in make_working_nodes(
            2, cpu_capacity=2, memory_capacity=1024, prefix="x"
        ):
            current.add_node(node)
            target.add_node(node)
        for name, memory in (("a", 1024), ("b", 1024), ("s", 256)):
            current.add_vm(VirtualMachine(name=name, memory=memory, cpu_demand=0))
            target.add_vm(VirtualMachine(name=name, memory=memory, cpu_demand=0))
        for configuration, a_host, b_host in (
            (current, "x-0", "x-1"),
            (target, "x-1", "x-0"),
        ):
            configuration.set_running("a", a_host)
            configuration.set_running("b", b_host)
        current.set_sleeping("s", "spare-0")
        target.set_running("s", "spare-0")
        plan = _assert_lockstep(
            current,
            target,
            {"s": "job", "vm0": "job"},
            [Fence(["a"], ["x-0", "x-1"])],
        )
        assert _bypasses(plan, target) == 2
        assert plan.constraint_violations == []
        plan.check_reaches(target)


# ---------------------------------------------------------------------- #
# the cycle search                                                        #
# ---------------------------------------------------------------------- #


@st.composite
def migration_multigraphs(draw):
    nodes = [f"n{i}" for i in range(draw(st.integers(min_value=1, max_value=7)))]
    edges = draw(
        st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=14)
    )
    return [
        Migrate(vm=f"vm{i}", source_node=source, destination_node=destination)
        for i, (source, destination) in enumerate(edges)
    ]


@settings(max_examples=300, deadline=None)
@given(migration_multigraphs())
def test_the_explicit_stack_walk_finds_the_recursive_cycle(migrations):
    found = ReconfigurationPlanner._find_cycle(migrations)
    assert found == recursive_find_cycle(migrations)
    event("cycle" if found else "acyclic")


def _ring(length):
    return [
        Migrate(
            vm=f"vm{i}",
            source_node=f"n{i}",
            destination_node=f"n{(i + 1) % length}",
        )
        for i in range(length)
    ]


class TestCycleSearchDepth:
    def test_a_long_ring_is_not_bounded_by_the_recursion_limit(self):
        # Listed tail first, so the walk is 1 200 nodes deep before the
        # back edge shows.
        ring = _ring(1200)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            cycle = ReconfigurationPlanner._find_cycle(ring)
            with pytest.raises(RecursionError):
                recursive_find_cycle(ring)
        finally:
            sys.setrecursionlimit(limit)
        assert cycle == ring

    def test_a_ring_of_full_nodes_plans_under_a_low_recursion_limit(self):
        # 300 full nodes rotating their VMs, one spare: a bypass, then one
        # migration a pool all the way round.
        current, target = _rotation([1024] * 300, spare_memory=1024)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            plan = ReconfigurationPlanner().build(current, target)
        finally:
            sys.setrecursionlimit(limit)
        assert len(plan.pools) == plan.action_count() == 301
        plan.check_reaches(target)
