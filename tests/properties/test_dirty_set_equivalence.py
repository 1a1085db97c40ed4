"""The dirty-region rule reads the shared domain function — same answer.

:func:`repro.repair.compute_dirty_set` used to decide "is this VM's host
still allowed?" by asking every constraint's ``allowed_nodes`` for every
running VM; it now tests ``host in vm_domains(...)[vm]``, the one placement
domain the model builder and the partitioner use too.  The property holds
the rule against a test-local oracle that keeps the per-constraint sweep,
over random fleets under every catalog relation with a unary face — ``Fence``
(strict, elastic after a crash shrank it, and one-node fences that pin VMs
where they run), ``Ban`` — plus ``Spread`` (relational closure only),
``RunningCapacity`` and a member-less custom constraint (the "universal"
branch of the membership index).  The oracle states the overload rule as a
scan of every running VM's host; the rule reads the dirty-node index.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.constraints import (
    Ban,
    Fence,
    PlacementConstraint,
    RunningCapacity,
    Spread,
)
from repro.constraints.domains import vm_domains
from repro.core.optimizer import ContextSwitchOptimizer
from repro.model.configuration import Configuration
from repro.model.errors import PlanningError
from repro.model.node import Node
from repro.model.vm import VirtualMachine, VMState
from repro.repair import RepairOptimizer, compute_dirty_set
from repro.repair.engine import _relational_closure
from repro.scale import ParallelOptimizer


class Quarantine(PlacementConstraint):
    """A custom relation with no declared members: *no* VM may run on the
    quarantined node."""

    def __init__(self, node):
        self.node = node

    def allowed_nodes(self, vm_name, node_names, configuration=None):
        return {name for name in node_names if name != self.node}

    def is_satisfied_by(self, configuration):
        return not configuration.vms_on(self.node)


def _overloaded(current, node):
    """Usage above capacity on either dimension."""
    usage, capacity = current.usage_of(node), current.node(node).capacity
    return usage.cpu > capacity.cpu or usage.memory > capacity.memory


def _dirty_set_oracle(
    current, states, running_vms, constraints, marks, previous, halo
):
    """``compute_dirty_set`` with the historical invalidated-placement rule —
    every running VM asks every constraint — and the overload rule as a scan
    of every running VM's host."""
    running_set = set(running_vms)
    node_names = current.node_names
    dirty = {vm for vm in marks if vm in running_set}
    for vm in running_vms:
        if vm in dirty:
            continue
        if current.state_of(vm) is not VMState.RUNNING:
            dirty.add(vm)
            continue
        host = current.location_of(vm)
        if previous is not None and previous.get(vm) != host:
            dirty.add(vm)
            continue
        if _overloaded(current, host):
            dirty.add(vm)
            continue
        for constraint in constraints:
            allowed = constraint.allowed_nodes(vm, node_names, current)
            if allowed is not None and host not in allowed:
                dirty.add(vm)
                break
    _relational_closure(dirty, constraints, running_set)
    for _ in range(max(0, halo)):
        hosts = {
            current.location_of(vm)
            for vm in dirty
            if current.state_of(vm) is VMState.RUNNING
        }
        if not hosts:
            break
        before = len(dirty)
        for vm in running_vms:
            if (
                vm not in dirty
                and current.state_of(vm) is VMState.RUNNING
                and current.location_of(vm) in hosts
            ):
                dirty.add(vm)
        _relational_closure(dirty, constraints, running_set)
        if len(dirty) == before:
            break
    return dirty


@st.composite
def constrained_rounds(draw):
    node_count = draw(st.integers(min_value=3, max_value=6))
    nodes = [f"n{i}" for i in range(node_count)]
    configuration = Configuration(
        nodes=[
            Node(name=name, cpu_capacity=4, memory_capacity=8192)
            for name in nodes
        ]
    )
    vm_count = draw(st.integers(min_value=3, max_value=9))
    vms = [f"v{i}" for i in range(vm_count)]
    for name in vms:
        # Demands that sometimes overload a host (four cpus each).
        configuration.add_vm(
            VirtualMachine(
                name=name, memory=256, cpu_demand=draw(st.integers(0, 2))
            )
        )
        kind = draw(st.sampled_from(("running", "running", "sleeping", "waiting")))
        host = draw(st.sampled_from(nodes))
        if kind == "running":
            configuration.set_running(name, host)
        elif kind == "sleeping":
            configuration.set_sleeping(name, host)

    def some(items, min_size=1):
        return draw(
            st.lists(
                st.sampled_from(items),
                min_size=min_size,
                max_size=len(items),
                unique=True,
            )
        )

    constraints = []
    for kind in draw(
        st.lists(
            st.sampled_from(
                ("fence", "shrunk", "ban", "capacity", "pin", "spread", "custom")
            ),
            max_size=5,
        )
    ):
        if kind == "fence":
            constraints.append(Fence(some(vms), some(nodes)))
        elif kind == "shrunk":
            # An elastic fence after one of its nodes crashed: the repair
            # hook dropped the node, members still on it are invalidated.
            fence = Fence(some(vms), some(nodes, min_size=2), elastic=True)
            constraints.append(
                fence.on_node_failure(draw(st.sampled_from(sorted(fence.nodes))))
            )
        elif kind == "ban":
            constraints.append(Ban(some(vms), some(nodes)))
        elif kind == "capacity":
            constraints.append(
                RunningCapacity(some(nodes), draw(st.integers(0, vm_count)))
            )
        elif kind == "pin":
            for vm in some(vms):
                host = configuration.location_of(vm) or draw(st.sampled_from(nodes))
                constraints.append(Fence([vm], [host]))
        elif kind == "spread":
            constraints.append(Spread(some(vms, min_size=2)))
        else:
            constraints.append(Quarantine(draw(st.sampled_from(nodes))))

    running_vms = some(vms)
    states = {name: VMState.RUNNING for name in running_vms}
    marks = draw(st.lists(st.sampled_from(vms), max_size=3, unique=True))
    # The last accepted assignment: the observed placement, with a few hosts
    # rewritten so the divergence rule fires too (or no history at all).
    previous = None
    if draw(st.booleans()):
        previous = {
            name: configuration.location_of(name)
            for name in running_vms
            if configuration.state_of(name) is VMState.RUNNING
        }
        for name in draw(st.lists(st.sampled_from(vms), max_size=2)):
            previous[name] = draw(st.sampled_from(nodes))
    halo = draw(st.integers(min_value=0, max_value=2))
    return configuration, states, running_vms, constraints, marks, previous, halo


@settings(max_examples=150, deadline=None)
@given(constrained_rounds())
def test_dirty_set_matches_the_per_constraint_sweep(round_inputs):
    assert compute_dirty_set(*round_inputs) == _dirty_set_oracle(*round_inputs)


@settings(max_examples=150, deadline=None)
@given(constrained_rounds(), st.booleans())
def test_every_search_is_handed_the_domains_of_what_it_searches(
    round_inputs, zones
):
    # A repair attempt searches its cut with the domains the round holds
    # for the fleet, asking no catalog again.  Under every relation drawn
    # here — the member-less quarantine restricts over the node names it is
    # handed, the capacity bound's residual is a new object — those are the
    # domains computed over the cut under the residual catalog; the
    # whole-fleet searches and the zones are held to the same rule.
    configuration, states, _, constraints, marks, previous, halo = round_inputs
    inner = (
        ParallelOptimizer(timeout=5.0)
        if zones
        else ContextSwitchOptimizer(timeout=5.0)
    )
    engine = RepairOptimizer(inner, timeout=5.0, halo=halo)
    engine._previous = previous
    engine.mark_dirty(marks)
    real = ContextSwitchOptimizer._search

    def search(self, current, vms, domains, catalog, deadline):
        assert {vm: domains[vm] for vm in vms} == vm_domains(current, vms, catalog)
        return real(self, current, vms, domains, catalog, deadline)

    with mock.patch.object(ContextSwitchOptimizer, "_search", search):
        try:
            engine.optimize(configuration, states, constraints=constraints)
        except PlanningError:
            pass  # no viable assignment: what was searched is checked
