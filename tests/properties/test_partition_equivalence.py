"""Property-based agreement between partitioned and monolithic solving.

The partitioner's core claim is *independence by construction*: per-zone
solutions compose into a valid global plan.  These properties hold the
partitioned optimizer against the monolithic one on randomly generated
fence-partitioned configurations:

* **feasibility agreement** — the partitioned solve succeeds exactly when
  the monolithic solve does (the transparent fallback makes this an iff);
* **objective agreement** — when both sides prove optimality on an
  exact-partition instance they report the same movement cost (the search
  spaces are identical);
* **plan validity** — every merged plan is feasible pool by pool, reaches a
  viable target whose *final* state is checker-clean, and its recorded
  constraint violations agree with the independent checker (transient
  breaches can legitimately occur mid-plan — e.g. a migration cycle inside
  a full fence escaping through an out-of-fence pivot node — and the
  planner must *record* them, exactly as it does for monolithic plans);
* **sharded composition** — the k-way fallback (a heuristic domain
  restriction) still composes into valid plans, with an objective no better
  than the proven optimum.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.constraints import Ban, Fence
from repro.constraints.checker import check_configuration, check_plan
from repro.core.optimizer import ContextSwitchOptimizer
from repro.model.configuration import Configuration
from repro.model.errors import PlanningError
from repro.model.node import Node
from repro.model.vm import VirtualMachine, VMState
from repro.scale import ParallelOptimizer, partition

MEMORY_CHOICES = (256, 512, 1024)


@st.composite
def fenced_instances(draw):
    """A configuration split into 2-3 fenced sub-fleets.

    Each zone gets 2-3 nodes and 1-4 VMs placed round-robin on the zone's
    nodes; CPU demands are drawn so overloaded (and occasionally infeasible)
    zones appear — the properties must hold on both outcomes.
    """
    zone_count = draw(st.integers(min_value=2, max_value=3))
    configuration = Configuration()
    fences = []
    for zone in range(zone_count):
        node_count = draw(st.integers(min_value=2, max_value=3))
        nodes = [
            Node(
                name=f"z{zone}n{i}",
                cpu_capacity=draw(st.integers(min_value=1, max_value=2)),
                memory_capacity=draw(st.sampled_from((2048, 4096))),
            )
            for i in range(node_count)
        ]
        for node in nodes:
            configuration.add_node(node)
        vm_count = draw(st.integers(min_value=1, max_value=4))
        vm_names = []
        for i in range(vm_count):
            vm = VirtualMachine(
                name=f"z{zone}v{i}",
                memory=draw(st.sampled_from(MEMORY_CHOICES)),
                cpu_demand=draw(st.integers(min_value=0, max_value=1)),
            )
            configuration.add_vm(vm)
            configuration.set_running(vm.name, nodes[i % node_count].name)
            vm_names.append(vm.name)
        fences.append(Fence(vm_names, [node.name for node in nodes]))
    return configuration, fences


def _states(configuration):
    return {name: VMState.RUNNING for name in configuration.vm_names}


def _optimize(optimizer, configuration, constraints):
    """Run an optimize and normalise the outcome: the result, or ``None``
    when the instance is infeasible."""
    try:
        return optimizer.optimize(
            configuration, _states(configuration), constraints=constraints
        )
    except PlanningError:
        return None


@settings(max_examples=25, deadline=None)
@given(fenced_instances())
def test_partitioned_and_monolithic_agree(instance):
    configuration, fences = instance
    monolithic = _optimize(
        ContextSwitchOptimizer(timeout=10.0), configuration, fences
    )
    partitioned = _optimize(
        ParallelOptimizer(timeout=10.0),
        configuration,
        fences,
    )

    # feasibility agreement (iff, thanks to the transparent fallback)
    assert (monolithic is None) == (partitioned is None)
    if monolithic is None:
        return

    # objective agreement on proven-optimal exact partitions
    if (
        partitioned.partition_method == "interference"
        and partitioned.statistics.proven_optimal
        and monolithic.statistics.proven_optimal
    ):
        assert partitioned.movement_cost == monolithic.movement_cost

    # merged plans are exactly as trustworthy as monolithic ones: they
    # reach a viable, checker-clean target, and any transient mid-plan
    # breach (pivot moves) is recorded, never silently dropped
    partitioned.plan.check_reaches(partitioned.target)
    assert partitioned.target.is_viable()
    assert check_configuration(partitioned.target, fences) == []
    derived = check_plan(partitioned.plan, fences)
    assert partitioned.plan.constraint_violations == derived


@settings(max_examples=25, deadline=None)
@given(fenced_instances())
def test_partition_structure_is_sound(instance):
    configuration, fences = instance
    states = _states(configuration)
    result = partition(configuration, states, fences)
    if not result.is_win:
        return
    placed = set(states)
    seen_nodes: set[str] = set()
    seen_vms: set[str] = set()
    for zone in result.zones:
        # node sets pairwise disjoint, VM sets partition the placed VMs
        assert not (seen_nodes & set(zone.nodes))
        assert not (seen_vms & set(zone.vms))
        seen_nodes.update(zone.nodes)
        seen_vms.update(zone.vms)
        # every fence confined to one zone: its members' nodes are inside
        for constraint in zone.constraints:
            assert set(constraint.vms) <= set(zone.vms)
            assert set(constraint.nodes) <= set(zone.nodes)
    assert seen_vms == placed


@settings(max_examples=15, deadline=None)
@given(fenced_instances())
def test_sharded_fallback_composes(instance):
    configuration, _ = instance
    # drop the fences: the unconstrained fleet exercises the k-way fallback
    monolithic = _optimize(
        ContextSwitchOptimizer(timeout=10.0), configuration, ()
    )
    sharded = _optimize(
        ParallelOptimizer(timeout=10.0, shards=2),
        configuration,
        (),
    )
    assert (monolithic is None) == (sharded is None)
    if sharded is None:
        return
    sharded.plan.check_reaches(sharded.target)
    assert sharded.target.is_viable()
    if monolithic.statistics.proven_optimal:
        # a heuristic restriction can never beat the proven optimum
        assert sharded.movement_cost >= monolithic.movement_cost


@settings(max_examples=15, deadline=None)
@given(fenced_instances())
def test_sharded_fallback_enforces_loose_bans(instance):
    """A `Ban` of a single node is *loose* (its allowed domain spans almost
    the whole fleet) and never welds zones — but the sharded fallback must
    still enforce it: the catalog is scoped into every shard, so the banned
    VM is moved off its host rather than the violation being recorded."""
    configuration, _ = instance
    vm = sorted(configuration.vm_names)[0]
    ban = Ban([vm], [configuration.location_of(vm)])
    monolithic = _optimize(
        ContextSwitchOptimizer(timeout=10.0), configuration, (ban,)
    )
    sharded = _optimize(
        ParallelOptimizer(timeout=10.0, shards=2),
        configuration,
        (ban,),
    )
    assert (monolithic is None) == (sharded is None)
    if sharded is None:
        return
    sharded.plan.check_reaches(sharded.target)
    assert check_configuration(sharded.target, [ban]) == []
    if sharded.partition_method == "sharded":
        # a domain restriction never claims global optimality
        assert not sharded.statistics.proven_optimal
