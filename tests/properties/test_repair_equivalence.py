"""Property-based agreement between repair-based and cold solving.

The repair engine's core claim is *safety by fallback*: freezing the clean
region is only ever an acceleration, never a semantic change.  These
properties hold :class:`~repro.repair.RepairOptimizer` against the cold
monolithic solve on randomly generated perturbed rounds:

* **feasibility agreement** — a perturbed round is repairable exactly when
  the cold solve can place it (a failed attempt ends in the full solve,
  making this an iff);
* **fallback identity** — when nothing is frozen (every VM marked), the
  engine's full solve is exactly the monolithic result on the same
  instance;
* **a first round is a warm round** — a fresh engine repairs against the
  observed placement: its round is the round of an engine whose memory is
  that placement, and its dirty region is :func:`compute_dirty_set` with no
  previous assignment;
* **plan validity** — every repaired plan reaches a viable target that the
  independent checker accepts, and `check_plan` accepts every intermediate
  state against the active catalog;
* **no retired pins** — with an elastic ``Fence`` that shrank, the repaired
  target never leaves a member on a node outside the shrunken domain
  (satellite: frozen placements invalidated by constraint repair become
  dirty instead of being pinned);
* **the cut is invisible** — the frozen VMs never enter the model: the
  repair solve searches the dirty VMs over what the frozen ones leave,
  under the catalog's residual; it proves the cost the cold solve proves
  with every frozen VM fenced to its host, and walks the same tree
  whenever it starts without an incumbent.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st
from reference_propagation import SOLVERS, propagation

from repro.constraints import Fence, RunningCapacity, Spread
from repro.constraints.checker import check_configuration, check_plan
from repro.core.optimizer import ContextSwitchOptimizer
from repro.model.configuration import Configuration
from repro.model.errors import PlanningError
from repro.model.node import Node
from repro.model.vm import VirtualMachine, VMState
from repro.repair import RepairOptimizer, compute_dirty_set

from test_incumbent_equivalence import placement_cost, solve_recording_bounds

MEMORY_CHOICES = (256, 512, 1024)


@st.composite
def perturbed_instances(draw):
    """A placed fleet plus a perturbation: some VMs knocked to Waiting.

    Node and VM sizes are drawn so tight (and occasionally infeasible)
    rounds appear — the agreement properties must hold on both outcomes.
    """
    node_count = draw(st.integers(min_value=3, max_value=6))
    configuration = Configuration()
    nodes = [
        Node(
            name=f"n{i}",
            cpu_capacity=draw(st.integers(min_value=1, max_value=2)),
            memory_capacity=draw(st.sampled_from((2048, 4096))),
        )
        for i in range(node_count)
    ]
    for node in nodes:
        configuration.add_node(node)
    vm_count = draw(st.integers(min_value=3, max_value=8))
    names = []
    for i in range(vm_count):
        vm = VirtualMachine(
            name=f"v{i}",
            memory=draw(st.sampled_from(MEMORY_CHOICES)),
            cpu_demand=draw(st.integers(min_value=0, max_value=1)),
        )
        configuration.add_vm(vm)
        configuration.set_running(vm.name, nodes[i % node_count].name)
        names.append(vm.name)
    victim_count = draw(st.integers(min_value=1, max_value=max(1, vm_count // 3)))
    victims = draw(
        st.lists(
            st.sampled_from(names),
            min_size=victim_count,
            max_size=victim_count,
            unique=True,
        )
    )
    halo = draw(st.integers(min_value=0, max_value=2))
    return configuration, names, victims, halo


def _states(names):
    return {name: VMState.RUNNING for name in names}


def _optimize(optimizer, configuration, names, constraints=()):
    try:
        return optimizer.optimize(
            configuration, _states(names), constraints=constraints
        )
    except PlanningError:
        return None


def _assignment(result):
    return {
        vm: result.target.location_of(vm)
        for vm in result.target.vm_names
        if result.target.state_of(vm) is VMState.RUNNING
    }


@settings(max_examples=25, deadline=None)
@given(perturbed_instances())
def test_repair_and_cold_solve_agree_on_feasibility(instance):
    configuration, names, victims, halo = instance
    engine = RepairOptimizer(
        ContextSwitchOptimizer(timeout=10.0), timeout=10.0, halo=halo
    )
    warm = _optimize(engine, configuration, names)
    if warm is None:
        return  # the unperturbed instance itself is infeasible
    current = warm.target
    for victim in victims:
        current.set_waiting(victim)
    engine.mark_dirty(victims)
    repaired = _optimize(engine, current, names)
    cold = _optimize(
        ContextSwitchOptimizer(timeout=10.0), current, names
    )
    assert (repaired is None) == (cold is None)
    if repaired is None:
        return
    # repaired plans are exactly as trustworthy as cold ones
    repaired.plan.check_reaches(repaired.target)
    assert repaired.target.is_viable()
    for victim in victims:
        assert repaired.target.state_of(victim) is VMState.RUNNING


def _round(result):
    """Everything two engines must agree on for one round."""
    return (
        result.target.placement(),
        [[str(action) for action in pool] for pool in result.plan.pools],
        result.cost,
        result.movement_cost,
    )


@settings(max_examples=15, deadline=None)
@given(perturbed_instances())
def test_nothing_frozen_is_identical_to_the_monolithic_result(instance):
    configuration, names, _victims, _halo = instance
    engine = RepairOptimizer(
        ContextSwitchOptimizer(timeout=10.0), timeout=10.0
    )
    engine.mark_dirty(names)
    via_repair = _optimize(engine, configuration, names)
    monolithic = _optimize(
        ContextSwitchOptimizer(timeout=10.0), configuration, names
    )
    assert (via_repair is None) == (monolithic is None)
    if via_repair is None:
        return
    assert via_repair.repair["mode"] == "full"
    assert via_repair.repair["frozen_count"] == 0
    assert _assignment(via_repair) == _assignment(monolithic)
    assert via_repair.movement_cost == monolithic.movement_cost
    assert _round(via_repair) == _round(monolithic)


@settings(max_examples=25, deadline=None)
@given(perturbed_instances(), st.booleans())
def test_a_first_round_is_a_round_against_the_observed_placement(
    instance, fenced
):
    configuration, names, victims, halo = instance
    for victim in victims:
        configuration.set_waiting(victim)
    constraints = (
        [Fence(list(names[:2]), sorted(configuration.node_names)[:-1])]
        if fenced
        else []
    )
    fresh, seeded = (
        RepairOptimizer(
            ContextSwitchOptimizer(timeout=10.0), timeout=10.0, halo=halo
        )
        for _ in range(2)
    )
    seeded._previous = configuration.placement()
    results = []
    for engine in (fresh, seeded):
        engine.mark_dirty(victims)
        results.append(
            _optimize(engine, configuration.copy(), names, constraints)
        )
    first, reference = results
    assert (first is None) == (reference is None)
    if first is None:
        return
    assert _round(first) == _round(reference)
    assert first.repair == reference.repair
    dirty = compute_dirty_set(
        configuration,
        _states(names),
        names,
        constraints,
        marks=victims,
        previous=None,
        halo=halo,
    )
    assert first.repair["dirty_count"] == len(dirty)


@settings(max_examples=15, deadline=None)
@given(perturbed_instances())
def test_repaired_plans_pass_the_checker_on_every_intermediate_state(instance):
    configuration, names, victims, halo = instance
    fence_nodes = sorted(configuration.node_names)[:-1]
    fence = Fence(list(names[:2]), fence_nodes)
    engine = RepairOptimizer(
        ContextSwitchOptimizer(timeout=10.0), timeout=10.0, halo=halo
    )
    warm = _optimize(engine, configuration, names, constraints=[fence])
    if warm is None:
        return
    current = warm.target
    for victim in victims:
        current.set_waiting(victim)
    engine.mark_dirty(victims)
    repaired = _optimize(engine, current, names, constraints=[fence])
    if repaired is None:
        return
    repaired.plan.check_reaches(repaired.target)
    assert check_configuration(repaired.target, [fence]) == []
    # every intermediate state of the plan agrees with the checker: the
    # recorded violations are exactly what an independent re-check derives
    derived = check_plan(repaired.plan, [fence])
    assert repaired.plan.constraint_violations == derived


@settings(max_examples=25, deadline=None)
@given(perturbed_instances())
def test_shrunken_fence_members_are_never_pinned_to_retired_nodes(instance):
    configuration, names, victims, halo = instance
    node_names = sorted(configuration.node_names)
    wide = Fence(list(names[:3]), node_names)
    engine = RepairOptimizer(
        ContextSwitchOptimizer(timeout=10.0), timeout=10.0, halo=halo
    )
    warm = _optimize(engine, configuration, names, constraints=[wide])
    if warm is None:
        return
    current = warm.target
    # the fence shrinks (e.g. its last node crashed and the elastic repair
    # hook dropped it); members frozen on the retired domain must be dirty
    shrunk = Fence(list(names[:3]), node_names[:-1])
    for victim in victims:
        current.set_waiting(victim)
    engine.mark_dirty(victims)
    dirty = compute_dirty_set(
        current,
        _states(names),
        names,
        constraints=[shrunk],
        marks=victims,
        previous=engine.previous_assignment,
        halo=0,
    )
    for member in names[:3]:
        if (
            current.state_of(member) is VMState.RUNNING
            and current.location_of(member) == node_names[-1]
        ):
            assert member in dirty
    repaired = _optimize(engine, current, names, constraints=[shrunk])
    if repaired is None:
        return
    for member in names[:3]:
        assert repaired.target.location_of(member) in node_names[:-1]


@settings(max_examples=60, deadline=None)
@given(
    perturbed_instances(),
    st.sampled_from(tuple(SOLVERS)),
    st.sampled_from(("unary", "spread", "capacity")),
    st.integers(min_value=0, max_value=8),
)
def test_the_cut_searches_like_one_node_fences(instance, engine, relation, bound):
    """No copied oracle: the cold solve with a one-node ``Fence`` per frozen
    VM — a singleton domain at its host — holds the frozen VMs inside its
    model, as fixed variables.  A relational catalog leaves both solves
    without an incumbent.  Under a unary one, a reference incumbent keeps
    every frozen VM home, and the cut's homes-first packing then succeeds
    too: the cut starts without an incumbent only when the reference does,
    and with one it may stop earlier, or never start, on a placement that
    costs what the reference proves."""
    configuration, names, victims, _halo = instance
    node_names = sorted(configuration.node_names)
    for victim in victims:
        configuration.set_waiting(victim)
    # Every other VM is fenced off the last node, unless it is frozen there
    # (a frozen VM sits inside its domain).
    catalog = [
        Fence(
            [
                name
                for name in names[::2]
                if configuration.location_of(name) != node_names[-1]
            ],
            node_names[:-1],
        )
    ]
    if relation == "spread":
        catalog.append(Spread(names[1::2]))
    elif relation == "capacity":
        catalog.append(RunningCapacity(node_names[:2], maximum=bound))
    # What the dirty rule freezes: every VM but the victims, the residents
    # of an overloaded host and the groups they belong to.
    frozen = set(names) - compute_dirty_set(
        configuration, _states(names), names, catalog, halo=0
    )
    pins = [Fence([vm], [configuration.location_of(vm)]) for vm in sorted(frozen)]
    with propagation(engine):
        cut, cut_stats, cut_costs, bounds = solve_recording_bounds(
            ContextSwitchOptimizer(timeout=10.0),
            configuration,
            names,
            catalog,
            frozen,
        )
        pinned, pinned_stats, pinned_costs, _ = solve_recording_bounds(
            ContextSwitchOptimizer(timeout=10.0),
            configuration,
            names,
            catalog + pins,
        )
    assert (cut is None) == (pinned is None)
    if cut is None:
        # Refused before a search (frozen VMs breaking a relation, dirty VMs
        # over-committing what the frozen ones leave) or searched and
        # failed: the cut only ever notices earlier.
        assert cut_stats.nodes <= pinned_stats.nodes
        return
    assert cut_stats.proven_optimal and pinned_stats.proven_optimal

    cost = placement_cost(configuration, cut)
    assert cost == placement_cost(configuration, pinned)
    for vm in frozen:
        assert pinned[vm] == configuration.location_of(vm)
    if bounds == [None]:
        # Searched without an incumbent: the same tree.
        assert cut == pinned and cut_costs == pinned_costs
        for counter in ("nodes", "backtracks", "solutions"):
            assert getattr(cut_stats, counter) == getattr(pinned_stats, counter)
    elif not bounds:
        # The incumbent met the bound: no solver was started.
        assert cut_stats.nodes == 0 and cut_costs == [cost]
