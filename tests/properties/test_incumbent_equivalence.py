"""The incumbent-first solve against the solve that always searches.

Under a catalog that compiles to unary domains only,
``ContextSwitchOptimizer._search`` computes the keep-in-place repair of the
observed placement before any model exists, returns it when it costs the
trivial lower bound and seeds branch-and-bound with it otherwise.  That must
only ever be an acceleration.  The reference needs no copied builder: one
vacuous relational constraint (every node may be online) makes the same
optimizer take the path that has no incumbent and no fold — it always
builds the whole model, pinned VMs included, and searches it.

On random instances — running (possibly on an overloaded host), sleeping
and waiting VMs, all wanted running — crossed with {no catalog, ``Fence``
strict, ``Fence`` elastic and crash-shrunken, ``Ban``, ``Root``} and {no
frozen VMs, a frozen region}:

* **same feasibility** — one finds a placement exactly when the other does;
* **never a worse cost** — the returned cost is never above the cost the
  reference proves, and whenever no solver was started the reference proves
  that very cost;
* **a placement one could plan** — every returned assignment is viable,
  keeps the frozen VMs where they run and violates nothing in the catalog.

A frozen region is what the repair engine may hand over: running VMs inside
their unary domain.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.constraints import Ban, Fence, MaxOnline, Root, violated_constraints
from repro.constraints.domains import vm_domains
from repro.core.optimizer import ContextSwitchOptimizer
from repro.cp import ENGINES, Solver
from repro.model.configuration import Configuration
from repro.model.node import Node, make_working_nodes
from repro.model.vm import VirtualMachine, VMState
from repro.testing import make_vm

MEMORY_CHOICES = (256, 512, 1024)
CATALOGS = ("none", "fence", "elastic-fence", "ban", "root")


@st.composite
def instances(draw):
    """A fleet, a unary catalog and the frozen region of a repair round."""
    node_count = draw(st.integers(min_value=3, max_value=6))
    configuration = Configuration()
    for i in range(node_count):
        configuration.add_node(
            Node(
                name=f"n{i}",
                cpu_capacity=draw(st.integers(min_value=1, max_value=3)),
                memory_capacity=draw(st.sampled_from((2048, 4096))),
            )
        )
    node_names = list(configuration.node_names)
    names = []
    for i in range(draw(st.integers(min_value=3, max_value=9))):
        vm = VirtualMachine(
            name=f"v{i}",
            memory=draw(st.sampled_from(MEMORY_CHOICES)),
            cpu_demand=draw(st.integers(min_value=0, max_value=2)),
        )
        configuration.add_vm(vm)
        names.append(vm.name)
        # Hosts are drawn, not probed: an overloaded node is an input.
        state = draw(st.sampled_from(("running", "running", "sleeping", "waiting")))
        if state == "running":
            configuration.set_running(vm.name, draw(st.sampled_from(node_names)))
        elif state == "sleeping":
            configuration.set_sleeping(vm.name, draw(st.sampled_from(node_names)))

    kind = draw(st.sampled_from(CATALOGS))
    members = names[:: draw(st.integers(min_value=1, max_value=2))]
    if kind == "fence":
        catalog = [Fence(members, node_names[:-1])]
    elif kind == "elastic-fence":
        catalog = [
            Fence(members, node_names, elastic=True).on_node_failure(node_names[0])
        ]
    elif kind == "ban":
        catalog = [Ban(members, node_names[:1])]
    elif kind == "root":
        catalog = [Root(members)]
    else:
        catalog = []

    placement = configuration.placement()
    domains = vm_domains(configuration, placement, catalog)
    freezable = [
        name
        for name, host in placement.items()
        if domains[name] is None or host in domains[name]
    ]
    frozen = set()
    if freezable and draw(st.booleans()):
        frozen = set(draw(st.lists(st.sampled_from(freezable), unique=True)))
    return configuration, names, catalog, frozen


def solve_recording_bounds(optimizer, configuration, names, catalog, frozen):
    """``search_assignment`` plus the ``initial_bound`` of every solver
    it started."""
    bounds = []
    solve = Solver.solve

    def spy(self, **kwargs):
        bounds.append(kwargs["initial_bound"])
        return solve(self, **kwargs)

    states = dict.fromkeys(names, VMState.RUNNING)
    with mock.patch.object(Solver, "solve", spy):
        assignment, statistics, improving = optimizer.search_assignment(
            configuration, states, catalog, frozen=frozen
        )
    return assignment, statistics, improving, bounds


def placement_cost(configuration, assignment):
    return sum(
        ContextSwitchOptimizer.movement_cost(configuration, vm, node)
        for vm, node in assignment.items()
    )


def _assert_plannable(configuration, names, catalog, frozen, assignment):
    assert set(assignment) == set(names)
    for vm in frozen:
        assert assignment[vm] == configuration.location_of(vm)
    target = configuration.copy()
    for vm, node in assignment.items():
        target.set_running(vm, node)
    assert target.is_viable()
    assert violated_constraints(target, catalog) == []
    for constraint in catalog:
        if isinstance(constraint, Root):
            # Stateful: no configuration violates it, a moved member does.
            for vm in constraint.vms:
                if configuration.state_of(vm) is VMState.RUNNING:
                    assert assignment[vm] == configuration.location_of(vm)


@settings(max_examples=150, deadline=None)
@given(instances(), st.sampled_from(ENGINES))
def test_incumbent_first_agrees_with_the_solve_that_always_searches(instance, engine):
    configuration, names, catalog, frozen = instance
    vacuous = MaxOnline(
        configuration.node_names, maximum=len(configuration.node_names)
    )
    optimizer = ContextSwitchOptimizer(timeout=10.0, engine=engine)
    assignment, statistics, improving, bounds = solve_recording_bounds(
        optimizer, configuration, names, catalog, frozen
    )
    reference, reference_stats, _, reference_bounds = solve_recording_bounds(
        optimizer, configuration, names, catalog + [vacuous], frozen
    )
    # The reference never has an incumbent, and searches unless the build
    # already refused the instance.
    assert reference_bounds in ([None], [])
    assert (assignment is None) == (reference is None)
    if assignment is None:
        assert statistics.nodes <= reference_stats.nodes
        return
    assert reference_stats.proven_optimal
    _assert_plannable(configuration, names, catalog, frozen, assignment)
    _assert_plannable(configuration, names, catalog, frozen, reference)
    cost = placement_cost(configuration, assignment)
    assert cost <= placement_cost(configuration, reference)
    if not bounds and frozen != set(names):
        # The incumbent met the bound: nothing was built, nothing searched,
        # and the search proves that cost.
        assert (statistics.nodes, statistics.solutions) == (0, 1)
        assert statistics.proven_optimal
        assert improving == [cost]
        assert cost == placement_cost(configuration, reference)


def test_an_incumbent_that_misses_the_bound_seeds_the_search(models):
    # node-0 holds two 1-cpu VMs on one cpu: keep-in-place keeps ``x`` and
    # sends ``y`` (1 024) away, the bound is 0, and the optimum moves ``x``
    # (512) instead — what the parent planned without a bound to prune with.
    configuration = Configuration(
        nodes=make_working_nodes(3, cpu_capacity=1, memory_capacity=4096)
    )
    for name, memory in (("x", 512), ("y", 1024)):
        configuration.add_vm(make_vm(name, memory=memory, cpu=1))
        configuration.set_running(name, "node-0")
    fence = Fence(["x", "y"], ["node-0", "node-1"])
    optimizer = ContextSwitchOptimizer(timeout=10.0)
    assignment, statistics, improving, bounds = solve_recording_bounds(
        optimizer, configuration, ["x", "y"], [fence], set()
    )
    assert [len(model.variables) for model in models] == [3]
    # Costs are scaled by their gcd (512) inside the model.
    assert bounds == [2]
    assert assignment == {"x": "node-1", "y": "node-0"}
    assert improving == [512] and statistics.proven_optimal
    result = optimizer.optimize(configuration, {}, constraints=[fence])
    assert result.cost == 512
    assert result.plan.constraint_violations == []
