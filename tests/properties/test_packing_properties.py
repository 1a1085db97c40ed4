"""Property-based tests of the FFD heuristic and the bin-packing propagator."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cp import CostTable, ElementSum, Model, Solver, VectorPacking
from repro.decision.ffd import PackingTrial, ffd_commit
from repro.model.configuration import Configuration
from repro.model.node import make_working_nodes
from repro.model.vm import VirtualMachine


MEMORY_SIZES = (256, 512, 1024, 2048)


@st.composite
def packing_instances(draw):
    node_count = draw(st.integers(min_value=1, max_value=4))
    vm_count = draw(st.integers(min_value=1, max_value=6))
    capacities = [
        (draw(st.integers(min_value=1, max_value=2)), draw(st.sampled_from((2048, 4096))))
        for _ in range(node_count)
    ]
    demands = [
        (draw(st.integers(min_value=0, max_value=1)), draw(st.sampled_from(MEMORY_SIZES)))
        for _ in range(vm_count)
    ]
    return capacities, demands


@settings(max_examples=60, deadline=None)
@given(packing_instances())
def test_ffd_placement_respects_capacities(instance):
    capacities, demands = instance
    nodes = [
        make_working_nodes(1, cpu_capacity=c, memory_capacity=m, prefix=f"n{i}")[0]
        for i, (c, m) in enumerate(capacities)
    ]
    configuration = Configuration(nodes=nodes)
    vms = [
        VirtualMachine(name=f"vm{i}", memory=memory, cpu_demand=cpu)
        for i, (cpu, memory) in enumerate(demands)
    ]
    placement = ffd_commit(PackingTrial(configuration.nodes), vms)
    if placement is None:
        return
    # apply the placement and check viability
    for vm in vms:
        configuration.add_vm(vm)
        configuration.set_running(vm.name, placement[vm.name])
    assert configuration.is_viable()


@settings(max_examples=40, deadline=None)
@given(packing_instances())
def test_cp_packing_solutions_respect_capacities(instance):
    capacities, demands = instance
    model = Model()
    variables = [
        model.int_var(f"x{i}", range(len(capacities))) for i in range(len(demands))
    ]
    model.add_constraint(VectorPacking(variables, demands, capacities))
    result = Solver(model).solve()
    if result.best is None:
        return
    loads = [[0, 0] for _ in capacities]
    for index, var in enumerate(variables):
        node = result.best[var.name]
        loads[node][0] += demands[index][0]
        loads[node][1] += demands[index][1]
    for node, (cpu_cap, mem_cap) in enumerate(capacities):
        assert loads[node][0] <= cpu_cap
        assert loads[node][1] <= mem_cap


@settings(max_examples=25, deadline=None)
@given(packing_instances())
def test_branch_and_bound_matches_brute_force_on_small_instances(instance):
    """The CP optimum equals the exhaustive-search optimum on tiny instances."""
    capacities, demands = instance
    if len(demands) > 4 or len(capacities) > 3:
        return
    costs = [
        {node: (index + node) % 3 * 100 for node in range(len(capacities))}
        for index in range(len(demands))
    ]

    # brute force
    import itertools

    best = None
    for assignment in itertools.product(range(len(capacities)), repeat=len(demands)):
        loads = [[0, 0] for _ in capacities]
        for index, node in enumerate(assignment):
            loads[node][0] += demands[index][0]
            loads[node][1] += demands[index][1]
        if any(
            loads[n][0] > capacities[n][0] or loads[n][1] > capacities[n][1]
            for n in range(len(capacities))
        ):
            continue
        value = sum(costs[i][n] for i, n in enumerate(assignment))
        best = value if best is None else min(best, value)

    # CP search
    model = Model()
    variables = [
        model.int_var(f"x{i}", range(len(capacities))) for i in range(len(demands))
    ]
    # per-VM cost is (index + node) % 3 * 100, i.e. up to 200 — the domain
    # must cover the worst total or the CP search wrongly proves infeasible
    total = model.int_var("total", range(0, 200 * len(demands) + 1))
    model.add_constraint(VectorPacking(variables, demands, capacities))
    tables = [CostTable(0, table) for table in costs]
    model.add_constraint(ElementSum(variables, tables, total))
    result = Solver(model).solve(minimize=total)

    if best is None:
        assert result.best is None
    else:
        assert result.best is not None
        assert result.best.objective == best
