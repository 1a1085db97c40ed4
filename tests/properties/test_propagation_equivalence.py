"""Propagation-engine equivalence properties.

The shipped event-driven solver (incremental propagators, priority queue,
trailed counters) and the retained naive-fixpoint reference
(``reference_propagation.py``: the same solver over one constraint that
re-runs every from-scratch propagator until nothing changes) must be
observationally identical on the RJSP-style models the optimizer builds:
same satisfiability, same optimum, same proof-of-optimality status, and a
returned solution that satisfies every constraint.  Any mismatch means an
incremental counter or an idempotence flag is wrong.

Each engine gets its own freshly built model: variables are stateful, so the
two searches must not share domains.

The instances are small enough to enumerate, so the claim a search makes when
it stops at the root bound — ``proven_optimal`` without walking the tree — is
also checked against the brute-force optimum.
"""

from __future__ import annotations

from itertools import product

from hypothesis import given, settings, strategies as st
from reference_propagation import SOLVERS, is_satisfied

from repro.cp import (
    AllDifferent,
    CostTable,
    CountInValuesAtMost,
    ElementSum,
    Model,
    VectorPacking,
    prefer_value,
    static_order,
)

MEMORY_SIZES = (256, 512, 1024, 2048)


@st.composite
def rjsp_instances(draw):
    """A small randomized RJSP-like instance description (pure data, so the
    model can be built once per engine)."""
    node_count = draw(st.integers(min_value=1, max_value=4))
    vm_count = draw(st.integers(min_value=1, max_value=5))
    capacities = [
        (
            draw(st.integers(min_value=0, max_value=3)),
            draw(st.sampled_from((2048, 4096, 8192))),
        )
        for _ in range(node_count)
    ]
    demands = [
        (
            draw(st.integers(min_value=0, max_value=2)),
            draw(st.sampled_from(MEMORY_SIZES)),
        )
        for _ in range(vm_count)
    ]
    # Per-VM movement-cost tables over all nodes, like Table 1's cost model.
    tables = [
        {node: draw(st.integers(min_value=0, max_value=20)) for node in range(node_count)}
        for _ in range(vm_count)
    ]
    preferences = {
        f"x{i}": draw(st.integers(min_value=0, max_value=node_count - 1))
        for i in range(vm_count)
        if draw(st.booleans())
    }
    # Optional relational constraints, as Spread / RunningCapacity would
    # add: a (watched nodes, maximum) cap on the VMs hosted by a node set.
    spread = draw(st.booleans()) and vm_count >= 2
    capped = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.frozensets(st.integers(0, node_count - 1), min_size=1),
                st.integers(min_value=0, max_value=vm_count),
            ),
        )
    )
    # Optional external incumbent, as the greedy repair would seed.
    initial_bound = draw(
        st.one_of(st.none(), st.integers(min_value=0, max_value=30))
    )
    return {
        "capacities": capacities,
        "demands": demands,
        "tables": tables,
        "preferences": preferences,
        "spread": spread,
        "capped": capped,
        "initial_bound": initial_bound,
    }


def _build(instance):
    node_count = len(instance["capacities"])
    model = Model()
    assignment = [
        model.int_var(f"x{i}", range(node_count))
        for i in range(len(instance["demands"]))
    ]
    model.add_constraint(
        VectorPacking(assignment, instance["demands"], instance["capacities"])
    )
    upper = sum(max(t.values()) for t in instance["tables"])
    total = model.interval_var("total", 0, upper)
    tables = [CostTable(0, table) for table in instance["tables"]]
    model.add_constraint(ElementSum(assignment, tables, total))
    if instance["spread"]:
        model.add_constraint(AllDifferent(assignment[:2]))
    if instance["capped"] is not None:
        model.add_constraint(CountInValuesAtMost(assignment, *instance["capped"]))
    return model, assignment, total


def _solve(instance, engine):
    model, assignment, total = _build(instance)
    solver = SOLVERS[engine](
        model,
        variable_selector=static_order(assignment),
        value_selector=prefer_value(instance["preferences"]),
    )
    result = solver.solve(
        minimize=total, initial_bound=instance["initial_bound"], collect_all=True
    )
    return model, result


@settings(max_examples=120, deadline=None)
@given(rjsp_instances())
def test_engines_agree_on_optimum_and_proof(instance):
    model_e, event = _solve(instance, "event")
    model_f, fixpoint = _solve(instance, "fixpoint")

    assert (event.best is None) == (fixpoint.best is None)
    assert event.statistics.proven_optimal == fixpoint.statistics.proven_optimal
    if event.best is not None:
        assert event.best.objective == fixpoint.best.objective
        # The best solution of either engine satisfies every constraint of
        # its own model (domains were mutated in place during the search, so
        # check against the model that produced the solution).
        for model, result in ((model_e, event), (model_f, fixpoint)):
            for var in model.variables:
                var.domain.assign(result.best[var.name])
            assert all(is_satisfied(c) for c in model.constraints)


@settings(max_examples=60, deadline=None)
@given(rjsp_instances())
def test_engines_agree_in_satisfaction_mode(instance):
    results = {}
    for engine in ("event", "fixpoint"):
        model, assignment, total = _build(instance)
        solver = SOLVERS[engine](model, variable_selector=static_order(assignment))
        results[engine] = solver.solve()
    assert (results["event"].best is None) == (results["fixpoint"].best is None)
    if results["event"].best is not None:
        assert results["event"].best.values == results["fixpoint"].best.values


@settings(max_examples=60, deadline=None)
@given(rjsp_instances())
def test_event_engine_explores_the_same_tree(instance):
    """With identical heuristics the engines must reach the same fixpoints,
    hence walk byte-identical search trees (same node/backtrack counts)."""
    _, event = _solve(instance, "event")
    _, fixpoint = _solve(instance, "fixpoint")
    assert event.statistics.nodes == fixpoint.statistics.nodes
    assert event.statistics.backtracks == fixpoint.statistics.backtracks
    assert event.statistics.solutions == fixpoint.statistics.solutions


def _brute_force_optimum(instance):
    """The cheapest assignment satisfying every constraint ``_build`` posts,
    by enumeration; ``None`` when there is none."""
    capacities = instance["capacities"]
    demands = instance["demands"]
    best = None
    for assignment in product(range(len(capacities)), repeat=len(demands)):
        loads = [[0, 0] for _ in capacities]
        for node, (cpu, memory) in zip(assignment, demands):
            loads[node][0] += cpu
            loads[node][1] += memory
        if any(
            load[0] > capacity[0] or load[1] > capacity[1]
            for load, capacity in zip(loads, capacities)
        ):
            continue
        if instance["spread"] and assignment[0] == assignment[1]:
            continue
        if instance["capped"] is not None:
            watched, maximum = instance["capped"]
            if sum(node in watched for node in assignment) > maximum:
                continue
        cost = sum(table[node] for table, node in zip(instance["tables"], assignment))
        if best is None or cost < best:
            best = cost
    return best


@settings(max_examples=120, deadline=None)
@given(rjsp_instances())
def test_a_proven_optimum_is_the_brute_force_optimum(instance):
    """With the incumbent the instance drew and without one: what a search
    calls proven — by exhausting the tree or by meeting the root bound — is
    the enumerated optimum, and both engines get there by the same tree."""
    optimum = _brute_force_optimum(instance)
    for initial_bound in {instance["initial_bound"], None}:
        seeded = {**instance, "initial_bound": initial_bound}
        _, event = _solve(seeded, "event")
        _, fixpoint = _solve(seeded, "fixpoint")
        for result in (event, fixpoint):
            if optimum is None or (
                initial_bound is not None and optimum >= initial_bound
            ):
                # nothing (strictly better than the incumbent) exists
                assert result.best is None
                assert result.statistics.proven_optimal == (initial_bound is not None)
            else:
                assert result.statistics.proven_optimal
                assert result.best.objective == optimum
            if result.stop == "bound":
                assert result.best.objective == result.root_bound
        assert (
            event.stop,
            event.statistics.nodes,
            event.statistics.backtracks,
            event.statistics.solutions,
            event.best and event.best.values,
        ) == (
            fixpoint.stop,
            fixpoint.statistics.nodes,
            fixpoint.statistics.backtracks,
            fixpoint.statistics.solutions,
            fixpoint.best and fixpoint.best.values,
        )
