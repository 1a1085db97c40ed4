"""Tests of the propagators backing the placement-constraint catalog.

Each propagator (NotEqual, AllDifferent with exceptions,
CountInValuesAtMost) is checked by *exhaustive enumeration*:
the solver's full solution set — under both the shipped event-driven
solver and the retained naive-fixpoint reference
(``tests/properties/reference_propagation.py``) — must equal the
brute-forced set of satisfying assignments.  This pins both soundness (no
spurious solution) and completeness (no pruned solution) of the
propagation.

The ElementSum/VectorPacking empty-variable-list guards (degenerate models
that constraint compilation can now emit) are covered at the bottom.
"""

from __future__ import annotations

import itertools

import pytest
from reference_propagation import SOLVERS, is_satisfied

from repro.constraints import Spread
from repro.cp import (
    AllDifferent,
    CountInValuesAtMost,
    ElementSum,
    Model,
    NotEqual,
    VectorPacking,
)


def solve_all(build, engine):
    """All solutions of the model built by ``build(model) -> (vars, constraint)``."""
    model = Model()
    variables, constraint = build(model)
    model.add_constraint(constraint)
    result = SOLVERS[engine](model).solve(collect_all=True)
    return {
        tuple(solution[var.name] for var in variables)
        for solution in result.all_solutions
    }


def brute_force(domains, predicate):
    return {
        assignment
        for assignment in itertools.product(*domains)
        if predicate(assignment)
    }


@pytest.mark.parametrize("engine", SOLVERS)
class TestCatalogPropagators:
    def test_not_equal(self, engine):
        domains = [(0, 1, 2), (1, 2)]

        def build(model):
            a = model.int_var("a", domains[0])
            b = model.int_var("b", domains[1])
            return [a, b], NotEqual(a, b)

        expected = brute_force(domains, lambda s: s[0] != s[1])
        assert solve_all(build, engine) == expected

    def test_not_equal_detects_forced_conflict(self, engine):
        def build(model):
            a = model.int_var("a", [1])
            b = model.int_var("b", [1])
            return [a, b], NotEqual(a, b)

        assert solve_all(build, engine) == set()

    def test_all_different_except(self, engine):
        domains = [(0, 1, 2)] * 3
        exceptions = {2}

        def build(model):
            variables = [
                model.int_var(f"x{i}", domain)
                for i, domain in enumerate(domains)
            ]
            return variables, AllDifferent(variables, exceptions)

        def ok(solution):
            hard = [v for v in solution if v not in exceptions]
            return len(hard) == len(set(hard))

        expected = brute_force(domains, ok)
        assert solve_all(build, engine) == expected

    def test_count_in_values_at_most(self, engine):
        domains = [(0, 1, 2)] * 3
        watched = {0, 1}

        def build(model):
            variables = [
                model.int_var(f"x{i}", domain)
                for i, domain in enumerate(domains)
            ]
            return variables, CountInValuesAtMost(variables, watched, 2)

        expected = brute_force(
            domains, lambda s: sum(1 for v in s if v in watched) <= 2
        )
        assert solve_all(build, engine) == expected

    def test_count_in_values_at_most_zero_excludes_the_watched_values(
        self, engine
    ):
        domains = [(0, 1, 2), (1, 2, 3)]
        watched = {1, 2}

        def build(model):
            variables = [
                model.int_var(f"x{i}", domain)
                for i, domain in enumerate(domains)
            ]
            return variables, CountInValuesAtMost(variables, watched, 0)

        assert solve_all(build, engine) == {(0, 3)}

    def test_count_in_values_at_most_with_room_for_everyone(self, engine):
        domains = [(0, 1), (0, 1), (1, 2)]

        def build(model):
            variables = [
                model.int_var(f"x{i}", domain)
                for i, domain in enumerate(domains)
            ]
            return variables, CountInValuesAtMost(variables, {0, 1}, 3)

        assert solve_all(build, engine) == brute_force(domains, lambda s: True)

    @pytest.mark.parametrize(
        "members, collocation, compiled",
        [
            (2, (), NotEqual),
            (2, ("node-2",), AllDifferent),
            (3, (), AllDifferent),
            (3, ("node-2",), AllDifferent),
        ],
    )
    def test_spread_compiles_to_one_pairwise_different_propagator(
        self, engine, members, collocation, compiled
    ):
        # Two members compile to NotEqual; more members, or any collocation
        # node, to the one AllDifferent, whose exceptions are the collocation
        # nodes.  Either way the solutions are the Spread's.
        domains = [(0, 1, 2), (0, 1), (1, 2)][:members]
        node_index = {f"node-{i}": i for i in range(3)}
        spread = Spread([f"x{i}" for i in range(members)], collocation)
        excepted = {node_index[name] for name in collocation}
        emitted = []

        def build(model):
            variables = {
                f"x{i}": model.int_var(f"x{i}", domain)
                for i, domain in enumerate(domains)
            }
            (constraint,) = spread.cp_constraints(variables, node_index)
            emitted.append(type(constraint))
            return list(variables.values()), constraint

        def ok(solution):
            hard = [v for v in solution if v not in excepted]
            return len(hard) == len(set(hard))

        assert solve_all(build, engine) == brute_force(domains, ok)
        assert emitted == [compiled]

    def test_is_satisfied_mirrors_propagation(self, engine):
        # every accepted solution must also pass the instantiated check
        domains = [(0, 1, 2)] * 3

        def build(model):
            variables = [
                model.int_var(f"x{i}", domain)
                for i, domain in enumerate(domains)
            ]
            return variables, CountInValuesAtMost(variables, {0, 1}, 2)

        model = Model()
        variables, constraint = build(model)
        model.add_constraint(constraint)
        result = SOLVERS[engine](model).solve(collect_all=True)
        assert result.all_solutions
        # the solver leaves the domains restored; re-check each solution by
        # re-instantiating through a fresh throwaway model
        for solution in result.all_solutions:
            values = [solution[var.name] for var in variables]
            check = Model()
            check_vars = [
                check.int_var(f"x{i}", [value]) for i, value in enumerate(values)
            ]
            assert is_satisfied(CountInValuesAtMost(check_vars, {0, 1}, 2))


@pytest.mark.parametrize("engine", SOLVERS)
class TestDegenerateModels:
    """Constraint compilation can emit trivial models (nothing to place);
    the workhorse propagators must guard the empty-variable-list path."""

    def test_element_sum_with_no_variables_pins_total_to_zero(self, engine):
        model = Model()
        total = model.interval_var("total", 0, 7)
        model.add_constraint(ElementSum([], [], total))
        result = SOLVERS[engine](model).solve(minimize=total)
        assert result.best is not None
        assert result.best["total"] == 0

    def test_element_sum_with_no_variables_fails_without_zero(self, engine):
        model = Model()
        total = model.interval_var("total", 3, 7)
        model.add_constraint(ElementSum([], [], total))
        result = SOLVERS[engine](model).solve()
        assert result.best is None

    def test_vector_packing_with_no_items_is_a_noop(self, engine):
        model = Model()
        other = model.int_var("other", [0, 1])
        model.add_constraint(VectorPacking([], [], [(2, 2048), (2, 2048)]))
        result = SOLVERS[engine](model).solve(collect_all=True)
        assert {s["other"] for s in result.all_solutions} == {0, 1}

    def test_vector_packing_empty_is_satisfied(self, engine):
        assert is_satisfied(VectorPacking([], [], [(1, 1024)]))

    def test_element_sum_empty_is_satisfied_at_zero(self, engine):
        model = Model()
        total = model.int_var("total", [0])
        constraint = ElementSum([], [], total)
        assert is_satisfied(constraint)
