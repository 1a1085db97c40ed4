"""Tests of the search: satisfaction, branch-and-bound, heuristics, timeout."""

import inspect
import sys

import pytest
from reference_propagation import SOLVERS

from repro.cp import (
    ActivityLastConflict,
    AllDifferent,
    Constraint,
    CostTable,
    CountInValuesAtMost,
    ElementSum,
    IntVar,
    Model,
    Solver,
    VectorPacking,
    first_fail,
    prefer_value,
    static_order,
)
from repro.model.errors import SolverError
from repro.obs import Tracer


class TestModel:
    def test_duplicate_variable_names_rejected(self):
        model = Model()
        model.int_var("x", [0, 1])
        with pytest.raises(SolverError):
            model.int_var("x", [0, 1])


class TestSatisfaction:
    def test_trivial_problem(self):
        model = Model()
        model.int_var("x", [4])
        result = Solver(model).solve()
        assert result.best is not None
        assert result.best["x"] == 4

    def test_a_singleton_variable_is_instantiated(self):
        var = Model().int_var("x", [7])
        assert var.is_instantiated
        assert var.value == 7
        assert var.values() == (7,)

    def test_a_singleton_variable_prunes_through_constraints(self):
        model = Model()
        fixed = model.int_var("x", [1])
        free = model.int_var("y", [0, 1, 2])
        model.add_constraint(AllDifferent([fixed, free]))
        cost = model.int_var("cost", range(0, 6))
        model.add_constraint(
            ElementSum([free], [CostTable(0, {0: 5, 1: 0, 2: 3})], cost)
        )
        result = Solver(model).solve(minimize=cost)
        assert result.best is not None
        assert result.best["x"] == 1
        # y in {0, 2} after AllDifferent; costs 5 and 3 -> optimum picks y=2
        assert result.best["y"] == 2
        assert result.best.objective == 3

    def test_contradictory_singletons_are_infeasible_not_an_error(self):
        model = Model()
        a = model.int_var("a", [1])
        b = model.int_var("b", [1])
        model.add_constraint(AllDifferent([a, b]))
        assert Solver(model).solve().best is None

    def test_unsatisfiable_problem(self):
        model = Model()
        x = model.int_var("x", [0, 1])
        y = model.int_var("y", [0, 1])
        model.add_constraint(AllDifferent([x, y]))
        model.add_constraint(CountInValuesAtMost([x, y], {1}, 0))
        result = Solver(model).solve()
        assert result.best is None

    def test_first_solution_only_stops_a_satisfaction_search(self):
        model = Model()
        model.int_var("x", range(5))
        result = Solver(model).solve(first_solution_only=True, collect_all=True)
        assert len(result.all_solutions) == 1
        assert result.stop == "first"

    def test_statistics_are_populated(self):
        model = Model()
        variables = [model.int_var(f"v{i}", range(3)) for i in range(3)]
        model.add_constraint(AllDifferent(variables))
        result = Solver(model).solve()
        stats = result.statistics
        assert stats.nodes > 0
        assert stats.solutions >= 1
        assert stats.elapsed >= 0.0


class TestMinimization:
    def _packing_model(self):
        """Two items, two bins, cheaper to keep item0 on bin0."""
        model = Model()
        x0 = model.int_var("x0", [0, 1])
        x1 = model.int_var("x1", [0, 1])
        total = model.int_var("total", range(0, 50))
        model.add_constraint(
            VectorPacking([x0, x1], [(1, 10), (1, 10)], [(1, 20), (1, 20)])
        )
        model.add_constraint(
            ElementSum(
                [x0, x1],
                [CostTable(0, {0: 0, 1: 10}), CostTable(0, {0: 10, 1: 0})],
                total,
            )
        )
        return model, total

    def test_optimum_found_and_proved(self):
        model, total = self._packing_model()
        result = Solver(model).solve(minimize=total)
        assert result.best.objective == 0
        assert result.best["x0"] == 0 and result.best["x1"] == 1
        assert result.statistics.proven_optimal

    def test_first_solution_only_mode(self):
        model, total = self._packing_model()
        result = Solver(model).solve(minimize=total, first_solution_only=True)
        assert result.best is not None
        # the first solution is not necessarily the optimum, but it is valid
        assert result.best.objective in (0, 10, 20)

    def test_collect_all_reports_improving_solutions(self):
        model, total = self._packing_model()
        result = Solver(model).solve(minimize=total, collect_all=True)
        objectives = [s.objective for s in result.all_solutions]
        assert objectives == sorted(objectives, reverse=True) or len(objectives) == 1
        assert objectives[-1] == 0

    def test_initial_bound_filters_worse_solutions(self):
        model, total = self._packing_model()
        result = Solver(model).solve(minimize=total, initial_bound=0)
        # nothing is strictly better than 0, so the search returns no solution
        assert result.best is None
        assert result.statistics.proven_optimal

    def test_initial_bound_allows_improvement(self):
        model, total = self._packing_model()
        result = Solver(model).solve(minimize=total, initial_bound=5)
        assert result.best.objective == 0

    def test_timeout_returns_best_so_far(self):
        model = Model()
        variables = [model.int_var(f"v{i}", range(8)) for i in range(8)]
        total = model.int_var("total", range(0, 100))
        model.add_constraint(AllDifferent(variables))
        model.add_constraint(
            ElementSum(variables, [CostTable(0, {v: v for v in range(8)})] * 8, total)
        )
        result = Solver(model).solve(minimize=total, timeout=0.0)
        assert result.statistics.timed_out
        assert not result.statistics.proven_optimal


class TestHeuristics:
    def test_first_fail_picks_smallest_domain(self):
        a = IntVar("a", range(0, 10))
        b = IntVar("b", range(0, 2))
        assert first_fail([a, b]) is b

    def test_first_fail_with_all_instantiated(self):
        a = IntVar("a", range(1, 2))
        assert first_fail([a]) is None

    def test_static_order_respects_order(self):
        a = IntVar("a", range(0, 4))
        b = IntVar("b", range(0, 4))
        selector = static_order([b, a])
        assert selector([a, b]) is b

    def test_prefer_value_puts_preference_first(self):
        a = IntVar("a", range(0, 4))
        selector = prefer_value({"a": 2})
        assert list(selector(a))[0] == 2

    def test_prefer_value_ignores_pruned_preference(self):
        a = IntVar("a", range(0, 4))
        a.domain.remove(2)
        selector = prefer_value({"a": 2})
        assert 2 not in selector(a)

    def test_activity_last_conflict_prefers_conflict_variable(self):
        a = IntVar("a", range(0, 4))
        b = IntVar("b", range(0, 4))
        selector = ActivityLastConflict(static_order([a, b]))
        assert selector([a, b]) is a
        selector.on_failure(b)
        assert selector([a, b]) is b
        b.domain.assign(1)
        # instantiated conflict variable: fall back to the primary order
        assert selector([a, b]) is a

    def test_activity_last_conflict_reset(self):
        a = IntVar("a", range(0, 4))
        b = IntVar("b", range(0, 4))
        selector = ActivityLastConflict(static_order([a, b]))
        selector.on_failure(b)
        selector.reset()
        assert selector([a, b]) is a


class TestEngines:
    def _model(self):
        model = Model()
        x0 = model.int_var("x0", [0, 1])
        x1 = model.int_var("x1", [0, 1])
        total = model.interval_var("total", 0, 40)
        model.add_constraint(
            VectorPacking([x0, x1], [(1, 10), (1, 10)], [(1, 20), (1, 20)])
        )
        model.add_constraint(
            ElementSum(
                [x0, x1],
                [CostTable(0, {0: 0, 1: 10}), CostTable(0, {0: 10, 1: 0})],
                total,
            )
        )
        return model, total

    @pytest.mark.parametrize("engine", SOLVERS)
    def test_both_engines_find_the_proven_optimum(self, engine):
        model, total = self._model()
        result = SOLVERS[engine](model).solve(minimize=total)
        assert result.best.objective == 0
        assert result.statistics.proven_optimal

    def test_event_engine_counts_propagations_and_events(self):
        model, total = self._model()
        result = Solver(model).solve(minimize=total)
        assert result.statistics.propagations > 0
        assert result.statistics.events > 0

    def test_node_limit_caps_search_without_proof(self):
        model = Model()
        variables = [model.int_var(f"v{i}", range(8)) for i in range(8)]
        total = model.interval_var("total", 0, 100)
        model.add_constraint(AllDifferent(variables))
        model.add_constraint(
            ElementSum(variables, [CostTable(0, {v: v for v in range(8)})] * 8, total)
        )
        result = Solver(model).solve(minimize=total, node_limit=3)
        assert result.statistics.limit_reached
        assert not result.statistics.proven_optimal
        assert result.statistics.nodes == 3

    def test_domains_restored_when_a_propagator_raises(self):
        """Non-InconsistencyError exceptions must unwind the whole trail."""

        class PruneThenRaise(Constraint):
            def __init__(self, x, y):
                self._vars = [x, y]

            def variables(self):
                return self._vars

            def propagate_events(self, store, dirty):
                store.remove(self._vars[0], 0)
                store.remove_above(self._vars[1], 2)
                raise ValueError("a propagator bug")

        model = Model()
        x = model.int_var("x", [0, 2])
        y = model.interval_var("y", 0, 4)
        model.add_constraint(PruneThenRaise(x, y))
        solver = Solver(model)
        with pytest.raises(ValueError):
            solver.solve()
        assert x.values() == (0, 2)
        assert y.min == 0 and y.max == 4

    def test_interval_objective_matches_sparse_objective(self):
        tables = [
            CostTable(0, {0: 3, 1: 7}),
            CostTable(0, {0: 5, 1: 1}),
            CostTable(0, {0: 2, 1: 9}),
        ]
        sparse = Model()
        xs = [sparse.int_var(f"x{i}", [0, 1]) for i in range(3)]
        total_sparse = sparse.int_var("total", range(0, 31))
        sparse.add_constraint(ElementSum(xs, tables, total_sparse))
        dense = Model()
        ys = [dense.int_var(f"x{i}", [0, 1]) for i in range(3)]
        total_dense = dense.interval_var("total", 0, 30)
        dense.add_constraint(ElementSum(ys, tables, total_dense))
        a = Solver(sparse).solve(minimize=total_sparse)
        b = Solver(dense).solve(minimize=total_dense)
        assert a.best.objective == b.best.objective == 6


class TestIterativeSearch:
    """The tree is walked over an explicit stack: depth costs memory, not
    interpreter frames, and the trailed selector cursor follows the
    backtracking."""

    def test_depth_is_independent_of_the_recursion_limit(self):
        model = Model()
        variables = [model.int_var(f"v{i}", [0, 1]) for i in range(300)]
        solver = Solver(model, variable_selector=static_order(variables))
        limit = sys.getrecursionlimit()
        # Room for the calls under one node (propagators, store, domains),
        # nowhere near one frame per decision.
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            result = solver.solve(first_solution_only=True)
        finally:
            sys.setrecursionlimit(limit)
        assert result.statistics.nodes == 301
        assert set(result.best.values.values()) == {0}

    def test_static_order_cursor_follows_the_backtracking(self):
        """A tree with dead ends below propagation-fixed variables: after
        each backtrack the selector must offer the variables the undone
        propagation released again, in its own order."""
        walks = []
        for make_selector in (static_order, rescanning_order):
            model = Model()
            variables = [model.int_var(f"v{i}", range(5)) for i in range(5)]
            model.add_constraint(AllDifferent(variables))
            # v0 and v1 both in {0, 1}.
            model.add_constraint(
                CountInValuesAtMost(variables[:2], {2, 3, 4}, 0)
            )
            order = [variables[i] for i in (3, 0, 4, 1, 2)]
            branched = []

            def values(var):
                branched.append(var.name)
                return var.values()

            result = Solver(
                model, variable_selector=make_selector(order), value_selector=values
            ).solve(collect_all=True)
            walks.append(
                (branched, [solution.values for solution in result.all_solutions])
            )
        assert walks[0] == walks[1]
        assert len(walks[0][1]) == 12

    def test_static_order_scans_from_the_start_outside_a_search(self):
        a = IntVar("a", range(0, 4))
        b = IntVar("b", range(0, 4))
        selector = static_order([a, b])
        a.domain.assign(1)
        assert selector([a, b]) is b
        a.domain.restore_to(4)
        assert selector([a, b]) is a


def rescanning_order(order):
    """``static_order`` without its cursor: rescan the order at every node."""

    def select(variables):
        for var in order:
            if not var.is_instantiated:
                return var
        return None

    return select


def traced_solve(solver, **options):
    """Solve under a tracer; returns the result and the attributes of its
    ``cp.solve`` span."""
    tracer = Tracer(name="test")
    with tracer.activate():
        result = solver.solve(**options)
    (solve_span,) = tracer.root.children
    return result, solve_span.attributes


class TestWhyTheSearchStopped:
    def _ranked(self, size=4):
        """``size`` free variables, cost = sum of their values: the root
        bound is 0, met by the first dive in ascending value order and by
        the last of several improvements in descending order."""
        model = Model()
        variables = [model.int_var(f"v{i}", range(size)) for i in range(size)]
        total = model.interval_var("total", 0, size * size)
        model.add_constraint(
            ElementSum(
                variables,
                [CostTable(0, {v: v for v in range(size)})] * size,
                total,
            )
        )
        return model, total

    def test_a_solution_at_the_root_bound_ends_the_search(self):
        model = Model()
        xs = [model.int_var(f"x{i}", range(6)) for i in range(6)]
        total = model.interval_var("total", 0, 60)
        model.add_constraint(
            ElementSum(
                xs,
                [CostTable(5, {i: 0}) for i in range(6)],
                total,
            )
        )
        result = Solver(
            model,
            variable_selector=static_order(xs),
            value_selector=prefer_value({f"x{i}": i for i in range(6)}),
        ).solve(minimize=total)
        assert (result.stop, result.root_bound, result.best.objective) == ("bound", 0, 0)
        assert result.statistics.proven_optimal
        # one dive: a node per variable and the leaf, nothing unwound
        assert (result.statistics.nodes, result.statistics.backtracks) == (7, 0)

    def test_a_first_solution_at_the_bound_is_proven_too(self):
        model, total = self._ranked()
        result = Solver(model).solve(minimize=total, first_solution_only=True)
        assert result.best.objective == result.root_bound
        assert result.stop == "bound" and result.statistics.proven_optimal

    def test_an_optimum_above_the_root_bound_takes_the_whole_tree(self):
        model = Model()
        x0 = model.int_var("x0", [0, 1])
        x1 = model.int_var("x1", [0, 1])
        total = model.interval_var("total", 0, 40)
        # both prefer bin 0, which only holds one of them
        model.add_constraint(
            VectorPacking([x0, x1], [(1, 10), (1, 10)], [(1, 10), (1, 10)])
        )
        model.add_constraint(
            ElementSum(
                [x0, x1],
                [CostTable(0, {0: 0, 1: 10}), CostTable(0, {0: 0, 1: 10})],
                total,
            )
        )
        result = Solver(model).solve(minimize=total)
        assert (result.root_bound, result.best.objective) == (0, 10)
        assert result.stop == "exhausted" and result.statistics.proven_optimal

    def test_every_stop_reason_reaches_the_span(self):
        def stop_of(**options):
            model, total = self._ranked()
            # descending values: the first dive is the worst solution
            solver = Solver(model, value_selector=lambda var: var.values()[::-1])
            result, attributes = traced_solve(solver, minimize=total, **options)
            assert attributes["stop"] == result.stop
            return attributes

        assert stop_of()["stop"] == "bound"
        assert stop_of(timeout=0.0)["stop"] == "timeout"
        assert stop_of(node_limit=3)["stop"] == "node_limit"
        assert stop_of(first_solution_only=True)["stop"] == "first"
        assert stop_of(initial_bound=0)["stop"] == "exhausted"

    def test_the_span_separates_first_best_and_proof_time(self):
        model, total = self._ranked()
        solver = Solver(model, value_selector=lambda var: var.values()[::-1])
        result, attributes = traced_solve(solver, minimize=total)
        assert result.statistics.solutions > 1
        assert attributes["root_bound"] == 0
        assert 0 <= attributes["first_solution_ms"] < attributes["best_solution_ms"]
        assert attributes["proof_ms"] >= 0
        assert (
            attributes["best_solution_ms"] + attributes["proof_ms"]
            == pytest.approx(result.statistics.elapsed * 1000.0)
        )

    def test_a_search_without_a_solution_is_all_proof(self):
        model = Model()
        x = model.int_var("x", [0, 1])
        y = model.int_var("y", [0, 1])
        model.add_constraint(AllDifferent([x, y]))
        model.add_constraint(CountInValuesAtMost([x, y], {1}, 0))
        result, attributes = traced_solve(Solver(model))
        assert attributes["first_solution_ms"] is None
        assert attributes["best_solution_ms"] is None
        assert attributes["proof_ms"] == pytest.approx(
            result.statistics.elapsed * 1000.0
        )
        assert attributes["stop"] == "exhausted" and attributes["root_bound"] is None
