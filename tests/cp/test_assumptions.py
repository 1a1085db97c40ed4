"""Pinned (unary-domain) variables.

The repair engine warm-starts a solve by freezing clean VMs as
``pinned_var`` unary variables built into the model.  They must behave like
ordinary assignments — propagate, participate in constraints — and an
impossible pin must yield a graceful infeasible result, never an exception.
"""

import pytest

from repro.cp import (
    AllDifferent,
    CostTable,
    ElementSum,
    Model,
    Solver,
    make_pinned_var,
)
from repro.model.errors import SolverError


class TestPinnedVariables:
    def test_make_pinned_var_has_a_unary_domain(self):
        var = make_pinned_var("x", 7)
        assert var.is_instantiated
        assert var.value == 7
        assert var.values() == (7,)

    def test_model_pinned_var_registers_like_int_var(self):
        model = Model()
        pinned = model.pinned_var("x", 3)
        assert pinned.value == 3
        with pytest.raises(SolverError):
            model.int_var("x", [0, 1])  # same namespace as int_var

    def test_pinned_var_participates_in_constraints(self):
        model = Model()
        pinned = model.pinned_var("x", 1)
        free = model.int_var("y", [0, 1, 2])
        model.add_constraint(AllDifferent([pinned, free]))
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

    def test_contradictory_pins_are_infeasible_not_an_error(self):
        model = Model()
        a = model.pinned_var("a", 1)
        b = model.pinned_var("b", 1)
        model.add_constraint(AllDifferent([a, b]))
        result = Solver(model).solve()
        assert result.best is None
