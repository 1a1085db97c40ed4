"""Tests of the constraint propagators, on the protocol a search drives:
the variables indexed by a :class:`~repro.cp.Model`, the constraint
registered, then ``propagate_events`` with every variable dirty, as at a
search's root.  ``is_satisfied`` is the retained reference's
(``tests/properties/reference_propagation.py``)."""

import pytest
from reference_propagation import is_satisfied

from repro.cp import (
    AllDifferent,
    CostTable,
    CountInValuesAtMost,
    ElementSum,
    IntVar,
    Model,
    NotEqual,
    Solver,
    VectorPacking,
)
from repro.model.errors import InconsistencyError


class _RecordingStore:
    """Minimal store for exercising propagators in isolation."""

    def __init__(self):
        self.undos = []

    def record_undo(self, undo):
        self.undos.append(undo)

    def remove(self, var, value):
        var.domain.remove(value)

    def remove_many(self, var, values):
        var.domain.remove_many(values)

    def remove_above(self, var, bound):
        var.domain.remove_above(bound)

    def remove_below(self, var, bound):
        var.domain.remove_below(bound)

    def assign(self, var, value):
        var.domain.assign(value)


@pytest.fixture
def store():
    return _RecordingStore()


def propagate(constraint, store):
    """One propagation of ``constraint`` with every variable dirty."""
    constraint.propagate_events(store, [var.index for var in constraint.variables()])
    return constraint


def at_root(constraint, store):
    """Propagate ``constraint`` as a search's root does: its variables
    indexed by a model, the constraint registered, then one propagation
    with every variable dirty."""
    model = Model()
    for var in constraint.variables():
        model.add_variable(var)
    model.add_constraint(constraint)
    constraint.register(store)
    return propagate(constraint, store)


class TestElementSum:
    def test_total_bounds_are_tightened(self, store):
        x = IntVar("x", [0, 1])
        y = IntVar("y", [0, 1])
        total = IntVar("total", range(0, 101))
        tables = [CostTable(0, {0: 0, 1: 10}), CostTable(0, {0: 5, 1: 20})]
        at_root(ElementSum([x, y], tables, total), store)
        assert total.min == 5 and total.max == 30

    def test_expensive_values_are_pruned(self, store):
        x = IntVar("x", [0, 1])
        y = IntVar("y", [0, 1])
        total = IntVar("total", range(0, 13))
        tables = [CostTable(0, {0: 0, 1: 10}), CostTable(0, {0: 5, 1: 20})]
        at_root(ElementSum([x, y], tables, total), store)
        # y = 1 would cost at least 0 + 20 > 12
        assert y.values() == (0,)

    def test_inconsistent_bounds_raise(self, store):
        x = IntVar("x", [1])
        total = IntVar("total", range(0, 6))
        with pytest.raises(InconsistencyError):
            at_root(ElementSum([x], [CostTable(0, {1: 50})], total), store)

    def test_is_satisfied(self):
        x = IntVar("x", [1])
        total = IntVar("total", [7])
        assert is_satisfied(ElementSum([x], [CostTable(0, {1: 7})], total))

    def test_requires_one_table_per_variable(self):
        with pytest.raises(ValueError):
            ElementSum([IntVar("x", [0])], [], IntVar("t", [0]))


class TestVectorPacking:
    def test_overload_detected(self, store):
        x = IntVar("x", [0])
        y = IntVar("y", [0])
        constraint = VectorPacking([x, y], [(1, 512), (1, 512)], [(1, 2048)])
        with pytest.raises(InconsistencyError):
            at_root(constraint, store)

    def test_prunes_nodes_without_room(self, store):
        placed = IntVar("placed", [0])
        free = IntVar("free", [0, 1])
        constraint = VectorPacking(
            [placed, free], [(1, 1024), (1, 1024)], [(1, 2048), (2, 2048)]
        )
        at_root(constraint, store)
        # node 0 has its only CPU taken by `placed`
        assert free.values() == (1,)

    def test_memory_dimension_pruned_too(self, store):
        placed = IntVar("placed", [0])
        big = IntVar("big", [0, 1])
        constraint = VectorPacking(
            [placed, big], [(0, 3000), (0, 2000)], [(2, 4096), (2, 4096)]
        )
        at_root(constraint, store)
        assert big.values() == (1,)

    def test_is_satisfied(self):
        x, y = IntVar("x", [0]), IntVar("y", [1])
        constraint = VectorPacking([x, y], [(1, 1024), (1, 1024)], [(1, 2048), (1, 2048)])
        assert is_satisfied(constraint)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VectorPacking([IntVar("x", [0])], [], [(1, 1)])


class TestAllDifferent:
    def test_assigned_value_removed_from_others(self, store):
        x = IntVar("x", [1])
        y = IntVar("y", [1, 2])
        at_root(AllDifferent([x, y]), store)
        assert y.values() == (2,)

    def test_conflict_detected(self, store):
        x, y = IntVar("x", [1]), IntVar("y", [1])
        with pytest.raises(InconsistencyError):
            at_root(AllDifferent([x, y]), store)

    def test_solver_integration(self):
        model = Model()
        variables = [model.int_var(f"v{i}", range(3)) for i in range(3)]
        model.add_constraint(AllDifferent(variables))
        result = Solver(model).solve()
        assert result.best is not None
        values = [result.best[f"v{i}"] for i in range(3)]
        assert sorted(values) == [0, 1, 2]


class TestNotEqual:
    def test_instantiated_side_is_pruned_from_the_other(self, store):
        a = IntVar("a", [1])
        b = IntVar("b", [1, 2])
        at_root(NotEqual(a, b), store)
        assert b.values() == (2,)

    def test_pruning_works_in_both_directions(self, store):
        a = IntVar("a", [1, 2])
        b = IntVar("b", [2])
        at_root(NotEqual(a, b), store)
        assert a.values() == (1,)

    def test_open_domains_are_left_alone(self, store):
        a = IntVar("a", [1, 2])
        b = IntVar("b", [1, 2])
        at_root(NotEqual(a, b), store)
        assert sorted(a.values()) == [1, 2]
        assert sorted(b.values()) == [1, 2]

    def test_equal_singletons_raise(self, store):
        with pytest.raises(InconsistencyError):
            at_root(NotEqual(IntVar("a", [1]), IntVar("b", [1])), store)

    def test_is_satisfied(self):
        assert is_satisfied(NotEqual(IntVar("a", [1]), IntVar("b", [2])))
        assert not is_satisfied(NotEqual(IntVar("a", [1]), IntVar("b", [1])))


class TestAllDifferentWithExceptions:
    def test_an_excepted_value_is_shared_freely(self, store):
        x = IntVar("x", [0])
        y = IntVar("y", [0, 1])
        at_root(AllDifferent([x, y], {0}), store)
        assert sorted(y.values()) == [0, 1]

    def test_other_values_are_pruned(self, store):
        x = IntVar("x", [1])
        y = IntVar("y", [0, 1])
        at_root(AllDifferent([x, y], {0}), store)
        assert y.values() == (0,)

    def test_a_clash_outside_the_exceptions_raises(self, store):
        x, y = IntVar("x", [1]), IntVar("y", [1])
        with pytest.raises(InconsistencyError):
            at_root(AllDifferent([x, y], {0}), store)

    def test_is_satisfied(self):
        shared = [IntVar("x", [0]), IntVar("y", [0]), IntVar("z", [1])]
        assert is_satisfied(AllDifferent(shared, {0}))
        assert not is_satisfied(AllDifferent(shared, set()))


class TestCountInValuesAtMost:
    def test_rejects_a_negative_maximum(self):
        with pytest.raises(ValueError):
            CountInValuesAtMost([IntVar("x", [0])], {0}, -1)

    def test_saturation_prunes_the_watched_values_from_the_others(self, store):
        x = IntVar("x", [0])
        y = IntVar("y", [0, 2])
        z = IntVar("z", [1, 2])
        at_root(CountInValuesAtMost([x, y, z], {0, 1}, 1), store)
        assert y.values() == (2,)
        assert z.values() == (2,)

    def test_below_the_cap_nothing_is_pruned(self, store):
        x = IntVar("x", [0])
        y = IntVar("y", [0, 2])
        at_root(CountInValuesAtMost([x, y], {0, 1}, 2), store)
        assert sorted(y.values()) == [0, 2]
        assert store.undos == []

    def test_too_many_committed_variables_raise(self, store):
        x, y = IntVar("x", [0]), IntVar("y", [1])
        with pytest.raises(InconsistencyError):
            at_root(CountInValuesAtMost([x, y], {0, 1}, 1), store)

    def test_a_zero_maximum_empties_the_watched_set(self, store):
        x = IntVar("x", [0, 2])
        y = IntVar("y", [1, 2])
        at_root(CountInValuesAtMost([x, y], {0, 1}, 0), store)
        assert x.values() == (2,)
        assert y.values() == (2,)

    def test_entailment_skips_propagation_until_undone(self, store):
        x = IntVar("x", [0])
        y = IntVar("y", [0, 2])
        constraint = at_root(CountInValuesAtMost([x, y], {0, 1}, 1), store)
        assert len(store.undos) == 1
        # Entailed: a second call returns before scanning anything.
        propagate(constraint, store)
        assert len(store.undos) == 1
        # Backtracking past the saturation point re-arms it.
        store.undos[0]()
        propagate(constraint, store)
        assert len(store.undos) == 2

    def test_register_re_arms_an_entailed_constraint(self, store):
        x = IntVar("x", [0])
        y = IntVar("y", [0, 2])
        constraint = at_root(CountInValuesAtMost([x, y], {0, 1}, 1), store)
        constraint.register(store)
        propagate(constraint, store)
        assert len(store.undos) == 2

    def test_is_satisfied(self):
        variables = [IntVar("x", [0]), IntVar("y", [1]), IntVar("z", [2])]
        assert is_satisfied(CountInValuesAtMost(variables, {0, 1}, 2))
        assert not is_satisfied(CountInValuesAtMost(variables, {0, 1}, 1))
