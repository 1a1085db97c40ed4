"""Sparse cost tables prune exactly like the dense tables they replaced.

:class:`repro.cp.ElementSum` stores a variable's costs as a default plus
exceptions (:class:`repro.cp.CostTable`), derives its bounds from the
exceptions and guards its pruning sweep with an O(1) test.
``DenseElementSum`` below is the propagator as it was before — one dict entry
per value, bounds by scanning the domain, a sweep on every run behind a
trailed pointer into the values sorted by cost — kept here as the oracle.
Two searches that differ only in which of the two they post must see the same
domains after every propagation, under both the shipped solver and the
retained naive-fixpoint reference (``reference_propagation.py``, which runs
``DenseElementSum.propagate`` as its from-scratch body).
"""

from __future__ import annotations

from typing import Collection, Mapping, Sequence

from hypothesis import given, settings, strategies as st
from reference_propagation import SOLVERS

from repro.cp import (
    Constraint,
    CostTable,
    ElementSum,
    IntVar,
    Model,
    VectorPacking,
    static_order,
)
from repro.model.errors import InconsistencyError


class DenseElementSum(Constraint):
    """``total = sum_i tables[i][vars[i]]`` over dense ``{value: cost}``
    tables — the pre-sparse implementation, verbatim."""

    priority = 1
    idempotent = False

    def __init__(
        self,
        variables: Sequence[IntVar],
        tables: Sequence[Mapping[int, int]],
        total: IntVar,
    ):
        self._vars = list(variables)
        self._tables = [dict(t) for t in tables]
        self._total = total
        self._empty = not self._vars
        self._index_of: dict[int, int] = {}
        self._lo: list[int] = []
        self._hi: list[int] = []
        self._lower = 0
        self._upper = 0
        self._desc: list[list[tuple[int, int]]] = [
            sorted(((c, v) for v, c in table.items()), reverse=True)
            for table in self._tables
        ]
        self._ptr: list[int] = []

    def variables(self) -> Sequence[IntVar]:
        return [*self._vars, self._total]

    def _cost_bounds(self, index: int) -> tuple[int, int]:
        table = self._tables[index]
        costs = [table[v] for v in self._vars[index].raw_values()]
        return min(costs), max(costs)

    def propagate(self, store) -> None:
        if self._empty:
            if 0 not in self._total:
                raise InconsistencyError(
                    "ElementSum: empty variable list forces total = 0"
                )
            store.remove_below(self._total, 0)
            store.remove_above(self._total, 0)
            return
        bounds = [self._cost_bounds(i) for i in range(len(self._vars))]
        lower = sum(b[0] for b in bounds)
        upper = sum(b[1] for b in bounds)
        if lower > self._total.max or upper < self._total.min:
            raise InconsistencyError("ElementSum: cost bounds incompatible with total")
        store.remove_below(self._total, lower)
        store.remove_above(self._total, upper)
        total_max = self._total.max
        for i, var in enumerate(self._vars):
            others_min = lower - bounds[i][0]
            budget = total_max - others_min
            table = self._tables[i]
            too_expensive = [v for v in var.raw_values() if table[v] > budget]
            if too_expensive:
                store.remove_many(var, too_expensive)

    def register(self, store) -> None:
        self._index_of = {var.index: i for i, var in enumerate(self._vars)}
        bounds = [self._cost_bounds(i) for i in range(len(self._vars))]
        self._lo = [b[0] for b in bounds]
        self._hi = [b[1] for b in bounds]
        self._lower = sum(self._lo)
        self._upper = sum(self._hi)
        self._ptr = [0] * len(self._vars)

    def _restore_bounds(self, i: int, lo: int, hi: int, d_lo: int, d_hi: int):
        def undo() -> None:
            self._lo[i] = lo
            self._hi[i] = hi
            self._lower -= d_lo
            self._upper -= d_hi
        return undo

    def _restore_ptr(self, i: int, old: int):
        def undo() -> None:
            self._ptr[i] = old
        return undo

    def propagate_events(self, store, dirty: Collection[int]) -> None:
        if self._empty:
            self.propagate(store)
            return
        for model_index in dirty:
            i = self._index_of.get(model_index)
            if i is None:
                continue
            lo, hi = self._cost_bounds(i)
            old_lo, old_hi = self._lo[i], self._hi[i]
            if lo != old_lo or hi != old_hi:
                d_lo, d_hi = lo - old_lo, hi - old_hi
                self._lo[i] = lo
                self._hi[i] = hi
                self._lower += d_lo
                self._upper += d_hi
                store.record_undo(self._restore_bounds(i, old_lo, old_hi, d_lo, d_hi))
        total = self._total
        if self._lower > total.max or self._upper < total.min:
            raise InconsistencyError("ElementSum: cost bounds incompatible with total")
        store.remove_below(total, self._lower)
        store.remove_above(total, self._upper)
        budget_base = total.max - self._lower
        lo = self._lo
        desc = self._desc
        ptr = self._ptr
        for i, var in enumerate(self._vars):
            budget = budget_base + lo[i]
            costs = desc[i]
            at = ptr[i]
            if at >= len(costs) or costs[at][0] <= budget:
                continue
            old = at
            too_expensive = []
            while at < len(costs) and costs[at][0] > budget:
                too_expensive.append(costs[at][1])
                at += 1
            ptr[i] = at
            store.record_undo(self._restore_ptr(i, old))
            store.remove_many(var, too_expensive)

    def is_satisfied(self) -> bool:
        return (
            sum(self._tables[i][v.value] for i, v in enumerate(self._vars))
            == self._total.value
        )


NODES = 5


@st.composite
def priced_packings(draw):
    """A packing model priced the way Table 1 prices a placement: per
    variable one cost on most nodes and zero, one or two nodes that cost
    something else (one-, two- and three-class tables), some variables
    pinned to a single node, possibly no variable at all."""
    count = draw(st.integers(min_value=0, max_value=5))
    domains, tables = [], []
    for _ in range(count):
        if draw(st.integers(0, 3)) == 0:
            domain = [draw(st.integers(0, NODES - 1))]  # pinned
        else:
            domain = sorted(
                draw(st.sets(st.integers(0, NODES - 1), min_size=1, max_size=NODES))
            )
        domains.append(domain)
        tables.append(
            CostTable(
                draw(st.sampled_from((0, 4, 8))),
                draw(
                    st.dictionaries(
                        st.integers(0, NODES - 1),
                        st.sampled_from((0, 2, 4, 8)),
                        max_size=2,
                    )
                ),
            )
        )
    return {
        "domains": domains,
        "tables": tables,
        "demands": [draw(st.integers(0, 2)) for _ in range(count)],
        "capacities": [draw(st.integers(0, 3)) for _ in range(NODES)],
        # an objective cap below the tables' maximum makes the root prune
        "cap": draw(st.integers(0, 8 * max(count, 1))),
        "initial_bound": draw(st.one_of(st.none(), st.integers(0, 24))),
    }


def _walk(instance, dense: bool, engine: str):
    """Solve, logging the domains every branching decision saw."""
    model = Model()
    xs = [
        model.int_var(f"x{i}", domain)
        for i, domain in enumerate(instance["domains"])
    ]
    total = model.interval_var("total", 0, instance["cap"])
    model.add_constraint(
        VectorPacking(
            xs,
            [(demand, 0) for demand in instance["demands"]],
            [(capacity, 0) for capacity in instance["capacities"]],
        )
    )
    if dense:
        tables = [
            {node: table.cost(node) for node in range(NODES)}
            for table in instance["tables"]
        ]
        model.add_constraint(DenseElementSum(xs, tables, total))
    else:
        model.add_constraint(ElementSum(xs, instance["tables"], total))
    log = []

    def values(var):
        log.append(([x.values() for x in xs], total.min, total.max))
        return var.values()

    result = SOLVERS[engine](
        model,
        variable_selector=static_order(xs),
        value_selector=values,
    ).solve(
        minimize=total, initial_bound=instance["initial_bound"], collect_all=True
    )
    stats = result.statistics
    return (
        log,
        (stats.nodes, stats.backtracks, stats.solutions, stats.propagations, stats.events),
        [solution.values for solution in result.all_solutions],
    )


@settings(max_examples=150, deadline=None)
@given(priced_packings())
def test_sparse_tables_prune_like_dense_tables(instance):
    for engine in SOLVERS:
        assert _walk(instance, dense=False, engine=engine) == _walk(
            instance, dense=True, engine=engine
        )
