"""The first-generation propagation engine, kept as the solver's oracle.

Until PR 2 the solver re-ran *every* constraint from scratch after *every*
decision, until a pass changed no domain.  The shipped solver
(:mod:`repro.cp.solver`) wakes only the constraints watching a changed
variable, and its packing and cost-sum propagators update trailed counters
by deltas.  This module keeps the old behaviour without a hook in the
solver: :class:`Fixpoint` is one constraint that wraps every constraint of a
model and watches every variable, so any domain event wakes it, and it then
runs each wrapped constraint's from-scratch propagator, in priority order,
until a pass records no event.  :func:`reference_solver` is a shipped
:class:`~repro.cp.Solver` over a model that holds the same variables and that
one wrapper, so both searches branch the same way and differ only in how
they propagate.

The from-scratch propagators are the naive bodies ``ElementSum`` and
``VectorPacking`` shipped until the event engine was the only one left
(:func:`element_sum_from_scratch`, :func:`vector_packing_from_scratch`), a
test constraint's own ``propagate`` where it keeps one, and otherwise the
constraint's ``propagate_events`` with every variable dirty (the three
catalog propagators keep no counters, so that *is* their from-scratch body).
:func:`is_satisfied` checks a constraint on instantiated variables, the way
each class did before.  ``test_propagation_equivalence.py``,
``test_catalog_propagators.py`` and ``test_sparse_cost_tables.py`` drive both
solvers on the same models; optimizer-level tests patch
:func:`reference_solver` in for the optimizer's ``Solver`` with
:func:`propagation`.  It lives with the tests because nothing in the shipped
package may use it.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Collection, ContextManager, Sequence
from unittest import mock

from repro.core import optimizer
from repro.cp import (
    AllDifferent,
    Constraint,
    CountInValuesAtMost,
    ElementSum,
    IntVar,
    Model,
    NotEqual,
    Solver,
    VectorPacking,
)
from repro.model.errors import InconsistencyError


def element_sum_from_scratch(constraint: ElementSum, store) -> None:
    """``ElementSum.propagate`` as it shipped: the total between the sums
    of the per-variable cost bounds, then the values that cost more than
    the slack allows pruned, every time from nothing."""
    total = constraint._total
    variables = constraint._vars
    if not variables:
        if 0 not in total:
            raise InconsistencyError("ElementSum: empty variable list forces total = 0")
        store.remove_below(total, 0)
        store.remove_above(total, 0)
        return
    bounds = [constraint._cost_bounds(i) for i in range(len(variables))]
    lower = sum(b[0] for b in bounds)
    upper = sum(b[1] for b in bounds)
    if lower > total.max or upper < total.min:
        raise InconsistencyError("ElementSum: cost bounds incompatible with total")
    store.remove_below(total, lower)
    store.remove_above(total, upper)

    # Prune assignment values that would exceed the total upper bound.
    slack = total.max - lower
    for i, (lo, hi) in enumerate(bounds):
        if hi - lo > slack:
            constraint._prune(store, i, slack + lo)


def vector_packing_from_scratch(constraint: VectorPacking, store) -> None:
    """``VectorPacking.propagate`` as it shipped: the committed load of
    every node summed from the instantiated items, then every node that
    has no room left for a pending item removed from its domain."""
    variables = constraint._vars
    demands = constraint._demands
    capacities = constraint._capacities
    if not variables:
        # Degenerate compilation output (no item to pack): trivially
        # satisfied, nothing to filter.
        return
    node_count = len(capacities)
    committed_cpu = [0] * node_count
    committed_mem = [0] * node_count
    pending: list[int] = []

    for index, var in enumerate(variables):
        if var.is_instantiated:
            node = var.value
            if not 0 <= node < node_count:
                raise InconsistencyError(
                    f"assignment {var.name} targets unknown node {node}"
                )
            committed_cpu[node] += demands[index][0]
            committed_mem[node] += demands[index][1]
        else:
            pending.append(index)

    free_cpu = [0] * node_count
    free_mem = [0] * node_count
    for node in range(node_count):
        cpu_cap, mem_cap = capacities[node]
        if committed_cpu[node] > cpu_cap or committed_mem[node] > mem_cap:
            raise InconsistencyError(
                f"node {node} overloaded: committed "
                f"({committed_cpu[node]}, {committed_mem[node]}) > "
                f"capacity {(cpu_cap, mem_cap)}"
            )
        free_cpu[node] = cpu_cap - committed_cpu[node]
        free_mem[node] = mem_cap - committed_mem[node]

    for index in pending:
        cpu, mem = demands[index]
        var = variables[index]
        to_remove = [
            node
            for node in var.raw_values()
            if cpu > free_cpu[node] or mem > free_mem[node]
        ]
        if to_remove:
            store.remove_many(var, to_remove)


_NAIVE = {
    ElementSum: element_sum_from_scratch,
    VectorPacking: vector_packing_from_scratch,
}


def from_scratch(constraint: Constraint) -> Callable[[object], None]:
    """The propagator the first-generation engine ran for ``constraint``."""
    naive = _NAIVE.get(type(constraint))
    if naive is not None:
        return lambda store: naive(constraint, store)
    own = getattr(constraint, "propagate", None)
    if own is not None:
        return own
    every = frozenset(var.index for var in constraint.variables())
    return lambda store: constraint.propagate_events(store, every)


class Fixpoint(Constraint):
    """Every constraint of a model behind one propagator that watches every
    variable: woken by any event, it runs each constraint's
    :func:`from_scratch` propagator in priority order until a pass records
    no domain event."""

    # It runs until nothing changes, so its own prunings never requeue it.
    idempotent = True

    def __init__(
        self, constraints: Sequence[Constraint], variables: Sequence[IntVar]
    ) -> None:
        self._constraints = sorted(constraints, key=lambda c: c.priority)
        self._propagators = [from_scratch(c) for c in self._constraints]
        self._vars = list(variables)

    def variables(self) -> Sequence[IntVar]:
        return self._vars

    def register(self, store) -> None:
        for constraint in self._constraints:
            constraint.register(store)

    def propagate_events(self, store, dirty: Collection[int]) -> None:
        while True:
            before = store.events
            for propagate in self._propagators:
                propagate(store)
            if store.events == before:
                return


def reference_solver(model: Model, **kwargs) -> Solver:
    """A shipped :class:`~repro.cp.Solver`, with ``kwargs``, over a model
    that holds ``model``'s variables (at the same indices) and one
    :class:`Fixpoint` over its constraints."""
    wrapped = Model()
    for var in model.variables:
        wrapped.add_variable(var)
    wrapped.add_constraint(Fixpoint(model.constraints, model.variables))
    return Solver(wrapped, **kwargs)


#: The two propagation paths the suites compare, by the names the solver
#: once gave its engines.
SOLVERS = {"event": Solver, "fixpoint": reference_solver}


def propagation(engine: str) -> ContextManager:
    """A context in which :class:`~repro.core.optimizer.ContextSwitchOptimizer`
    searches with the solver :data:`SOLVERS` names ``engine``."""
    if engine == "event":
        return contextlib.nullcontext()
    return mock.patch.object(optimizer, "Solver", SOLVERS[engine])


def _element_sum_holds(constraint: ElementSum) -> bool:
    return (
        sum(
            table.cost(var.value)
            for table, var in zip(constraint._tables, constraint._vars)
        )
        == constraint._total.value
    )


def _vector_packing_holds(constraint: VectorPacking) -> bool:
    loads = [[0, 0] for _ in constraint._capacities]
    for (cpu, mem), var in zip(constraint._demands, constraint._vars):
        loads[var.value][0] += cpu
        loads[var.value][1] += mem
    return all(
        load[0] <= capacity[0] and load[1] <= capacity[1]
        for load, capacity in zip(loads, constraint._capacities)
    )


def _count_in_values_holds(constraint: CountInValuesAtMost) -> bool:
    watched = constraint._watched
    return sum(1 for var in constraint._vars if var.value in watched) <= constraint._max


def _all_different_holds(constraint: AllDifferent) -> bool:
    seen: set[int] = set()
    for var in constraint._vars:
        value = var.value
        if value in constraint._exceptions:
            continue
        if value in seen:
            return False
        seen.add(value)
    return True


_CHECKS = {
    ElementSum: _element_sum_holds,
    VectorPacking: _vector_packing_holds,
    NotEqual: lambda constraint: constraint._a.value != constraint._b.value,
    CountInValuesAtMost: _count_in_values_holds,
    AllDifferent: _all_different_holds,
}


def is_satisfied(constraint: Constraint) -> bool:
    """Check ``constraint`` on fully instantiated variables."""
    return _CHECKS[type(constraint)](constraint)
