"""Depth-first search with event-driven propagation and branch-and-bound.

This is the Choco replacement used by :mod:`repro.core.optimizer`.  The search
follows the strategy described in Section 4.3 of the paper:

* event-driven constraint propagation: every constraint registers on the
  variables it watches, and a domain change pushes only the affected
  constraints onto a priority-bucketed propagation queue (idempotent
  constraints are not requeued for their own prunings).  Incremental
  propagators (packing loads, cost sums) update trailed counters by deltas
  instead of recomputing from scratch, so a failed assignment costs O(1)
  instead of a full sweep of the model;
* a *first-fail* flavoured variable ordering — variables with the largest
  requirements (or smallest domains) are instantiated first — optionally
  wrapped in :class:`ActivityLastConflict`, which branches on the variable of
  the most recent conflict first and falls back to activity-weighted
  first-fail;
* value ordering that favours a variable's preferred value (its current host)
  to reduce the number of VM movements;
* branch-and-bound on a single objective variable: every time a solution is
  found, the search continues looking for strictly cheaper ones until the
  optimum is proved or a timeout expires.

The previous solver generation re-propagated *every* constraint to a fixpoint
after *every* decision; that behaviour is retained as the ``"fixpoint"``
reference engine so equivalence can be property-tested
(``tests/properties/test_propagation_equivalence.py``).
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from ..model.errors import InconsistencyError, SolverError
from ..obs import NULL_SPAN, Span
from ..obs import span as obs_span
from .constraints import Constraint
from .variables import IntVar, make_interval_var, make_pinned_var

VariableSelector = Callable[[Sequence[IntVar]], Optional[IntVar]]
ValueSelector = Callable[[IntVar], Sequence[int]]

#: Known propagation engines: ``"event"`` wakes only the constraints watching
#: a changed variable; ``"fixpoint"`` re-propagates every constraint after
#: every decision (the pre-event-engine reference behaviour).
ENGINES = ("event", "fixpoint")

#: Number of priority buckets in the propagation queue.
_PRIORITY_LEVELS = 4


# --------------------------------------------------------------------------- #
# Heuristics                                                                   #
# --------------------------------------------------------------------------- #

def first_fail(variables: Sequence[IntVar]) -> Optional[IntVar]:
    """Pick the uninstantiated variable with the smallest domain."""
    candidates = [v for v in variables if not v.is_instantiated]
    if not candidates:
        return None
    return min(candidates, key=lambda v: v.size)


def static_order(order: Sequence[IntVar]) -> VariableSelector:
    """Instantiate variables following a fixed order (e.g. biggest VMs
    first, the first-fail approach of [23] used by the paper)."""
    fixed = list(order)

    def select(variables: Sequence[IntVar]) -> Optional[IntVar]:
        for var in fixed:
            if not var.is_instantiated:
                return var
        for var in variables:
            if not var.is_instantiated:
                return var
        return None

    return select


class ActivityLastConflict:
    """Last-conflict-first variable selection with an activity fallback.

    Wraps a ``primary`` selector (typically the paper's static biggest-first
    order).  When the most recent conflict's variable is still free it is
    branched on first — chronological backtracking then stays close to the
    source of the failure instead of thrashing through unrelated variables.
    Without a primary selector, the fallback picks the free variable with the
    highest failure activity per remaining value (a weighted first-fail).

    The solver reports failures through :meth:`on_failure`; plain callables
    without that method keep working unchanged.
    """

    def __init__(self, primary: Optional[VariableSelector] = None):
        self._primary = primary
        self._last_conflict: Optional[IntVar] = None

    def __call__(self, variables: Sequence[IntVar]) -> Optional[IntVar]:
        last = self._last_conflict
        if last is not None and not last.is_instantiated:
            return last
        if self._primary is not None:
            return self._primary(variables)
        candidates = [v for v in variables if not v.is_instantiated]
        if not candidates:
            return None
        return max(candidates, key=lambda v: (v.activity / v.size, -v.size, -v.index))

    def on_failure(self, var: IntVar) -> None:
        self._last_conflict = var

    def reset(self) -> None:
        self._last_conflict = None


def ascending_values(var: IntVar) -> Sequence[int]:
    return var.values()


def prefer_value(preferences: dict[str, int]) -> ValueSelector:
    """Try a variable's preferred value first (its current host node)."""

    def select(var: IntVar) -> Sequence[int]:
        values = list(var.values())
        preferred = preferences.get(var.name)
        if preferred is not None and preferred in var:
            values.remove(preferred)
            values.insert(0, preferred)
        return values

    return select


# --------------------------------------------------------------------------- #
# Model                                                                        #
# --------------------------------------------------------------------------- #

class Model:
    """A bag of variables and constraints."""

    def __init__(self) -> None:
        self._variables: list[IntVar] = []
        self._constraints: list[Constraint] = []
        self._names: set[str] = set()

    def add_variable(self, var: IntVar) -> IntVar:
        if var.name in self._names:
            raise SolverError(f"variable {var.name!r} already declared")
        var.index = len(self._variables)
        self._variables.append(var)
        self._names.add(var.name)
        return var

    def int_var(self, name: str, values: Iterable[int]) -> IntVar:
        return self.add_variable(IntVar(name, values))

    def interval_var(self, name: str, lower: int, upper: int) -> IntVar:
        """A variable over a contiguous ``[lower, upper]`` domain with O(1)
        bound tightening — use for wide objective domains."""
        return self.add_variable(make_interval_var(name, lower, upper))

    def pinned_var(self, name: str, value: int) -> IntVar:
        """A frozen variable instantiated at ``value`` (unary domain).

        The repair engine declares one per clean VM: global constraints see
        the full placement while the search only branches over the dirty
        region."""
        return self.add_variable(make_pinned_var(name, value))

    def add_constraint(self, constraint: Constraint) -> Constraint:
        self._constraints.append(constraint)
        return constraint

    @property
    def variables(self) -> Sequence[IntVar]:
        return tuple(self._variables)

    @property
    def constraints(self) -> Sequence[Constraint]:
        return tuple(self._constraints)


# --------------------------------------------------------------------------- #
# Solutions & statistics                                                       #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Solution:
    """A snapshot of instantiated variables."""

    values: dict[str, int]
    objective: Optional[int] = None

    def __getitem__(self, name: str) -> int:
        return self.values[name]


@dataclass
class SearchStatistics:
    """Search effort counters, reported by :meth:`Solver.solve`."""

    nodes: int = 0
    backtracks: int = 0
    solutions: int = 0
    propagations: int = 0
    events: int = 0
    proven_optimal: bool = False
    timed_out: bool = False
    limit_reached: bool = False
    elapsed: float = 0.0


@dataclass
class SearchResult:
    """Outcome of a search."""

    best: Optional[Solution]
    all_solutions: list[Solution] = field(default_factory=list)
    statistics: SearchStatistics = field(default_factory=SearchStatistics)

    @property
    def has_solution(self) -> bool:
        return self.best is not None


# --------------------------------------------------------------------------- #
# Store: trail-recorded domain mutations + propagation queue                   #
# --------------------------------------------------------------------------- #

class _Store:
    """Applies domain reductions, records them on a trail, and schedules the
    constraints watching the touched variables.

    The trail holds two kinds of entries: ``(domain, mark_token)`` pairs — at
    most one per domain per level, thanks to era stamps — undone by the O(1)
    :meth:`~repro.cp.domain.Domain.restore_to`, and ``(callable, None)`` undo
    closures registered by incremental propagators to roll their counters
    back.  The propagation queue is bucketed by constraint priority; a
    constraint currently propagating is not requeued for its own events when
    it declares itself idempotent.
    """

    #: Global era counter: eras never repeat across stores, so stale stamps on
    #: domains reused by a later search can never collide.
    _ERAS = itertools.count(1)

    __slots__ = (
        "_trail", "_levels", "_watchers", "_era", "_event_mode",
        "_buckets", "_queued", "_dirty", "_active", "events",
    )

    def __init__(self, watchers: dict[int, list[Constraint]], event_mode: bool = True):
        self._trail: list[tuple] = []
        self._levels: list[int] = []
        self._watchers = watchers
        self._era = next(_Store._ERAS)
        #: False for the fixpoint reference engine: watchers are still woken
        #: (the pre-event-engine behaviour) but no dirty-set bookkeeping is
        #: done, so the reference timings carry no event-engine overhead.
        self._event_mode = event_mode
        self._buckets = tuple(deque() for _ in range(_PRIORITY_LEVELS))
        self._queued: set[int] = set()
        self._dirty: dict[int, set[int]] = {}
        self._active: Optional[Constraint] = None
        self.events = 0

    # -- trail management ----------------------------------------------------

    def push_level(self) -> None:
        self._levels.append(len(self._trail))
        self._era = next(_Store._ERAS)

    def pop_level(self) -> None:
        mark = self._levels.pop()
        trail = self._trail
        while len(trail) > mark:
            target, token = trail.pop()
            if token is None:
                target()
            else:
                target.restore_to(token)
        self._era = next(_Store._ERAS)

    def record_undo(self, undo: Callable[[], None]) -> None:
        """Register a closure run when the current level is popped."""
        self._trail.append((undo, None))

    def _save(self, domain) -> None:
        if domain.trail_stamp != self._era:
            self._trail.append((domain, domain.mark()))
            domain.trail_stamp = self._era

    # -- propagation queue ---------------------------------------------------

    def schedule(self, constraint: Constraint) -> None:
        key = id(constraint)
        if key not in self._queued:
            self._queued.add(key)
            self._buckets[constraint.priority].append(constraint)

    def mark_dirty(self, constraint: Constraint, indices: Iterable[int]) -> None:
        dirty = self._dirty.setdefault(id(constraint), set())
        dirty.update(indices)

    def _changed(self, var: IntVar) -> None:
        self.events += 1
        index = var.index
        if not self._event_mode:
            for constraint in self._watchers.get(index, ()):
                self.schedule(constraint)
            return
        active = self._active
        for constraint in self._watchers.get(index, ()):
            if constraint is active and constraint.idempotent:
                continue
            key = id(constraint)
            dirty = self._dirty.get(key)
            if dirty is None:
                dirty = self._dirty[key] = set()
            dirty.add(index)
            if key not in self._queued:
                self._queued.add(key)
                self._buckets[constraint.priority].append(constraint)

    def pop_constraint(self) -> Optional[Constraint]:
        for bucket in self._buckets:
            if bucket:
                constraint = bucket.popleft()
                self._queued.discard(id(constraint))
                return constraint
        return None

    def take_dirty(self, constraint: Constraint) -> frozenset[int]:
        return self._dirty.pop(id(constraint), frozenset())

    def clear_queue(self) -> None:
        for bucket in self._buckets:
            bucket.clear()
        self._queued.clear()
        self._dirty.clear()
        self._active = None

    # -- mutations -----------------------------------------------------------

    def remove(self, var: IntVar, value: int) -> None:
        domain = var.domain
        self._save(domain)
        if domain.remove(value):
            self._changed(var)

    def remove_many(self, var: IntVar, values: Iterable[int]) -> None:
        domain = var.domain
        self._save(domain)
        if domain.remove_many(values):
            self._changed(var)

    def remove_above(self, var: IntVar, bound: int) -> None:
        domain = var.domain
        self._save(domain)
        if domain.remove_above(bound):
            self._changed(var)

    def remove_below(self, var: IntVar, bound: int) -> None:
        domain = var.domain
        self._save(domain)
        if domain.remove_below(bound):
            self._changed(var)

    def assign(self, var: IntVar, value: int) -> None:
        domain = var.domain
        self._save(domain)
        if domain.assign(value):
            self._changed(var)


# --------------------------------------------------------------------------- #
# Solver                                                                       #
# --------------------------------------------------------------------------- #

class Solver:
    """Backtracking search over a :class:`Model`.

    Parameters
    ----------
    model:
        The variables and constraints to search over.
    variable_selector / value_selector:
        Branching heuristics; the defaults are first-fail over ascending
        values, the optimizer wraps them in the paper's biggest-first order
        plus :class:`ActivityLastConflict`.
    engine:
        Propagation engine — ``"event"`` (default) wakes only the
        constraints watching a changed variable through the
        priority-bucketed queue; ``"fixpoint"`` re-propagates every
        constraint after every decision (the first-generation reference
        behaviour, retained so equivalence can be property-tested).  Both
        engines walk identical search trees.

    Effort is bounded per :meth:`solve` call via ``timeout`` (wall-clock)
    and ``node_limit`` (deterministic search-tree cap) — see
    :meth:`solve` for every knob.
    """

    def __init__(
        self,
        model: Model,
        variable_selector: VariableSelector = first_fail,
        value_selector: ValueSelector = ascending_values,
        engine: str = "event",
    ) -> None:
        if engine not in ENGINES:
            raise SolverError(
                f"unknown propagation engine {engine!r}; expected one of {ENGINES}"
            )
        self._model = model
        self._variable_selector = variable_selector
        self._value_selector = value_selector
        self._engine = engine
        watchers: dict[int, list[Constraint]] = {}
        for constraint in model.constraints:
            for var in constraint.variables():
                watchers.setdefault(var.index, []).append(constraint)
        self._watchers = watchers

    @property
    def engine(self) -> str:
        return self._engine

    # -- public API ----------------------------------------------------------

    def solve(
        self,
        minimize: Optional[IntVar] = None,
        timeout: Optional[float] = None,
        solution_limit: Optional[int] = None,
        collect_all: bool = False,
        first_solution_only: bool = False,
        initial_bound: Optional[int] = None,
        node_limit: Optional[int] = None,
    ) -> SearchResult:
        """Run the search.

        Parameters
        ----------
        minimize:
            Objective variable to minimize with branch-and-bound.  ``None``
            turns the search into plain satisfaction.
        timeout:
            Wall-clock budget in seconds; the best solution found so far is
            returned when it expires (the paper uses 40 s in Section 5.1).
        solution_limit:
            Stop after this many solutions (satisfaction mode only).
        collect_all:
            Keep every improving/accepted solution in ``all_solutions``.
        first_solution_only:
            Stop at the first solution even when minimizing — this reproduces
            the behaviour of the FFD baseline ("stops after the first completed
            viable configuration").
        initial_bound:
            Objective value of a solution already known outside the search
            (e.g. a greedy repair of the current placement); only strictly
            better solutions are accepted, so an empty result means the
            incumbent was not improved within the budget.
        node_limit:
            Maximum number of search-tree nodes to expand; like the timeout,
            reaching it returns the best solution so far without an optimality
            proof.  Handy for deterministic effort caps in tests.
        """
        # The span wraps the whole search so a trace shows the true solve
        # duration; the search counters land on it as span counters and the
        # improving-objective timeline as timestamped span events.  With no
        # active tracer the span is the shared no-op and costs one
        # contextvar read.
        with obs_span("cp.solve", engine=self._engine) as trace_span:
            result = self._solve_impl(
                minimize=minimize,
                timeout=timeout,
                solution_limit=solution_limit,
                collect_all=collect_all,
                first_solution_only=first_solution_only,
                initial_bound=initial_bound,
                node_limit=node_limit,
                trace_span=trace_span,
            )
            stats = result.statistics
            trace_span.inc("nodes", stats.nodes)
            trace_span.inc("backtracks", stats.backtracks)
            trace_span.inc("propagations", stats.propagations)
            trace_span.inc("solutions", stats.solutions)
            trace_span.set(
                proven_optimal=stats.proven_optimal,
                timed_out=stats.timed_out,
            )
        return result

    def _solve_impl(
        self,
        minimize: Optional[IntVar] = None,
        timeout: Optional[float] = None,
        solution_limit: Optional[int] = None,
        collect_all: bool = False,
        first_solution_only: bool = False,
        initial_bound: Optional[int] = None,
        node_limit: Optional[int] = None,
        trace_span: Span = NULL_SPAN,
    ) -> SearchResult:
        event = self._engine == "event"
        store = _Store(self._watchers, event_mode=event)
        stats = SearchStatistics()
        result = SearchResult(best=None, statistics=stats)
        deadline = None if timeout is None else time.monotonic() + timeout
        start = time.monotonic()
        best_cost: Optional[int] = initial_bound if minimize is not None else None
        selector = self._variable_selector
        notify_failure = getattr(selector, "on_failure", None)
        reset_selector = getattr(selector, "reset", None)
        if reset_selector is not None:
            reset_selector()

        def out_of_time() -> bool:
            return deadline is not None and time.monotonic() > deadline

        def snapshot() -> Solution:
            values = {
                var.name: var.value
                for var in self._model.variables
                if var.is_instantiated
            }
            objective = minimize.value if minimize is not None else None
            return Solution(values=values, objective=objective)

        def propagate() -> bool:
            """Drain the propagation queue; False on inconsistency.

            In event mode only the constraints woken by domain events run, and
            they receive the indices of their changed variables; in fixpoint
            mode every constraint is rescheduled and re-propagated from
            scratch (the pre-event-engine reference behaviour).
            """
            try:
                if minimize is not None and best_cost is not None:
                    store.remove_above(minimize, best_cost - 1)
                if not event:
                    for constraint in self._model.constraints:
                        store.schedule(constraint)
                while True:
                    constraint = store.pop_constraint()
                    if constraint is None:
                        return True
                    stats.propagations += 1
                    dirty = store.take_dirty(constraint)
                    if event:
                        store._active = constraint
                        try:
                            constraint.propagate_events(store, dirty)
                        finally:
                            store._active = None
                    else:
                        constraint.propagate(store)
            except InconsistencyError:
                store.clear_queue()
                return False

        def all_instantiated() -> bool:
            return all(var.is_instantiated for var in self._model.variables)

        def record_failure(var: IntVar) -> None:
            stats.backtracks += 1
            var.activity += 1.0
            if notify_failure is not None:
                notify_failure(var)

        def search() -> bool:
            """Return True when the search must stop entirely."""
            nonlocal best_cost
            if node_limit is not None and stats.nodes >= node_limit:
                stats.limit_reached = True
                return True
            stats.nodes += 1
            if out_of_time():
                stats.timed_out = True
                return True

            if all_instantiated():
                stats.solutions += 1
                solution = snapshot()
                if collect_all:
                    result.all_solutions.append(solution)
                if minimize is not None:
                    if best_cost is None or solution.objective < best_cost:
                        best_cost = solution.objective
                        result.best = solution
                        trace_span.event(
                            "improving_solution",
                            objective=solution.objective,
                        )
                    if first_solution_only:
                        return True
                    # keep searching for a strictly better solution
                    return False
                result.best = result.best or solution
                if first_solution_only:
                    return True
                if solution_limit is not None and stats.solutions >= solution_limit:
                    return True
                return False

            var = selector(self._model.variables)
            if var is None:
                # all decision variables instantiated but some auxiliary ones
                # are not: propagation should have fixed them, treat as failure
                return False

            for value in self._value_selector(var):
                if value not in var:
                    continue
                store.push_level()
                try:
                    store.assign(var, value)
                except InconsistencyError:
                    store.clear_queue()
                    store.pop_level()
                    record_failure(var)
                    continue
                if propagate():
                    if search():
                        store.pop_level()
                        return True
                    stats.backtracks += 1
                else:
                    record_failure(var)
                store.pop_level()
                if out_of_time():
                    stats.timed_out = True
                    return True
            return False

        store.push_level()
        try:
            if event:
                for constraint in self._model.constraints:
                    constraint.register(store)
                    store.mark_dirty(
                        constraint, (var.index for var in constraint.variables())
                    )
                    store.schedule(constraint)
            if propagate():
                search()
        finally:
            # Unwind every level so the model's domains are restored even when
            # a propagator raises something other than InconsistencyError
            # (e.g. an unsupported interior removal on an IntervalDomain).
            while store._levels:
                store.pop_level()

        stats.events = store.events
        stats.elapsed = time.monotonic() - start
        if minimize is not None and not first_solution_only:
            # In minimization mode the search only stops early on timeout or
            # node limit, so exhausting the tree without either proves
            # optimality (of the best solution found, or of the external
            # incumbent when an initial bound was supplied and never improved).
            stats.proven_optimal = (
                not stats.timed_out
                and not stats.limit_reached
                and (result.best is not None or initial_bound is not None)
            )
        return result
