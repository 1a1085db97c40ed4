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
  the most recent conflict first and otherwise asks the order it wraps;
* value ordering that favours a variable's preferred value (its current host)
  to reduce the number of VM movements;
* branch-and-bound on a single objective variable: every time a solution is
  found, the search continues looking for strictly cheaper ones until the
  optimum is proved or a timeout expires.  The proof is free when it can be:
  the objective's lower bound after root propagation is remembered, and a
  solution that meets it ends the search at once (``stop == "bound"``) —
  nothing cheaper can exist, so there is no tree left worth unwinding.

The tree is walked by a loop over an explicit stack of (variable, remaining
values) frames, not by recursion: search depth is bounded by memory, never by
the interpreter's recursion limit, and a dive of V decisions costs O(V)
bookkeeping — the variable selector is asked first (completeness is only
checked when it has nothing left to offer) and :func:`static_order` keeps a
trailed cursor instead of rescanning its order at every node.

This is the one propagation path.  The first solver generation re-ran
*every* constraint from scratch after *every* decision until nothing changed;
that behaviour survives only under ``tests/`` (``reference_propagation.py``,
one constraint wrapping a whole model and searched by this solver), where the
property suites hold the two to the same search trees.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..model.errors import InconsistencyError, SolverError
from ..obs import NULL_SPAN, Span
from ..obs import span as obs_span
from .constraints import Constraint
from .variables import IntVar, make_interval_var

VariableSelector = Callable[[Sequence[IntVar]], Optional[IntVar]]
ValueSelector = Callable[[IntVar], Sequence[int]]
#: ``_Store.record_undo`` as a selector's :meth:`bind` receives it.
RecordUndo = Callable[[Callable[[], None]], None]

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


class _StaticOrder:
    """The selector :func:`static_order` returns.

    Inside a search (:meth:`bind`) it keeps a cursor past the leading
    instantiated variables of its order, so the selections of a dive cost
    O(V) in total instead of one rescan per node.  Every move of the cursor
    is recorded on the search's trail and is therefore undone exactly when
    the domains it was read from are.  Called outside a search it scans from
    the start.
    """

    def __init__(self, order: Sequence[IntVar]) -> None:
        self._fixed = list(order)
        self._cursor = 0
        self._record_undo: Optional[RecordUndo] = None

    def bind(self, record_undo: Optional[RecordUndo]) -> None:
        """Attach to a search's trail (``None``: detach)."""
        self._cursor = 0
        self._record_undo = record_undo

    def _restore_cursor(self, cursor: int) -> Callable[[], None]:
        def undo() -> None:
            self._cursor = cursor
        return undo

    def __call__(self, variables: Sequence[IntVar]) -> Optional[IntVar]:
        fixed = self._fixed
        start = at = self._cursor
        while at < len(fixed) and fixed[at].is_instantiated:
            at += 1
        if at != start and self._record_undo is not None:
            self._record_undo(self._restore_cursor(start))
            self._cursor = at
        if at < len(fixed):
            return fixed[at]
        for var in variables:
            if not var.is_instantiated:
                return var
        return None


def static_order(order: Sequence[IntVar]) -> VariableSelector:
    """Instantiate variables following a fixed order (e.g. biggest VMs
    first, the first-fail approach of [23] used by the paper)."""
    return _StaticOrder(order)


class ActivityLastConflict:
    """Last-conflict-first variable selection.

    Wraps a ``primary`` selector (typically the paper's static biggest-first
    order).  When the most recent conflict's variable is still free it is
    branched on first — chronological backtracking then stays close to the
    source of the failure instead of thrashing through unrelated variables.
    Otherwise the primary selector picks.

    The solver reports failures through :meth:`on_failure` and hands its
    trail to :meth:`bind`; plain callables without those methods keep working
    unchanged.
    """

    def __init__(self, primary: VariableSelector):
        self._primary = primary
        self._last_conflict: Optional[IntVar] = None

    def __call__(self, variables: Sequence[IntVar]) -> Optional[IntVar]:
        last = self._last_conflict
        if last is not None and not last.is_instantiated:
            return last
        return self._primary(variables)

    def on_failure(self, var: IntVar) -> None:
        self._last_conflict = var

    def reset(self) -> None:
        self._last_conflict = None

    def bind(self, record_undo: Optional[RecordUndo]) -> None:
        """Pass the search's trail on to a primary selector that keeps
        trailed state (:func:`static_order`'s cursor)."""
        bind = getattr(self._primary, "bind", None)
        if bind is not None:
            bind(record_undo)


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

    def record_on(self, trace_span: Span) -> None:
        """Put the search counters on ``trace_span`` as span counters, and
        whether the search proved its answer or ran out of time as
        attributes."""
        trace_span.inc("nodes", self.nodes)
        trace_span.inc("backtracks", self.backtracks)
        trace_span.inc("propagations", self.propagations)
        trace_span.inc("solutions", self.solutions)
        trace_span.set(proven_optimal=self.proven_optimal, timed_out=self.timed_out)


@dataclass
class SearchResult:
    """Outcome of a search."""

    best: Optional[Solution]
    all_solutions: list[Solution] = field(default_factory=list)
    statistics: SearchStatistics = field(default_factory=SearchStatistics)
    #: Why the search ended: ``"bound"`` (an accepted solution met
    #: ``root_bound``, so it is optimal and nothing was left to prove),
    #: ``"exhausted"`` (the whole tree was walked), ``"timeout"``,
    #: ``"node_limit"``, or ``"first"`` (``first_solution_only`` got the
    #: solution it asked for).  A sixth value,
    #: ``"incumbent"``, is written by :mod:`repro.core.optimizer` for a solve
    #: it answered without a search: a placement known beforehand already
    #: cost the lower bound.
    stop: str = "exhausted"
    #: The objective's lower bound after root propagation; ``None`` in
    #: satisfaction mode or when the root is already inconsistent.
    root_bound: Optional[int] = None
    #: Seconds from the start of the solve to its first solution and to the
    #: last improving one (``None``: no solution).  What follows the latter,
    #: ``statistics.elapsed - best_solution_at``, is the time spent proving.
    first_solution_at: Optional[float] = None
    best_solution_at: Optional[float] = None

    def record_on(self, trace_span: Span) -> None:
        """Put the outcome on the ``cp.solve`` span of the solve it ends:
        the search statistics (:meth:`SearchStatistics.record_on`), and why
        and when it stopped as attributes."""
        stats = self.statistics
        stats.record_on(trace_span)
        trace_span.set(
            stop=self.stop,
            root_bound=self.root_bound,
            first_solution_ms=_ms(self.first_solution_at),
            best_solution_ms=_ms(self.best_solution_at),
            proof_ms=_ms(stats.elapsed - (self.best_solution_at or 0.0)),
        )


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
        "_trail", "_levels", "_watchers", "_era",
        "_buckets", "_queued", "_dirty", "_active", "events",
    )

    def __init__(self, watchers: dict[int, list[Constraint]]):
        self._trail: list[tuple] = []
        self._levels: list[int] = []
        self._watchers = watchers
        self._era = next(_Store._ERAS)
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

    A domain change wakes only the constraints watching the changed
    variable, through the priority-bucketed queue.

    Effort is bounded per :meth:`solve` call via ``timeout`` (wall-clock)
    and ``node_limit`` (deterministic search-tree cap) — see
    :meth:`solve` for every knob.
    """

    def __init__(
        self,
        model: Model,
        variable_selector: VariableSelector = first_fail,
        value_selector: ValueSelector = ascending_values,
    ) -> None:
        self._model = model
        self._variable_selector = variable_selector
        self._value_selector = value_selector
        watchers: dict[int, list[Constraint]] = {}
        for constraint in model.constraints:
            for var in constraint.variables():
                watchers.setdefault(var.index, []).append(constraint)
        self._watchers = watchers

    # -- public API ----------------------------------------------------------

    def solve(
        self,
        minimize: Optional[IntVar] = None,
        timeout: Optional[float] = None,
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
        with obs_span("cp.solve") as trace_span:
            result = self._solve_impl(
                minimize=minimize,
                timeout=timeout,
                collect_all=collect_all,
                first_solution_only=first_solution_only,
                initial_bound=initial_bound,
                node_limit=node_limit,
                trace_span=trace_span,
            )
            result.record_on(trace_span)
        return result

    def _solve_impl(
        self,
        minimize: Optional[IntVar] = None,
        timeout: Optional[float] = None,
        collect_all: bool = False,
        first_solution_only: bool = False,
        initial_bound: Optional[int] = None,
        node_limit: Optional[int] = None,
        trace_span: Span = NULL_SPAN,
    ) -> SearchResult:
        store = _Store(self._watchers)
        stats = SearchStatistics()
        result = SearchResult(best=None, statistics=stats)
        start = time.monotonic()
        deadline = None if timeout is None else start + timeout
        best_cost: Optional[int] = initial_bound if minimize is not None else None
        variables = self._model.variables
        constraints = self._model.constraints
        selector = self._variable_selector
        value_selector = self._value_selector
        notify_failure = getattr(selector, "on_failure", None)
        bind_selector = getattr(selector, "bind", None)
        reset_selector = getattr(selector, "reset", None)
        if reset_selector is not None:
            reset_selector()

        def out_of_time() -> bool:
            if deadline is not None and time.monotonic() > deadline:
                stats.timed_out = True
                result.stop = "timeout"
                return True
            return False

        def snapshot() -> Solution:
            values = {var.name: var.value for var in variables if var.is_instantiated}
            objective = minimize.value if minimize is not None else None
            return Solution(values=values, objective=objective)

        def drain() -> bool:
            """Drain the propagation queue; False on inconsistency.

            Only the constraints woken by domain events run, and they receive
            the indices of their changed variables.
            """
            try:
                if minimize is not None and best_cost is not None:
                    store.remove_above(minimize, best_cost - 1)
                while True:
                    constraint = store.pop_constraint()
                    if constraint is None:
                        return True
                    stats.propagations += 1
                    dirty = store.take_dirty(constraint)
                    store._active = constraint
                    try:
                        constraint.propagate_events(store, dirty)
                    finally:
                        store._active = None
            except InconsistencyError:
                store.clear_queue()
                return False

        def record_failure(var: IntVar) -> None:
            stats.backtracks += 1
            if notify_failure is not None:
                notify_failure(var)

        def accept() -> bool:
            """Record the solution the fully instantiated model holds; True
            when the search must stop."""
            nonlocal best_cost
            stats.solutions += 1
            solution = snapshot()
            now = time.monotonic() - start
            if result.first_solution_at is None:
                result.first_solution_at = now
            if collect_all:
                result.all_solutions.append(solution)
            if minimize is None:
                if result.best is None:
                    result.best = solution
                    result.best_solution_at = now
                if first_solution_only:
                    result.stop = "first"
                    return True
                return False
            if best_cost is None or solution.objective < best_cost:
                best_cost = solution.objective
                result.best = solution
                result.best_solution_at = now
                trace_span.event("improving_solution", objective=solution.objective)
                if best_cost == result.root_bound:
                    # Propagation never removes a feasible objective value:
                    # nothing cheaper than the root bound exists, so every
                    # retry would fail on ``total <= best - 1`` at once.
                    result.stop = "bound"
                    return True
            if first_solution_only:
                result.stop = "first"
                return True
            # keep searching for a strictly better solution
            return False

        def search() -> None:
            """Depth-first walk over an explicit stack of (variable, remaining
            values) frames, one per open decision."""
            frames: list[tuple[Optional[IntVar], Iterator[int]]] = []
            while True:
                # Open a node: the root, or the child the last value led to.
                if node_limit is not None and stats.nodes >= node_limit:
                    stats.limit_reached = True
                    result.stop = "node_limit"
                    return
                stats.nodes += 1
                if out_of_time():
                    return
                var = selector(variables)
                if var is not None:
                    frames.append((var, iter(value_selector(var))))
                elif all(v.is_instantiated for v in variables) and accept():
                    return
                else:
                    # A leaf — a recorded solution, or an auxiliary variable
                    # that propagation should have fixed and did not: no
                    # value to try, so the loop below returns to the parent.
                    frames.append((None, iter(())))
                # Take the next value that survives propagation; a frame out
                # of values hands over to its parent's.
                while True:
                    var, values = frames[-1]
                    for value in values:
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
                        if drain():
                            break
                        record_failure(var)
                        store.pop_level()
                        if out_of_time():
                            return
                    else:
                        frames.pop()
                        if not frames:
                            return  # the root is out of values
                        stats.backtracks += 1
                        store.pop_level()
                        if out_of_time():
                            return
                        continue
                    break

        store.push_level()
        try:
            if bind_selector is not None:
                bind_selector(store.record_undo)
            for constraint in constraints:
                constraint.register(store)
                store.mark_dirty(
                    constraint, (var.index for var in constraint.variables())
                )
                store.schedule(constraint)
            if drain():
                if minimize is not None:
                    result.root_bound = minimize.min
                search()
        finally:
            # Unwind every level so the model's domains are restored even when
            # a propagator raises something other than InconsistencyError.
            while store._levels:
                store.pop_level()
            if bind_selector is not None:
                bind_selector(None)

        stats.events = store.events
        stats.elapsed = time.monotonic() - start
        if minimize is not None:
            # A solution at the root bound is optimal whatever the mode.
            # Otherwise only an exhausted tree proves anything — the
            # optimality of the best solution found, or of the external
            # incumbent when an initial bound was supplied and never improved
            # — and a first-solution search does not look for the optimum.
            stats.proven_optimal = result.stop == "bound" or (
                result.stop == "exhausted"
                and not first_solution_only
                and (result.best is not None or initial_bound is not None)
            )
        return result


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1000.0
