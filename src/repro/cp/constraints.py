"""Constraints understood by the solver.

Only the constraints the paper's model needs are provided:

* :class:`ElementSum` — a total variable equal to the sum of per-variable
  lookup tables (the reconfiguration cost estimate of Section 4.3), each
  stored as a :class:`CostTable`: a default cost plus the values that cost
  something else;
* :class:`VectorPacking` — the 2-dimensional bin-packing constraint relating
  VM assignment variables to node capacities (Section 3.2).

The placement-constraint catalog (:mod:`repro.constraints`) compiles its
declarative relations into a second family of propagators:

* :class:`NotEqual` — a cheap pairwise disequality (two-VM ``Spread``);
* :class:`AllDifferent` — a value-based all-different where a set of
  excepted values may repeat (``Spread`` over more VMs, or with
  collocation-tolerant nodes as the exceptions);
* :class:`CountInValuesAtMost` — at most ``k`` variables may take a value
  from a watched set (``RunningCapacity``).

Propagation is *event-driven*: each constraint declares a scheduling
``priority`` (cheap propagators drain first) and whether it is ``idempotent``
(its own prunings cannot enable further prunings by itself, so the store need
not requeue it for self-inflicted events).  A constraint implements
``variables()``, ``register(store)`` and ``propagate_events(store, dirty)``:
``register`` (re)builds internal counters at the start of a search;
``propagate_events`` receives the model indices of the watched variables
whose domain changed since the last call and updates the counters by deltas,
undoing them on backtrack through ``store.record_undo``.  The three catalog
propagators keep no counters and filter from scratch whatever ``dirty``
says.

``store`` exposes the domain mutations that are recorded on the solver trail.
Propagation raises :class:`~repro.model.errors.InconsistencyError` when a
domain would become empty or a constraint is certainly violated.
"""

from __future__ import annotations

from typing import Collection, Mapping, NamedTuple, Sequence

from ..model.errors import InconsistencyError
from .variables import IntVar


class Constraint:
    """Base class of all constraints."""

    #: Propagation-queue priority: 0 (cheapest, drained first) to 3.
    priority: int = 1
    #: True when the constraint's own prunings never require re-running it.
    idempotent: bool = False

    def variables(self) -> Sequence[IntVar]:
        raise NotImplementedError

    def register(self, store) -> None:
        """(Re)build incremental state at the start of a search."""

    def propagate_events(self, store, dirty: Collection[int]) -> None:
        """Filter the domains given the model indices of changed variables."""
        raise NotImplementedError


class CostTable(NamedTuple):
    """A lookup table kept sparse: ``exceptions`` maps the values that cost
    something else than ``default``.

    Table 1 of the paper prices a VM's placement with at most three
    distinct costs (stay / move, or local / remote resume), so a table is
    O(1) to build and to bound whatever the number of nodes.
    """

    default: int
    exceptions: Mapping[int, int]

    def cost(self, value: int) -> int:
        return self.exceptions.get(value, self.default)

    def costs(self, universe: int) -> list[int]:
        """The costs taken over a universe of ``universe`` values that
        contains every exception (``default`` is one of them only when some
        value is left to take it)."""
        costs = list(self.exceptions.values())
        if universe > len(costs):
            costs.append(self.default)
        return costs


class ElementSum(Constraint):
    """``total = sum_i tables[i][vars[i]]``.

    ``tables[i]``, a :class:`CostTable`, gives every value of ``vars[i]``'s
    initial domain a non-negative cost.  Bound-consistent propagation in
    both directions: the total is squeezed between the sum of per-variable
    minima and maxima, and values whose cost would push the sum above
    ``total.max`` are pruned.
    A variable's cost bounds are read off the smaller of its table's
    exceptions and its domain, so a sparse table is bounded in O(1).

    It keeps the per-variable cost bounds and their sums as trailed
    counters: a domain event re-derives the bounds of the touched variable
    only.  The value pruning is a sweep over the variables, run only when it
    can find something: the slack ``total.max - lower`` has to be below the
    largest per-variable regret (max - min cost) and below the slack of the
    last sweep on this branch — minimum costs only grow along a branch, so
    a value that survived a sweep survives every later one at the same slack.
    """

    priority = 1
    # Our own remove_above on the total changes total.max, which tightens the
    # pruning budget — the store must requeue us for self-inflicted events.
    idempotent = False

    def __init__(
        self,
        variables: Sequence[IntVar],
        tables: Sequence[CostTable],
        total: IntVar,
    ):
        if len(variables) != len(tables):
            raise ValueError("one table per variable is required")
        self._vars = list(variables)
        self._tables = list(tables)
        self._total = total
        #: Constraint compilation may emit degenerate models (e.g. no VM to
        #: place): with no variables the sum is 0, so the only propagation is
        #: pinning the total to 0.
        self._empty = not self._vars
        self._index_of: dict[int, int] = {}
        self._lo: list[int] = []
        self._hi: list[int] = []
        self._lower = 0
        self._upper = 0
        #: Trailed: the smallest slack a pruning sweep has run at on the
        #: current branch (the largest regret before any has).
        self._swept = 0

    def variables(self) -> Sequence[IntVar]:
        return [*self._vars, self._total]

    def _cost_bounds(self, index: int) -> tuple[int, int]:
        default, exceptions = self._tables[index]
        domain = self._vars[index].domain
        if len(exceptions) < len(domain):
            # Fewer exceptions than values: some value takes the default.
            costs = [c for value, c in exceptions.items() if value in domain]
            costs.append(default)
        else:
            costs = [exceptions.get(value, default) for value in domain.raw_values()]
        return min(costs), max(costs)

    def _prune(self, store, index: int, budget: int) -> None:
        """Remove the values of variable ``index`` that cost more than
        ``budget``.  The minimum-cost value always survives (``lower <=
        total.max`` implies ``lo[index] <= budget``), so the batch — one
        event per variable — can never empty the domain."""
        default, exceptions = self._tables[index]
        var = self._vars[index]
        store.remove_many(
            var,
            [v for v in var.raw_values() if exceptions.get(v, default) > budget],
        )

    def register(self, store) -> None:
        self._index_of = {var.index: i for i, var in enumerate(self._vars)}
        bounds = [self._cost_bounds(i) for i in range(len(self._vars))]
        self._lo = [b[0] for b in bounds]
        self._hi = [b[1] for b in bounds]
        self._lower = sum(self._lo)
        self._upper = sum(self._hi)
        self._swept = max((hi - lo for lo, hi in bounds), default=0)

    def _restore_bounds(self, i: int, lo: int, hi: int, d_lo: int, d_hi: int):
        def undo() -> None:
            self._lo[i] = lo
            self._hi[i] = hi
            self._lower -= d_lo
            self._upper -= d_hi
        return undo

    def _restore_swept(self, old: int):
        def undo() -> None:
            self._swept = old
        return undo

    def propagate_events(self, store, dirty: Collection[int]) -> None:
        if self._empty:
            if 0 not in self._total:
                raise InconsistencyError(
                    "ElementSum: empty variable list forces total = 0"
                )
            store.remove_below(self._total, 0)
            store.remove_above(self._total, 0)
            return
        for model_index in dirty:
            i = self._index_of.get(model_index)
            if i is None:
                continue  # the total variable; its bounds are read below
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

        slack = total.max - self._lower
        if slack >= self._swept:
            return
        store.record_undo(self._restore_swept(self._swept))
        self._swept = slack
        lo, hi = self._lo, self._hi
        for i in range(len(self._vars)):
            if hi[i] - lo[i] > slack:
                self._prune(store, i, slack + lo[i])


class VectorPacking(Constraint):
    """Two-dimensional bin-packing of VMs onto nodes (Section 3.2).

    ``assignments[i]`` is the node index hosting item ``i``; ``demands[i]`` is
    the (cpu, memory) demand of item ``i``; ``capacities[j]`` the (cpu, memory)
    capacity of node ``j``.  Propagation removes node ``j`` from an item's
    domain as soon as the load already committed to ``j`` leaves too little
    room, and fails when committed load exceeds a capacity — the behaviour the
    paper obtains from Choco's packing / multi-knapsack constraints.

    It maintains the free capacity of every node and the set of
    not-yet-committed items incrementally: committing an item on assignment
    is an O(1) load delta (undone on backtrack), and only the nodes whose
    free capacity shrank re-check the pending items — and only when what is
    left no longer fits the componentwise-largest demand, since until then
    every pending item still fits.
    """

    priority = 2
    # propagate_events runs its own internal worklist until nothing changes
    # (a pruning that instantiates an item is committed in the same call).
    idempotent = True

    def __init__(
        self,
        assignments: Sequence[IntVar],
        demands: Sequence[tuple[int, int]],
        capacities: Sequence[tuple[int, int]],
    ):
        if len(assignments) != len(demands):
            raise ValueError("one demand per assignment variable is required")
        self._vars = list(assignments)
        self._demands = [tuple(d) for d in demands]
        self._capacities = [tuple(c) for c in capacities]
        self._largest = (
            max((d[0] for d in self._demands), default=0),
            max((d[1] for d in self._demands), default=0),
        )
        self._index_of: dict[int, int] = {}
        self._free: list[list[int]] = []
        self._pending: set[int] = set()
        self._primed = False

    def variables(self) -> Sequence[IntVar]:
        return self._vars

    def register(self, store) -> None:
        self._index_of = {var.index: i for i, var in enumerate(self._vars)}
        self._free = [list(capacity) for capacity in self._capacities]
        self._pending = set(range(len(self._vars)))
        # The first propagation re-checks every node so that items that do
        # not fit even an *empty* node are pruned at the root.
        self._primed = False

    def _release(self, i: int, node: int, cpu: int, mem: int):
        def undo() -> None:
            free = self._free[node]
            free[0] += cpu
            free[1] += mem
            self._pending.add(i)
        return undo

    def _commit(self, store, i: int, changed_nodes: set[int]) -> None:
        node = self._vars[i].value
        if not 0 <= node < len(self._capacities):
            raise InconsistencyError(
                f"assignment {self._vars[i].name} targets unknown node {node}"
            )
        cpu, mem = self._demands[i]
        free = self._free[node]
        free[0] -= cpu
        free[1] -= mem
        self._pending.discard(i)
        store.record_undo(self._release(i, node, cpu, mem))
        if free[0] < 0 or free[1] < 0:
            raise InconsistencyError(
                f"node {node} overloaded by {self._vars[i].name}"
            )
        changed_nodes.add(node)

    def propagate_events(self, store, dirty: Collection[int]) -> None:
        if not self._vars:
            self._primed = True
            return
        worklist = [
            i
            for model_index in dirty
            if (i := self._index_of.get(model_index)) is not None
        ]
        first = not self._primed
        self._primed = True
        largest_cpu, largest_mem = self._largest
        while worklist or first:
            changed_nodes: set[int] = (
                set(range(len(self._capacities))) if first else set()
            )
            first = False
            for i in worklist:
                if i in self._pending and self._vars[i].is_instantiated:
                    self._commit(store, i, changed_nodes)
            worklist = []
            for node in changed_nodes:
                free_cpu, free_mem = self._free[node]
                if largest_cpu <= free_cpu and largest_mem <= free_mem:
                    continue
                for i in self._pending:
                    cpu, mem = self._demands[i]
                    if cpu <= free_cpu and mem <= free_mem:
                        continue
                    var = self._vars[i]
                    if node in var:
                        store.remove(var, node)
                        if var.is_instantiated:
                            worklist.append(i)


class NotEqual(Constraint):
    """``a != b`` — the cheapest disequality, used for two-VM ``Spread``.

    Propagation runs until nothing changes (pruning ``b`` may instantiate
    it, which in turn prunes ``a``), so the constraint is genuinely idempotent
    and never needs requeueing for self-inflicted events.
    """

    priority = 0
    idempotent = True

    def __init__(self, a: IntVar, b: IntVar):
        self._a = a
        self._b = b

    def variables(self) -> Sequence[IntVar]:
        return [self._a, self._b]

    def propagate_events(self, store, dirty: Collection[int]) -> None:
        a, b = self._a, self._b
        while True:
            if a.is_instantiated and b.is_instantiated:
                if a.value == b.value:
                    raise InconsistencyError(
                        f"NotEqual: {a.name} and {b.name} both take {a.value}"
                    )
                return
            if a.is_instantiated and a.value in b:
                store.remove(b, a.value)
            elif b.is_instantiated and b.value in a:
                store.remove(a, b.value)
            else:
                return


class CountInValuesAtMost(Constraint):
    """At most ``maximum`` variables may take a value inside ``watched`` (the
    ``RunningCapacity`` compiler: cap how many VMs run on a node set).

    A variable counts as *committed* once its whole domain lies inside the
    watched set; when the committed count reaches the cap, the watched values
    are pruned from every other variable (each of which still has at least one
    outside value, so the pruning can never empty a domain).  From then on the
    constraint can never fail again in the current subtree: it is marked
    *entailed* with an undo entry, so backtracking past the saturation point
    re-arms it.
    """

    def __init__(
        self, variables: Sequence[IntVar], watched: Collection[int], maximum: int
    ):
        if maximum < 0:
            raise ValueError("CountInValuesAtMost needs a non-negative maximum")
        self._vars = list(variables)
        self._watched = frozenset(watched)
        self._max = maximum
        self._entailed = False

    def variables(self) -> Sequence[IntVar]:
        return self._vars

    def register(self, store) -> None:
        self._entailed = False

    def _mark_entailed(self, store) -> None:
        self._entailed = True

        def undo() -> None:
            self._entailed = False

        store.record_undo(undo)

    def propagate_events(self, store, dirty: Collection[int]) -> None:
        if self._entailed:
            return
        watched = self._watched
        watched_size = len(watched)
        # Pigeonhole fast path: a domain larger than the watched set always
        # holds an outside value, so only small domains need the full scan —
        # without this the O(vars x domain) sweep dominates large models.
        committed = [
            var
            for var in self._vars
            if var.size <= watched_size
            and all(value in watched for value in var.raw_values())
        ]
        if len(committed) > self._max:
            raise InconsistencyError(
                f"CountInValuesAtMost: {len(committed)} variables committed "
                f"to the watched set, maximum is {self._max}"
            )
        if len(committed) == self._max:
            committed_ids = {id(var) for var in committed}
            for var in self._vars:
                if id(var) in committed_ids:
                    continue
                clash = [v for v in var.raw_values() if v in watched]
                if clash:
                    store.remove_many(var, clash)
            # The other variables lost every watched value: the committed
            # count cannot grow in this subtree.
            self._mark_entailed(store)


class AllDifferent(Constraint):
    """Pairwise-different values (value-based propagation), except that
    values in ``exceptions`` may be shared freely (``Spread`` tolerating
    collocation on designated nodes)."""

    def __init__(self, variables: Sequence[IntVar], exceptions: Collection[int] = ()):
        self._vars = list(variables)
        self._exceptions = frozenset(exceptions)

    def variables(self) -> Sequence[IntVar]:
        return self._vars

    def propagate_events(self, store, dirty: Collection[int]) -> None:
        assigned: dict[int, IntVar] = {}
        for var in self._vars:
            if var.is_instantiated:
                value = var.value
                if value in self._exceptions:
                    continue
                if value in assigned:
                    raise InconsistencyError(
                        f"AllDifferent: {var.name} and {assigned[value].name} "
                        f"both take {value}"
                    )
                assigned[value] = var
        for var in self._vars:
            if var.is_instantiated:
                continue
            clash = [v for v in assigned if v in var]
            if clash:
                store.remove_many(var, clash)
