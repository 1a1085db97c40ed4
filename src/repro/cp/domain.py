"""Finite integer domains for the constraint solver.

The solver reproduces the small subset of Choco 1.2 the paper relies on:
finite-domain integer variables, event-driven propagation, a depth-first
search with a first-fail flavoured heuristic, and branch-and-bound
minimization of a single cost variable (Section 4.3).

Two representations are provided:

* :class:`Domain` — a *sparse set* over an arbitrary finite set of integers.
  Removing a value swaps it past the end of the active prefix and shrinks a
  size counter, so every removal is O(1) and backtracking is a single integer
  write (:meth:`Domain.restore_to`): the removed values are still sitting in
  the array, in removal order, beyond the active prefix.  This replaces the
  copy-on-restore sets of the first solver generation.
* :class:`IntervalDomain` — a pair of bounds for variables that are only ever
  tightened from the outside in (the branch-and-bound objective).  All bound
  operations are O(1) regardless of the width of the interval, which matters
  because the objective domain can span five to six figures.

Both answer the reads :class:`~repro.cp.variables.IntVar` makes (size,
membership, bounds, values), the bound mutations (``remove_above``,
``remove_below``, ``assign``; mutations return the number of removed
values) and ``mark()``/``restore_to(token)`` used by the solver trail;
only :class:`Domain` takes value removals.  Propagation raises
:class:`~repro.model.errors.InconsistencyError` when a mutation would empty
the domain.
"""

from __future__ import annotations

from typing import Iterable

from ..model.errors import InconsistencyError


class Domain:
    """A mutable finite set of integers backed by a sparse set."""

    __slots__ = ("_values", "_pos", "_size", "_rev", "_minmax", "_minmax_rev", "trail_stamp")

    def __init__(self, values: Iterable[int]):
        ordered = sorted({int(v) for v in values})
        if not ordered:
            raise ValueError("a domain cannot be created empty")
        self._values = ordered
        self._pos = {v: i for i, v in enumerate(ordered)}
        self._size = len(ordered)
        self._rev = 0
        self._minmax = (ordered[0], ordered[-1])
        self._minmax_rev = 0
        #: Trail era of the last save; managed by the solver store.
        self.trail_stamp = -1

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, value: int) -> bool:
        pos = self._pos.get(value)
        return pos is not None and pos < self._size

    def _bounds(self) -> tuple[int, int]:
        if self._minmax_rev != self._rev:
            active = self._values
            lo = hi = active[0]
            for i in range(1, self._size):
                v = active[i]
                if v < lo:
                    lo = v
                elif v > hi:
                    hi = v
            self._minmax = (lo, hi)
            self._minmax_rev = self._rev
        return self._minmax

    @property
    def min(self) -> int:
        return self._bounds()[0]

    @property
    def max(self) -> int:
        return self._bounds()[1]

    @property
    def is_singleton(self) -> bool:
        return self._size == 1

    @property
    def value(self) -> int:
        """The single value of an instantiated domain."""
        if self._size != 1:
            raise ValueError("domain is not a singleton")
        return self._values[0]

    def values(self) -> tuple[int, ...]:
        return tuple(sorted(self._values[: self._size]))

    def raw_values(self) -> tuple[int, ...]:
        """Unordered view of the domain (cheaper than :meth:`values` for the
        propagators' inner loops)."""
        return tuple(self._values[: self._size])

    def copy(self) -> "Domain":
        """An independent domain over the current values, built without
        re-sorting them: the model builder stamps one copy per variable off
        a shared template."""
        clone = Domain.__new__(Domain)
        values = self._values[: self._size]
        clone._values = values
        clone._pos = dict(zip(values, range(len(values))))
        clone._size = len(values)
        clone._rev = 0
        clone._minmax = self._bounds()
        clone._minmax_rev = 0
        clone.trail_stamp = -1
        return clone

    # -- trail support --------------------------------------------------------

    def mark(self) -> int:
        """Opaque token describing the current state, for :meth:`restore_to`."""
        return self._size

    def restore_to(self, token: int) -> None:
        """O(1) backtracking: values removed since ``mark()`` returned
        ``token`` are still parked right after the active prefix, so restoring
        the size brings exactly those values back."""
        self._size = token
        self._rev += 1

    # -- mutations (return the number of removed values) -----------------------

    def _discard(self, value: int) -> None:
        """Swap ``value`` just past the active prefix and shrink it."""
        values, pos = self._values, self._pos
        last = self._size - 1
        at = pos[value]
        other = values[last]
        values[at] = other
        pos[other] = at
        values[last] = value
        pos[value] = last
        self._size = last

    def remove(self, value: int) -> int:
        pos = self._pos.get(value)
        if pos is None or pos >= self._size:
            return 0
        if self._size == 1:
            raise InconsistencyError(f"removing {value} empties the domain")
        self._discard(value)
        self._rev += 1
        return 1

    def remove_many(self, values: Iterable[int]) -> int:
        # dict.fromkeys dedups at C speed; the inline position check avoids
        # __contains__ dispatch on this very hot path.
        pos = self._pos
        size = self._size
        targets = [
            v
            for v in dict.fromkeys(values)
            if (p := pos.get(v)) is not None and p < size
        ]
        if not targets:
            return 0
        if len(targets) == size:
            raise InconsistencyError("removal empties the domain")
        for v in targets:
            self._discard(v)
        self._rev += 1
        return len(targets)

    def assign(self, value: int) -> int:
        """Restrict the domain to a single value."""
        pos = self._pos.get(value)
        if pos is None or pos >= self._size:
            raise InconsistencyError(f"value {value} not in domain")
        removed = self._size - 1
        if removed:
            # A swap within the active prefix keeps the sparse-set invariant:
            # restoring the size restores the same *set* of values.
            values, positions = self._values, self._pos
            other = values[0]
            values[0] = value
            positions[value] = 0
            values[pos] = other
            positions[other] = pos
            self._size = 1
            self._rev += 1
        return removed

    def remove_above(self, bound: int) -> int:
        return self.remove_many([v for v in self._values[: self._size] if v > bound])

    def remove_below(self, bound: int) -> int:
        return self.remove_many([v for v in self._values[: self._size] if v < bound])


class IntervalDomain:
    """A contiguous domain ``[lo, hi]`` with O(1) bound tightening.

    Used for the branch-and-bound objective variable, whose domain can span
    :math:`10^5` values: the sparse set would pay O(width) on every bound
    update, the interval pays O(1).  Only bound mutations are supported: the
    representation cannot encode a hole, and no propagator removes values
    from the objective.
    """

    __slots__ = ("_lo", "_hi", "_rev", "trail_stamp")

    def __init__(self, lower: int, upper: int):
        if upper < lower:
            raise ValueError(f"empty interval [{lower}, {upper}]")
        self._lo = int(lower)
        self._hi = int(upper)
        self._rev = 0
        self.trail_stamp = -1

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return self._hi - self._lo + 1

    def __contains__(self, value: int) -> bool:
        return self._lo <= value <= self._hi

    @property
    def min(self) -> int:
        return self._lo

    @property
    def max(self) -> int:
        return self._hi

    @property
    def is_singleton(self) -> bool:
        return self._lo == self._hi

    @property
    def value(self) -> int:
        if self._lo != self._hi:
            raise ValueError("domain is not a singleton")
        return self._lo

    def values(self) -> tuple[int, ...]:
        return tuple(range(self._lo, self._hi + 1))

    def raw_values(self) -> tuple[int, ...]:
        return self.values()

    # -- trail support --------------------------------------------------------

    def mark(self) -> tuple[int, int]:
        return (self._lo, self._hi)

    def restore_to(self, token: tuple[int, int]) -> None:
        self._lo, self._hi = token
        self._rev += 1

    # -- mutations -------------------------------------------------------------

    def assign(self, value: int) -> int:
        if value < self._lo or value > self._hi:
            raise InconsistencyError(f"value {value} not in domain")
        removed = (self._hi - self._lo + 1) - 1
        if removed:
            self._lo = self._hi = value
            self._rev += 1
        return removed

    def remove_above(self, bound: int) -> int:
        if bound >= self._hi:
            return 0
        if bound < self._lo:
            raise InconsistencyError(
                f"removing values above {bound} empties [{self._lo}, {self._hi}]"
            )
        removed = self._hi - bound
        self._hi = bound
        self._rev += 1
        return removed

    def remove_below(self, bound: int) -> int:
        if bound <= self._lo:
            return 0
        if bound > self._hi:
            raise InconsistencyError(
                f"removing values below {bound} empties [{self._lo}, {self._hi}]"
            )
        removed = bound - self._lo
        self._lo = bound
        self._rev += 1
        return removed
