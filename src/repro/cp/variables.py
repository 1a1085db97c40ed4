"""Integer decision variables."""

from __future__ import annotations

from typing import Iterable, Union

from .domain import Domain, IntervalDomain


class IntVar:
    """A finite-domain integer variable.

    Every mutation goes through the owning :class:`~repro.cp.solver.Solver`'s
    trail so the search can undo it on backtracking.  The variable itself only
    exposes read access.
    """

    __slots__ = ("name", "domain", "index")

    def __init__(
        self,
        name: str,
        values: Union[Iterable[int], Domain, IntervalDomain],
    ):
        self.name = name
        if isinstance(values, (Domain, IntervalDomain)):
            self.domain = values
        else:
            self.domain = Domain(values)
        self.index: int = -1

    # -- read access ---------------------------------------------------------

    @property
    def is_instantiated(self) -> bool:
        return self.domain.is_singleton

    @property
    def value(self) -> int:
        return self.domain.value

    @property
    def min(self) -> int:
        return self.domain.min

    @property
    def max(self) -> int:
        return self.domain.max

    @property
    def size(self) -> int:
        return len(self.domain)

    def values(self) -> tuple[int, ...]:
        return self.domain.values()

    def raw_values(self) -> tuple[int, ...]:
        return self.domain.raw_values()

    def __contains__(self, value: int) -> bool:
        return value in self.domain

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"IntVar({self.name}, [{self.min}..{self.max}], size={self.size})"


def make_interval_var(name: str, lower: int, upper: int) -> IntVar:
    """Create a variable over an :class:`IntervalDomain` — O(1) bound
    tightening for wide contiguous domains such as the objective."""
    if upper < lower:
        raise ValueError(f"{name}: empty interval [{lower}, {upper}]")
    return IntVar(name, IntervalDomain(lower, upper))

