"""Resource vectors used throughout the cluster model.

The paper considers two resource dimensions (Section 3.2): the number of
processing units a VM demands and the amount of memory it is allocated.  The
viable-configuration problem is therefore a 2-dimensional vector bin-packing
problem.  :class:`ResourceVector` is a small immutable value type that keeps
the two dimensions together and supports the arithmetic the packing code needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True, order=False)
class ResourceVector:
    """An immutable (cpu, memory) pair.

    ``cpu`` counts processing units (the paper allocates entire cores to
    computing VMs) and ``memory`` is expressed in MB.
    """

    cpu: int = 0
    memory: int = 0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu + other.cpu, self.memory + other.memory)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu - other.cpu, self.memory - other.memory)

    def __mul__(self, factor: int) -> "ResourceVector":
        return ResourceVector(self.cpu * factor, self.memory * factor)

    __rmul__ = __mul__

    def __neg__(self) -> "ResourceVector":
        return ResourceVector(-self.cpu, -self.memory)

    # -- comparisons --------------------------------------------------------

    def fits_in(self, capacity: "ResourceVector") -> bool:
        """Return True when this demand fits inside ``capacity`` on both
        dimensions."""
        return self.cpu <= capacity.cpu and self.memory <= capacity.memory

    # -- helpers ------------------------------------------------------------

    def as_tuple(self) -> tuple[int, int]:
        return (self.cpu, self.memory)

    def __iter__(self) -> Iterator[int]:
        yield self.cpu
        yield self.memory

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ResourceVector(cpu={self.cpu}, memory={self.memory})"

    @staticmethod
    def total(vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        """Sum an iterable of resource vectors."""
        acc = ResourceVector()
        for vector in vectors:
            acc = acc + vector
        return acc
