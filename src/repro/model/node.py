"""Working, storage and service nodes of the cluster (Section 3.1).

Only working nodes can host VMs; storage nodes serve the virtual disks and the
service nodes run the monitoring head and the Entropy service.  The planner
and the decision modules only reason about working nodes, the other roles are
kept so the simulated substrate mirrors the paper's architecture.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .resources import ResourceVector


class NodeRole(enum.Enum):
    """Role of a node in the cluster architecture of Figure 4."""

    WORKING = "working"
    STORAGE = "storage"
    SERVICE = "service"


@dataclass(frozen=True)
class Node:
    """A physical node.

    Parameters
    ----------
    name:
        Unique identifier (host name).
    cpu_capacity:
        Number of processing units available to guest VMs.
    memory_capacity:
        Memory (MB) available to guest VMs, Domain-0 already excluded.
    role:
        Architectural role; only :attr:`NodeRole.WORKING` nodes host VMs.
    """

    name: str
    cpu_capacity: int = 2
    memory_capacity: int = 3584
    role: NodeRole = field(default=NodeRole.WORKING)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a node requires a non-empty name")
        if self.cpu_capacity < 0 or self.memory_capacity < 0:
            raise ValueError(f"node {self.name!r}: capacities must be non-negative")

    @property
    def capacity(self) -> ResourceVector:
        """Total resource capacity offered to guest VMs."""
        return ResourceVector(self.cpu_capacity, self.memory_capacity)

    def __str__(self) -> str:
        return self.name


def make_working_nodes(
    count: int,
    cpu_capacity: int = 2,
    memory_capacity: int = 3584,
    prefix: str = "node",
) -> list[Node]:
    """Build ``count`` homogeneous working nodes named ``<prefix>-<i>``."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return [
        Node(
            name=f"{prefix}-{index}",
            cpu_capacity=cpu_capacity,
            memory_capacity=memory_capacity,
        )
        for index in range(count)
    ]
