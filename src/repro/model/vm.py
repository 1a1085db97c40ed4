"""Virtual machines.

A VM is the unit the cluster-wide context switch acts upon: it can be run,
stopped, migrated, suspended to disk and resumed.  Its *demand* is what the
viability constraint of Section 3.2 checks against node capacities: the memory
allocated to the VM and the number of processing units it currently needs
(an entire unit while the embedded task computes, zero otherwise).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .resources import ResourceVector


class VMState(enum.Enum):
    """Individual state of a VM (the vjob state is derived from its VMs)."""

    WAITING = "waiting"      #: defined but never started
    RUNNING = "running"      #: active on a working node
    SLEEPING = "sleeping"    #: suspended to disk
    TERMINATED = "terminated"


@dataclass(frozen=True)
class VirtualMachine:
    """An immutable description of a VM.

    Parameters
    ----------
    name:
        Unique identifier.
    memory:
        Memory allocated to the VM in MB; this drives the cost model of
        Table 1 and the duration of migrate/suspend/resume actions.
    cpu_demand:
        Number of processing units the VM currently requires (0 when idle,
        typically 1 while its NASGrid task computes).
    vjob:
        Name of the vjob the VM belongs to (empty for standalone VMs).
    """

    name: str
    memory: int
    cpu_demand: int = 0
    vjob: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a VM requires a non-empty name")
        if self.memory <= 0:
            raise ValueError(f"VM {self.name!r}: memory must be positive")
        if self.cpu_demand < 0:
            raise ValueError(f"VM {self.name!r}: cpu_demand must be non-negative")

    @property
    def demand(self) -> ResourceVector:
        """Resource demand of the VM while it is running."""
        return ResourceVector(self.cpu_demand, self.memory)

    def with_cpu_demand(self, cpu_demand: int) -> "VirtualMachine":
        """The VM at ``cpu_demand``: a copy, or the VM itself (it is
        immutable) when that already is its demand — the decision modules
        ask this of every observed VM every round, mostly unchanged."""
        if cpu_demand == self.cpu_demand:
            return self
        return replace(self, cpu_demand=cpu_demand)

    def __str__(self) -> str:
        return self.name
