"""Virtualized jobs (vjobs) and their life cycle (Section 2.2, Figure 2).

A vjob is a job encapsulated into one or several VMs.  The scheduler acts at
the vjob granularity: all the VMs of a vjob are run, suspended or resumed
together (the *consistency* requirement of Section 4.1), while migrations act
on individual VMs and do not change the vjob state.

Life cycle::

    Waiting --run--> Running --suspend--> Sleeping --resume--> Running
       Running --stop--> Terminated
    Ready = {Waiting, Sleeping}   (the runnable vjobs)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InvalidStateTransition
from .vm import VirtualMachine


class VJobState(enum.Enum):
    """States of the vjob life cycle (Figure 2)."""

    WAITING = "waiting"
    RUNNING = "running"
    SLEEPING = "sleeping"
    TERMINATED = "terminated"


#: Allowed transitions of the life cycle.  ``migrate`` does not appear here
#: because it never changes the vjob state.
_ALLOWED_TRANSITIONS: dict[VJobState, frozenset[VJobState]] = {
    VJobState.WAITING: frozenset({VJobState.RUNNING, VJobState.TERMINATED}),
    VJobState.RUNNING: frozenset({VJobState.SLEEPING, VJobState.TERMINATED}),
    VJobState.SLEEPING: frozenset({VJobState.RUNNING, VJobState.TERMINATED}),
    VJobState.TERMINATED: frozenset(),
}


@dataclass
class VJob:
    """A virtualized job.

    Parameters
    ----------
    name:
        Unique identifier of the vjob.
    vms:
        The VMs that compose the vjob (9 or 18 in the paper's experiments).
    priority:
        Submission rank used by the FCFS queue (lower = earlier = higher
        priority).
    submitted_at:
        Submission time (seconds); used by the schedulers and the simulator.
    """

    name: str
    vms: Sequence[VirtualMachine]
    priority: int = 0
    submitted_at: float = 0.0
    state: VJobState = field(default=VJobState.WAITING)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a vjob requires a non-empty name")
        self.vms = tuple(self.vms)
        #: The names of :attr:`vms`, in order (``vms`` is fixed here).
        self.vm_names: tuple[str, ...] = tuple(vm.name for vm in self.vms)
        if not self.vms:
            raise ValueError(f"vjob {self.name!r} requires at least one VM")
        for vm in self.vms:
            if vm.vjob and vm.vjob != self.name:
                raise ValueError(
                    f"VM {vm.name!r} is tagged for vjob {vm.vjob!r}, "
                    f"not {self.name!r}"
                )

    # -- derived views -------------------------------------------------------

    @property
    def total_memory(self) -> int:
        return sum(vm.memory for vm in self.vms)

    @property
    def is_terminated(self) -> bool:
        return self.state is VJobState.TERMINATED

    # -- life cycle ----------------------------------------------------------

    def _transition(self, target: VJobState) -> None:
        allowed = _ALLOWED_TRANSITIONS[self.state]
        if target not in allowed:
            raise InvalidStateTransition(
                subject=f"vjob {self.name}",
                current=self.state.value,
                requested=target.value,
            )
        self.state = target

    def run(self) -> None:
        """Waiting -> Running (the ``run`` action on every VM)."""
        if self.state is not VJobState.WAITING:
            raise InvalidStateTransition(
                subject=f"vjob {self.name}",
                current=self.state.value,
                requested=VJobState.RUNNING.value,
            )
        self._transition(VJobState.RUNNING)

    def suspend(self) -> None:
        """Running -> Sleeping (the ``suspend`` action on every VM)."""
        self._transition(VJobState.SLEEPING)

    def terminate(self) -> None:
        """Any non-terminated state -> Terminated (the ``stop`` action)."""
        self._transition(VJobState.TERMINATED)

    # -- misc -----------------------------------------------------------------

    def __str__(self) -> str:
        return f"{self.name}[{self.state.value}]"


def index_vms_by_vjob(vjobs: Iterable[VJob]) -> dict[str, str]:
    """Return a mapping VM name -> vjob name for a collection of vjobs."""
    mapping: dict[str, str] = {}
    for vjob in vjobs:
        for vm in vjob.vms:
            mapping[vm.name] = vjob.name
    return mapping
