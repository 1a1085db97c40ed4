"""Reconfiguration graphs (Section 4.1).

A reconfiguration graph is an oriented multigraph whose vertices are the
cluster nodes and whose edges are the VM actions required to go from a current
configuration to a target configuration.  Each edge carries the action and the
CPU/memory demand of the manipulated VM; each vertex carries the node's
capacities.  The edges are derived once, from the VMs whose state or host
differs between the two configurations; the planner then carries them from
pool to pool (:meth:`ReconfigurationGraph.advance`), so the graph always
describes the *remaining* work at the price of the actions a pool applied,
not of the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Optional

from ..model.configuration import Configuration
from ..model.errors import PlanningError
from ..model.resources import ResourceVector
from ..model.vm import VMState
from .actions import Action, Migrate, Resume, Run, Stop, Suspend


@dataclass(frozen=True)
class Edge:
    """One action of the graph, annotated with the VM demand."""

    action: Action
    demand: ResourceVector


@dataclass
class ReconfigurationGraph:
    """The remaining actions between two configurations."""

    current: Configuration
    target: Configuration
    #: ``None`` derives the edges from the two configurations; a list —
    #: an empty one included — *is* the remaining work.
    edges: Optional[list[Edge]] = None
    #: The VMs that change, when whoever built ``target`` knows them (see
    #: :func:`_derive_edges`).
    changed: Optional[Collection[str]] = None

    def __post_init__(self) -> None:
        if self.edges is None:
            self.edges = list(
                _derive_edges(self.current, self.target, self.changed)
            )

    def advance(self, pool: Iterable[Action]) -> None:
        """Take the actions of ``pool`` — already applied to :attr:`current`
        — out of the remaining work, edge order kept.  An edge whose own
        action ran is done.  A bypass migration parked its VM on a pivot
        instead: the edge stays, rewritten to leave from the pivot."""
        applied = {action.vm: action for action in pool}
        remaining = []
        for edge in self.edges:
            action = applied.get(edge.action.vm)
            if action is None:
                remaining.append(edge)
            elif action != edge.action:
                remaining.append(
                    Edge(
                        action=Migrate(
                            vm=action.vm,
                            source_node=action.destination_node,
                            destination_node=edge.action.destination_node,
                        ),
                        demand=edge.demand,
                    )
                )
        self.edges = remaining

    # -- queries ---------------------------------------------------------------

    @property
    def actions(self) -> list[Action]:
        return [edge.action for edge in self.edges]

    def is_empty(self) -> bool:
        return not self.edges

    def __len__(self) -> int:
        return len(self.edges)


def changed_vms(current: Configuration, target: Configuration) -> list[str]:
    """The VMs whose state or host differs between two configurations of
    the same VMs, in registration order: the only ones a plan acts on."""
    observed, wanted = current.states(), target.states()
    if observed.keys() != wanted.keys():
        raise PlanningError(
            "current and target configurations do not describe the same VMs"
        )
    here, there = current.placement(), target.placement()
    return [
        name
        for name, state in observed.items()
        if wanted[name] is not state or here.get(name) != there.get(name)
    ]


def _derive_edges(
    current: Configuration,
    target: Configuration,
    names: Optional[Collection[str]] = None,
) -> Iterable[Edge]:
    """Compute the actions needed to turn ``current`` into ``target``.

    ``names`` are the VMs to look at, in registration order — every VM whose
    state or host changes must be among them; :func:`changed_vms` finds them
    when the caller does not already know.  One action at most is generated
    per VM:

    * Waiting -> Running: ``run`` on the target node;
    * Sleeping -> Running: ``resume`` on the target node (local or remote
      depending on where the suspend image lives);
    * Running -> Running on a different node: ``migrate``;
    * Running -> Sleeping: ``suspend`` on the current node;
    * Running -> Terminated: ``stop``;
    * Waiting/Sleeping -> Terminated and no-op transitions produce no action.
    """
    if names is None:
        names = changed_vms(current, target)
    for vm_name in names:
        vm = current.vm(vm_name)
        current_state = current.state_of(vm_name)
        target_state = target.state_of(vm_name)

        if target_state is VMState.RUNNING:
            destination = target.location_of(vm_name)
            if destination is None:
                raise PlanningError(
                    f"target configuration does not place running VM {vm_name!r}"
                )
            if current_state is VMState.WAITING:
                action: Action = Run(vm=vm_name, node=destination)
            elif current_state is VMState.SLEEPING:
                action = Resume(
                    vm=vm_name,
                    image_node=current.image_location_of(vm_name),
                    destination_node=destination,
                )
            elif current_state is VMState.RUNNING:
                origin = current.location_of(vm_name)
                if origin == destination:
                    continue
                action = Migrate(
                    vm=vm_name, source_node=origin, destination_node=destination
                )
            else:
                raise PlanningError(
                    f"VM {vm_name!r} is terminated and cannot run again"
                )
            yield Edge(action=action, demand=vm.demand)

        elif target_state is VMState.SLEEPING:
            if current_state is VMState.RUNNING:
                node = current.location_of(vm_name)
                yield Edge(
                    action=Suspend(vm=vm_name, node=node), demand=vm.demand
                )
            # Sleeping -> Sleeping and Waiting -> Sleeping: nothing to do
            # (a waiting VM cannot be suspended, the decision module keeps it
            # waiting instead).

        elif target_state is VMState.TERMINATED:
            if current_state is VMState.RUNNING:
                node = current.location_of(vm_name)
                yield Edge(action=Stop(vm=vm_name, node=node), demand=vm.demand)
            # Waiting/Sleeping VMs are removed without a driver action.

        elif target_state is VMState.WAITING:
            if current_state is VMState.RUNNING:
                # The life cycle (Figure 2) has no Running -> Waiting edge: a
                # running vjob can only be suspended or terminated.
                raise PlanningError(
                    f"VM {vm_name!r} is running and cannot return to the "
                    "Waiting state"
                )
            # Waiting/Sleeping VMs staying out of the Running state need no
            # driver action.
