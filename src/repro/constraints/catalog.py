"""The declarative placement-constraint catalog.

Four relations from the operational vocabulary the Entropy / BtrPlace line
of work exposes to users, each constraining where the *running* VMs may be
hosted (sleeping, waiting and terminated VMs are never restricted):

* :class:`Spread` — pairwise distinct hosts (high availability);
* :class:`Ban` — a node set the VMs must avoid (maintenance);
* :class:`Fence` — a node set the VMs may not leave (licensing, zones);
* :class:`RunningCapacity` — at most ``maximum`` VMs running on a node set
  (license counting, blast-radius caps).

Every relation implements the three faces documented in
:mod:`repro.constraints.base`: CP compilation, configuration/plan checking
and the node-failure repair hook; the relational ones add the greedy
candidate filter the heuristic packers probe with.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Any, Iterable, Mapping, Optional, Sequence

from .base import NodeSetConstraint, PlacementConstraint, VMGroupConstraint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cp.constraints import Constraint as CPConstraint
    from ..cp.variables import IntVar
    from ..decision.ffd import PackingTrial
    from ..model.configuration import Configuration


def _cp() -> Any:
    """The CP propagator module, imported on first *compilation*.

    The import is deferred so the catalog's checker face — the one the
    standalone verifier (:mod:`repro.instances.verifier`) and the plan
    checker rely on — never loads the solver: only building a CP model
    (``cp_constraints``) pays for it, and Python caches the module after
    the first call.
    """
    from ..cp import constraints as cp_constraints

    return cp_constraints


class Spread(VMGroupConstraint):
    """The running VMs of the group are hosted on pairwise distinct nodes.

    ``collocation_nodes`` (optional) lists nodes where collocation remains
    acceptable — e.g. a chassis with internal redundancy — the exceptions
    of its :class:`~repro.cp.constraints.AllDifferent` propagator.
    """

    relational = True

    def __init__(self, vms: Iterable[str], collocation_nodes: Iterable[str] = ()):
        super().__init__(vms)
        self.collocation_nodes: frozenset[str] = frozenset(collocation_nodes)

    def cp_constraints(
        self,
        variables: Mapping[str, "IntVar"],
        node_index: Mapping[str, int],
    ) -> list[CPConstraint]:
        # VMs that are not being placed have no variable.
        involved = [variables[vm] for vm in self.vms if vm in variables]
        if len(involved) < 2:
            return []
        cp = _cp()
        if self.collocation_nodes:
            excepted = {
                node_index[name]
                for name in self.collocation_nodes
                if name in node_index
            }
            return [cp.AllDifferent(involved, excepted)]
        if len(involved) == 2:
            return [cp.NotEqual(involved[0], involved[1])]
        return [cp.AllDifferent(involved)]

    def _exposed(self, configuration: "Configuration", vms: Iterable[str]) -> list[str]:
        """Hosts of the running VMs among ``vms`` where collocation counts."""
        return [
            node
            for node in configuration.hosts_of(vms)
            if node not in self.collocation_nodes
        ]

    def residual(
        self, current: "Configuration", moving: AbstractSet[str]
    ) -> Optional[PlacementConstraint]:
        # The group is moved whole or not at all: it asks nothing new of the
        # moved members, and the staying ones must already be spread.
        locations = self._exposed(current, (vm for vm in self.vms if vm not in moving))
        return self if len(locations) == len(set(locations)) else None

    def is_satisfied_by(self, configuration: "Configuration") -> bool:
        locations = self._exposed(configuration, self.vms)
        return len(locations) == len(set(locations))

    def explain(self, configuration: "Configuration") -> Optional[str]:
        locations = self._exposed(configuration, self.vms)
        shared = sorted({n for n in locations if locations.count(n) > 1})
        if not shared:
            return None
        return f"{self.label}: nodes {shared} host several group VMs"

    def allows(
        self,
        vm_name: str,
        node_name: str,
        trial: "PackingTrial",
    ) -> bool:
        if vm_name not in self.vm_set or node_name in self.collocation_nodes:
            return True
        for other in self.vms:
            if other == vm_name or not trial.has_vm(other):
                continue
            if trial.location_of(other) == node_name:
                return False
        return True


class Ban(VMGroupConstraint):
    """The VMs of the group may never run on the banned nodes."""

    uniform_restriction = True

    def __init__(self, vms: Iterable[str], nodes: Iterable[str]):
        super().__init__(vms)
        self.nodes: frozenset[str] = frozenset(nodes)
        if not self.nodes:
            raise ValueError("Ban requires at least one node")

    def allowed_nodes(
        self,
        vm_name: str,
        node_names: Sequence[str],
        configuration: Optional["Configuration"] = None,
    ) -> Optional[set[str]]:
        if vm_name not in self.vm_set:
            return None
        return {n for n in node_names if n not in self.nodes}

    def is_satisfied_by(self, configuration: "Configuration") -> bool:
        return self.nodes.isdisjoint(self._running_locations(configuration))

    def explain(self, configuration: "Configuration") -> Optional[str]:
        offending = sorted(
            {
                node
                for node in self._running_locations(configuration)
                if node in self.nodes
            }
        )
        if not offending:
            return None
        return f"{self.label}: banned nodes {offending} host group VMs"

    def __repr__(self) -> str:
        return (
            f"Ban({', '.join(self.vms)} | {', '.join(sorted(self.nodes))})"
        )


class Fence(VMGroupConstraint):
    """The VMs of the group may only run inside the given node set.

    ``elastic=True`` opts into availability-over-intent repair: when a fence
    node dies, the surviving fence nodes take over, and when the whole fence
    is gone the constraint retires so the VMs can restart anywhere.  The
    default (strict) fence keeps its dead nodes — the VMs stay unplaceable
    until the fence is repaired, which is the conservative reading of the
    operator's intent.
    """

    uniform_restriction = True

    def __init__(self, vms: Iterable[str], nodes: Iterable[str], elastic: bool = False):
        super().__init__(vms)
        self.nodes: frozenset[str] = frozenset(nodes)
        if not self.nodes:
            raise ValueError("Fence requires at least one node")
        self.elastic = elastic

    def allowed_nodes(
        self,
        vm_name: str,
        node_names: Sequence[str],
        configuration: Optional["Configuration"] = None,
    ) -> Optional[set[str]]:
        if vm_name not in self.vm_set:
            return None
        return {n for n in node_names if n in self.nodes}

    def is_satisfied_by(self, configuration: "Configuration") -> bool:
        return self.nodes.issuperset(self._running_locations(configuration))

    def explain(self, configuration: "Configuration") -> Optional[str]:
        outside = sorted(
            {
                node
                for node in self._running_locations(configuration)
                if node not in self.nodes
            }
        )
        if not outside:
            return None
        return f"{self.label}: group VMs escaped to nodes {outside}"

    def on_node_failure(self, node_name: str) -> Optional[PlacementConstraint]:
        if not self.elastic or node_name not in self.nodes:
            return self
        survivors = self.nodes - {node_name}
        if not survivors:
            return None
        return Fence(self.vms, survivors, elastic=True)

    def __repr__(self) -> str:
        return (
            f"Fence({', '.join(self.vms)} | {', '.join(sorted(self.nodes))})"
        )


class RunningCapacity(NodeSetConstraint):
    """At most ``maximum`` VMs may run on the node set overall (license
    seats, blast-radius caps)."""

    relational = True

    def __init__(self, nodes: Iterable[str], maximum: int):
        super().__init__(nodes)
        if maximum < 0:
            raise ValueError("RunningCapacity needs a non-negative maximum")
        self.maximum = maximum

    def cp_constraints(
        self,
        variables: Mapping[str, "IntVar"],
        node_index: Mapping[str, int],
    ) -> list[CPConstraint]:
        everyone = list(variables.values())
        watched = {node_index[n] for n in self.nodes if n in node_index}
        if not everyone or not watched:
            return []
        return [_cp().CountInValuesAtMost(everyone, watched, self.maximum)]

    def _running_count(
        self, configuration: "Configuration", ignoring: AbstractSet[str] = frozenset()
    ) -> int:
        """Running VMs hosted on the watched set, read from the watched
        nodes' residents (``ignoring`` skips the VMs being moved)."""
        return sum(
            vm not in ignoring
            for node in self.nodes
            if configuration.has_node(node)
            for vm in configuration.vms_on(node)
        )

    def residual(
        self, current: "Configuration", moving: AbstractSet[str]
    ) -> Optional[PlacementConstraint]:
        # The compile counts every placed VM: the stayers take their seats
        # out of the bound.
        room = self.maximum - self._running_count(current, ignoring=moving)
        return None if room < 0 else RunningCapacity(self.nodes, room)

    def is_satisfied_by(self, configuration: "Configuration") -> bool:
        return self._running_count(configuration) <= self.maximum

    def explain(self, configuration: "Configuration") -> Optional[str]:
        count = self._running_count(configuration)
        if count <= self.maximum:
            return None
        return (
            f"{self.label}: {count} VMs run on the node set, "
            f"maximum is {self.maximum}"
        )

    def allows(
        self,
        vm_name: str,
        node_name: str,
        trial: "PackingTrial",
    ) -> bool:
        if node_name not in self.nodes:
            return True
        return self._running_count(trial, ignoring={vm_name}) < self.maximum

    def __repr__(self) -> str:
        return (
            f"RunningCapacity({', '.join(self._sorted_nodes())} "
            f"<= {self.maximum})"
        )
