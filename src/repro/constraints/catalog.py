"""The declarative placement-constraint catalog.

Nine relations cover the operational vocabulary the Entropy / BtrPlace line
of work exposes to users, each constraining where the *running* VMs may be
hosted (sleeping, waiting and terminated VMs are never restricted):

* :class:`Spread` — pairwise distinct hosts (high availability);
* :class:`Gather` — one shared host (latency / page sharing);
* :class:`Ban` — a node set the VMs must avoid (maintenance);
* :class:`Fence` — a node set the VMs may not leave (licensing, zones);
* :class:`Among` — the whole group inside a single one of several node
  groups (keep a vjob within one rack / fault domain);
* :class:`Root` — running VMs may not be migrated (pinned services);
* :class:`MaxOnline` — at most ``maximum`` nodes of a set may host anything
  (power budget, hot spares kept idle);
* :class:`RunningCapacity` — at most ``maximum`` VMs running on a node set
  (license counting, blast-radius caps);
* :class:`Lonely` — the group's hosts are exclusive: no outside VM may share
  them (noisy-neighbour / security isolation).

Every relation implements the three faces documented in
:mod:`repro.constraints.base`: CP compilation, configuration/plan checking
and the node-failure repair hook; the relational ones add the greedy
candidate filter the heuristic packers probe with.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .base import NodeSetConstraint, PlacementConstraint, VMGroupConstraint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cp.constraints import Constraint as CPConstraint
    from ..cp.variables import IntVar
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


def _involved(
    vms: Sequence[str], variables: Mapping[str, "IntVar"]
) -> List["IntVar"]:
    """Assignment variables of the group's VMs that are part of the model
    (VMs that are not being placed have no variable)."""
    return [variables[vm] for vm in vms if vm in variables]


class Spread(VMGroupConstraint):
    """The running VMs of the group are hosted on pairwise distinct nodes.

    ``collocation_nodes`` (optional) lists nodes where collocation remains
    acceptable — e.g. a chassis with internal redundancy — compiled into an
    :class:`~repro.cp.constraints.AllDifferentExcept` propagator.
    """

    relational = True

    def __init__(self, vms: Iterable[str], collocation_nodes: Iterable[str] = ()):
        super().__init__(vms)
        self.collocation_nodes: frozenset[str] = frozenset(collocation_nodes)

    def cp_constraints(
        self,
        variables: Mapping[str, "IntVar"],
        node_index: Mapping[str, int],
    ) -> List[CPConstraint]:
        involved = _involved(self.vms, variables)
        if len(involved) < 2:
            return []
        cp = _cp()
        if self.collocation_nodes:
            excepted = {
                node_index[name]
                for name in self.collocation_nodes
                if name in node_index
            }
            return [cp.AllDifferentExcept(involved, excepted)]
        if len(involved) == 2:
            return [cp.NotEqual(involved[0], involved[1])]
        return [cp.AllDifferent(involved)]

    def is_satisfied_by(self, configuration: "Configuration") -> bool:
        locations = [
            node
            for node in self._running_locations(configuration)
            if node not in self.collocation_nodes
        ]
        return len(locations) == len(set(locations))

    def explain(self, configuration: "Configuration") -> Optional[str]:
        locations = [
            node
            for node in self._running_locations(configuration)
            if node not in self.collocation_nodes
        ]
        shared = sorted({n for n in locations if locations.count(n) > 1})
        if not shared:
            return None
        return f"{self.label}: nodes {shared} host several group VMs"

    def allows(
        self,
        vm_name: str,
        node_name: str,
        trial: "Configuration",
    ) -> bool:
        if vm_name not in self.vm_set or node_name in self.collocation_nodes:
            return True
        for other in self.vms:
            if other == vm_name or not trial.has_vm(other):
                continue
            if trial.location_of(other) == node_name:
                return False
        return True


class Gather(VMGroupConstraint):
    """The running VMs of the group share a single hosting node."""

    relational = True

    def cp_constraints(
        self,
        variables: Mapping[str, "IntVar"],
        node_index: Mapping[str, int],
    ) -> List[CPConstraint]:
        involved = _involved(self.vms, variables)
        if len(involved) < 2:
            return []
        return [_cp().AllEqual(involved)]

    def is_satisfied_by(self, configuration: "Configuration") -> bool:
        return len(set(self._running_locations(configuration))) <= 1

    def explain(self, configuration: "Configuration") -> Optional[str]:
        locations = sorted(set(self._running_locations(configuration)))
        if len(locations) <= 1:
            return None
        return f"{self.label}: group scattered over nodes {locations}"

    def allows(
        self,
        vm_name: str,
        node_name: str,
        trial: "Configuration",
    ) -> bool:
        if vm_name not in self.vm_set:
            return True
        for other in self.vms:
            if other == vm_name or not trial.has_vm(other):
                continue
            location = trial.location_of(other)
            if location is not None and location != node_name:
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
    ) -> Optional[Set[str]]:
        if vm_name not in self.vm_set:
            return None
        return {n for n in node_names if n not in self.nodes}

    def is_satisfied_by(self, configuration: "Configuration") -> bool:
        return not any(
            node in self.nodes for node in self._running_locations(configuration)
        )

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
    ) -> Optional[Set[str]]:
        if vm_name not in self.vm_set:
            return None
        return {n for n in node_names if n in self.nodes}

    def is_satisfied_by(self, configuration: "Configuration") -> bool:
        return all(
            node in self.nodes for node in self._running_locations(configuration)
        )

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


class Among(VMGroupConstraint):
    """The running VMs of the group stay within a *single* one of the given
    node groups (e.g. one rack, one fault domain — whichever, but together)."""

    relational = True
    uniform_restriction = True

    def __init__(self, vms: Iterable[str], groups: Sequence[Iterable[str]]):
        super().__init__(vms)
        self.groups: Tuple[frozenset[str], ...] = tuple(
            frozenset(group) for group in groups
        )
        if not self.groups:
            raise ValueError("Among requires at least one node group")
        if any(not group for group in self.groups):
            raise ValueError("Among groups must be non-empty")

    def allowed_nodes(
        self,
        vm_name: str,
        node_names: Sequence[str],
        configuration: Optional["Configuration"] = None,
    ) -> Optional[Set[str]]:
        if vm_name not in self.vm_set:
            return None
        union: Set[str] = set()
        for group in self.groups:
            union |= group
        return {n for n in node_names if n in union}

    def cp_constraints(
        self,
        variables: Mapping[str, "IntVar"],
        node_index: Mapping[str, int],
    ) -> List[CPConstraint]:
        involved = _involved(self.vms, variables)
        if len(involved) < 2:
            return []
        mapped = [
            {node_index[name] for name in group if name in node_index}
            for group in self.groups
        ]
        mapped = [group for group in mapped if group]
        if len(mapped) < 2:
            # Zero or one live group: the unary union restriction already
            # captures the whole relation.
            return []
        return [_cp().Among(involved, mapped)]

    def is_satisfied_by(self, configuration: "Configuration") -> bool:
        locations = set(self._running_locations(configuration))
        if not locations:
            return True
        return any(locations <= group for group in self.groups)

    def explain(self, configuration: "Configuration") -> Optional[str]:
        if self.is_satisfied_by(configuration):
            return None
        locations = sorted(set(self._running_locations(configuration)))
        return f"{self.label}: hosts {locations} straddle the node groups"

    def allows(
        self,
        vm_name: str,
        node_name: str,
        trial: "Configuration",
    ) -> bool:
        if vm_name not in self.vm_set:
            return True
        placed = {
            trial.location_of(other)
            for other in self.vms
            if other != vm_name and trial.has_vm(other)
        }
        placed.discard(None)
        needed = {node_name, *placed}
        return any(needed <= group for group in self.groups)

    def __repr__(self) -> str:
        rendered = " / ".join(
            "{" + ", ".join(sorted(group)) + "}" for group in self.groups
        )
        return f"Among({', '.join(self.vms)} | {rendered})"


class Root(VMGroupConstraint):
    """The running VMs of the group may not be migrated: each stays on the
    node hosting it when planning starts.

    The relation is *stateful*: a standalone configuration can never violate
    it, but a plan (or a live run) does as soon as a pinned VM changes host
    while running.  A VM knocked back to Waiting by a crash is free to boot
    anywhere — the pin re-attaches to its new host, which is exactly the
    repair behaviour fault-driven replanning needs.
    """

    def allowed_nodes(
        self,
        vm_name: str,
        node_names: Sequence[str],
        configuration: Optional["Configuration"] = None,
    ) -> Optional[Set[str]]:
        if configuration is None or vm_name not in self.vm_set:
            return None
        if not configuration.has_vm(vm_name):
            return None
        location = configuration.location_of(vm_name)
        if location is None:
            return None
        return {location}

    def is_satisfied_by(self, configuration: "Configuration") -> bool:
        return True

    def is_transition_satisfied(
        self, reference: "Configuration", state: "Configuration"
    ) -> bool:
        return not self._moved(reference, state)

    def explain_transition(
        self, reference: "Configuration", state: "Configuration"
    ) -> Optional[str]:
        moved = self._moved(reference, state)
        if not moved:
            return None
        return f"{self.label}: pinned VMs {moved} were migrated"

    def _moved(
        self, reference: "Configuration", state: "Configuration"
    ) -> List[str]:
        moved = []
        for vm_name in self.vms:
            if not (reference.has_vm(vm_name) and state.has_vm(vm_name)):
                continue
            before = reference.location_of(vm_name)
            after = state.location_of(vm_name)
            if before is not None and after is not None and before != after:
                moved.append(vm_name)
        return moved


class MaxOnline(NodeSetConstraint):
    """At most ``maximum`` nodes of the set may host running VMs; the others
    must stay empty (power capping, hot spares kept genuinely idle)."""

    relational = True

    def __init__(self, nodes: Iterable[str], maximum: int):
        super().__init__(nodes)
        if maximum < 0:
            raise ValueError("MaxOnline needs a non-negative maximum")
        self.maximum = maximum

    def cp_constraints(
        self,
        variables: Mapping[str, "IntVar"],
        node_index: Mapping[str, int],
    ) -> List[CPConstraint]:
        everyone = list(variables.values())
        watched = {node_index[n] for n in self.nodes if n in node_index}
        if not everyone or not watched:
            return []
        return [_cp().UsedValuesAtMost(everyone, watched, self.maximum)]

    def _used_nodes(
        self, configuration: "Configuration", ignoring: Optional[str] = None
    ) -> Set[str]:
        """Watched nodes currently hosting running VMs (``ignoring`` skips
        one VM's own contribution — a re-placement probe must not count the
        very VM being moved)."""
        return {
            node
            for vm, node in configuration.iter_placement()
            if node in self.nodes and vm != ignoring
        }

    def is_satisfied_by(self, configuration: "Configuration") -> bool:
        return len(self._used_nodes(configuration)) <= self.maximum

    def explain(self, configuration: "Configuration") -> Optional[str]:
        used = self._used_nodes(configuration)
        if len(used) <= self.maximum:
            return None
        return (
            f"{self.label}: {len(used)} nodes of the set are hosting VMs "
            f"({sorted(used)}), maximum is {self.maximum}"
        )

    def allows(
        self,
        vm_name: str,
        node_name: str,
        trial: "Configuration",
    ) -> bool:
        if node_name not in self.nodes:
            return True
        used = self._used_nodes(trial, ignoring=vm_name)
        return node_name in used or len(used) < self.maximum

    def __repr__(self) -> str:
        return (
            f"MaxOnline({', '.join(self._sorted_nodes())} <= {self.maximum})"
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
    ) -> List[CPConstraint]:
        everyone = list(variables.values())
        watched = {node_index[n] for n in self.nodes if n in node_index}
        if not everyone or not watched:
            return []
        return [_cp().CountInValuesAtMost(everyone, watched, self.maximum)]

    def _running_count(
        self, configuration: "Configuration", ignoring: Optional[str] = None
    ) -> int:
        """Running VMs hosted on the watched set (``ignoring`` skips one
        VM's own contribution — see :meth:`MaxOnline._used_nodes`)."""
        return sum(
            1
            for vm, node in configuration.iter_placement()
            if node in self.nodes and vm != ignoring
        )

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
        trial: "Configuration",
    ) -> bool:
        if node_name not in self.nodes:
            return True
        return self._running_count(trial, ignoring=vm_name) < self.maximum

    def __repr__(self) -> str:
        return (
            f"RunningCapacity({', '.join(self._sorted_nodes())} "
            f"<= {self.maximum})"
        )


class Lonely(VMGroupConstraint):
    """The group's hosting nodes are exclusive: no VM outside the group may
    run on a node hosting a group VM (noisy-neighbour / security isolation)."""

    relational = True
    relational_min_members = 1

    def cp_constraints(
        self,
        variables: Mapping[str, "IntVar"],
        node_index: Mapping[str, int],
    ) -> List[CPConstraint]:
        inside = _involved(self.vms, variables)
        members = set(self.vms)
        outside = [var for vm, var in variables.items() if vm not in members]
        if not inside or not outside:
            return []
        return [_cp().DisjointValues(inside, outside)]

    def _shared_nodes(self, configuration: "Configuration") -> Set[str]:
        members = set(self.vms)
        group_nodes = set(self._running_locations(configuration))
        other_nodes = {
            node
            for vm, node in configuration.iter_placement()
            if vm not in members
        }
        return group_nodes & other_nodes

    def is_satisfied_by(self, configuration: "Configuration") -> bool:
        return not self._shared_nodes(configuration)

    def explain(self, configuration: "Configuration") -> Optional[str]:
        shared = self._shared_nodes(configuration)
        if not shared:
            return None
        return (
            f"{self.label}: nodes {sorted(shared)} host both group and "
            "outside VMs"
        )

    def allows(
        self,
        vm_name: str,
        node_name: str,
        trial: "Configuration",
    ) -> bool:
        members = set(self.vms)
        hosted = {
            vm for vm, node in trial.iter_placement() if node == node_name
        }
        if vm_name in members:
            return all(vm in members for vm in hosted)
        return not (hosted & members)
