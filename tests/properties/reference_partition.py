"""Reference (pre-PR-10) partitioner, retained as the differential oracle.

:func:`partition_reference` is the eager implementation of
:func:`repro.scale.partition.partition` exactly as it stood before the lazy
interference-graph rewrite: per-VM domains intersect *every* constraint in
the catalog, domains are welded with O(fleet) ordering comprehensions, and
:func:`_materialize_reference` scopes the catalog with per-zone set
intersections.  It is kept verbatim so the property suite next to it
(``test_partition_pinning.py``) can pin the lazy
partitioner's output — zone node sets, VM assignment, exactness flag, scoped
constraints — byte-identical to the historical answer on seeded constrained
fleets.

It lives with the tests because nothing in the shipped package may call it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.constraints.base import PlacementConstraint
from repro.model.configuration import Configuration
from repro.model.vm import VMState
from repro.scale.partition import (
    TIGHT_DOMAIN_FRACTION,
    PartitionResult,
    Zone,
    _anchor_node,
    _UnionFind,
    placed_vms,
)


def vm_domains_reference(
    current: Configuration,
    vms: Sequence[str],
    constraints: Sequence[PlacementConstraint],
) -> Dict[str, Optional[Set[str]]]:
    """Eager per-VM domains: every VM asks every constraint (O(VMs x
    constraints) — the pre-index behavior)."""
    node_names = current.node_names
    domains: Dict[str, Optional[Set[str]]] = {}
    for vm_name in vms:
        allowed: Optional[Set[str]] = None
        for constraint in constraints:
            restriction = constraint.allowed_nodes(vm_name, node_names, current)
            if restriction is None:
                continue
            allowed = (
                set(restriction) if allowed is None else allowed & restriction
            )
        domains[vm_name] = allowed
    return domains


def partition_reference(
    current: Configuration,
    target_states: Mapping[str, VMState],
    constraints: Sequence[PlacementConstraint] = (),
    shards: Optional[int] = None,
) -> PartitionResult:
    """The historical eager partitioner (see module docstring)."""
    node_names = list(current.node_names)
    placed = placed_vms(target_states)
    if len(placed) < 2 or len(node_names) < 2:
        return PartitionResult(zones=[], method="monolithic")

    domains = vm_domains_reference(current, placed, constraints)
    tight_cap = max(1, int(len(node_names) * TIGHT_DOMAIN_FRACTION))
    uf = _UnionFind(node_names)
    touched: Set[str] = set()

    tight: Dict[str, Set[str]] = {}
    welded: Set[frozenset] = set()
    for vm_name in placed:
        domain = domains[vm_name]
        if domain is not None and not domain:
            return PartitionResult(zones=[], method="monolithic")
        if domain is not None and len(domain) <= tight_cap:
            tight[vm_name] = domain
            key = frozenset(domain)
            if key not in welded:
                welded.add(key)
                ordered = [n for n in node_names if n in domain]
                uf.union_all(ordered)
                touched.update(ordered)

    coupled = False
    for constraint in constraints:
        if not constraint.relational:
            continue
        group: Set[str] = {
            node for node in getattr(constraint, "nodes", ()) if node in uf._parent
        }
        members = [vm for vm in constraint.vms if vm in domains]
        if len(members) < 2:
            members = []
        for vm_name in members:
            if vm_name not in tight:
                return PartitionResult(zones=[], method="monolithic")
            group |= tight[vm_name]
        if len(group) >= 2:
            ordered = [n for n in node_names if n in group]
            uf.union_all(ordered)
            touched.update(ordered)
            coupled = True
        elif group:
            touched.update(group)
            coupled = True

    constrained = bool(touched) or coupled
    if not constrained:
        return _shard_reference(
            current, placed, node_names, shards, domains, constraints
        )

    components: Dict[str, List[str]] = {}
    for node in node_names:
        if node not in touched:
            continue
        components.setdefault(uf.find(node), []).append(node)
    residual = [n for n in node_names if n not in touched]

    skeletons: List[List[str]] = sorted(
        components.values(), key=lambda nodes: node_names.index(nodes[0])
    )
    residual_index: Optional[int] = None
    if residual:
        skeletons.append(residual)
        residual_index = len(skeletons) - 1

    zone_of_node = {
        node: index for index, nodes in enumerate(skeletons) for node in nodes
    }
    zone_vms: List[List[str]] = [[] for _ in skeletons]
    headroom = [
        sum(current.node(n).capacity.memory for n in nodes)
        for nodes in skeletons
    ]

    for vm_name in placed:
        if vm_name in tight:
            index = zone_of_node[next(iter(tight[vm_name]))]
        else:
            domain = domains[vm_name]
            index = None
            anchor = _anchor_node(current, vm_name)
            if anchor is not None and (domain is None or anchor in domain):
                index = zone_of_node[anchor]
            if index is None and residual_index is not None:
                nodes = set(skeletons[residual_index])
                if domain is None or domain & nodes:
                    index = residual_index
            if index is None:
                candidates = [
                    i
                    for i, nodes in enumerate(skeletons)
                    if domain is None or domain & set(nodes)
                ]
                if not candidates:
                    return PartitionResult(zones=[], method="monolithic")
                index = max(candidates, key=lambda i: (headroom[i], -i))
        zone_vms[index].append(vm_name)
        headroom[index] -= current.vm(vm_name).memory

    zones = _materialize_reference(skeletons, zone_vms, constraints)
    if len(zones) < 2:
        return PartitionResult(zones=zones, method="monolithic")
    exact = all(vm_name in tight for vm_name in placed)
    return PartitionResult(zones=zones, method="interference", exact=exact)


def _shard_reference(
    current: Configuration,
    placed: Sequence[str],
    node_names: Sequence[str],
    shards: Optional[int],
    domains: Mapping[str, Optional[Set[str]]],
    constraints: Sequence[PlacementConstraint],
) -> PartitionResult:
    if shards is None or shards < 2:
        return PartitionResult(zones=[], method="monolithic")
    count = min(shards, len(node_names))
    base, extra = divmod(len(node_names), count)
    skeletons: List[List[str]] = []
    start = 0
    for index in range(count):
        width = base + (1 if index < extra else 0)
        skeletons.append(list(node_names[start : start + width]))
        start += width

    zone_of_node = {
        node: index for index, nodes in enumerate(skeletons) for node in nodes
    }
    zone_vms: List[List[str]] = [[] for _ in skeletons]
    headroom = [
        sum(current.node(n).capacity.memory for n in nodes)
        for nodes in skeletons
    ]
    shard_sets = [set(nodes) for nodes in skeletons]
    for vm_name in placed:
        domain = domains.get(vm_name)
        anchor = _anchor_node(current, vm_name)
        if anchor is not None and (domain is None or anchor in domain):
            index = zone_of_node[anchor]
        else:
            candidates = [
                i
                for i in range(count)
                if domain is None or domain & shard_sets[i]
            ]
            index = max(candidates, key=lambda i: (headroom[i], -i))
        zone_vms[index].append(vm_name)
        headroom[index] -= current.vm(vm_name).memory

    zones = _materialize_reference(skeletons, zone_vms, constraints)
    if len(zones) < 2:
        return PartitionResult(zones=zones, method="monolithic")
    return PartitionResult(zones=zones, method="sharded")


def _materialize_reference(
    skeletons: Sequence[Sequence[str]],
    zone_vms: Sequence[Sequence[str]],
    constraints: Sequence[PlacementConstraint],
) -> List[Zone]:
    zones: List[Zone] = []
    for nodes, vms in zip(skeletons, zone_vms):
        if not vms:
            continue
        vm_set, node_set = set(vms), set(nodes)
        scoped = tuple(
            c
            for c in constraints
            if (set(c.vms) & vm_set)
            or (set(getattr(c, "nodes", ())) & node_set)
        )
        zones.append(
            Zone(
                index=len(zones),
                nodes=tuple(nodes),
                vms=tuple(vms),
                constraints=scoped,
            )
        )
    return zones
