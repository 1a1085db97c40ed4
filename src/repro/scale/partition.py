"""Decomposing a cluster-wide context switch into independent placement zones.

The paper solves one *global* CP model per reconfiguration, which caps the
cluster size the control loop can handle inside its time budget.  This module
splits a :class:`~repro.model.configuration.Configuration` plus a
placement-constraint catalog into **zones** — disjoint node sets, each with
the VMs that must be placed on them — such that per-zone solutions compose
into a valid global placement *by construction*:

* every placed VM's candidate nodes lie inside exactly one zone, and
* the node sets of the zones are pairwise disjoint,

so per-zone bin packing equals global bin packing (no VM can cross a zone
boundary) and every relational constraint is confined to a single zone, where
the zone's own sub-model compiles and enforces it.

Two decomposition strategies are tried in order:

1. **Interference components** — connected components over the "interference
   graph": the *tight* placement domains induced by unary relations
   (``Fence`` node sets) anchor their nodes together, and every relational
   constraint (``Spread``, ``RunningCapacity`` — the catalog's
   :attr:`~repro.constraints.base.PlacementConstraint.relational` face)
   welds the domains of all its placed members (or its watched node set)
   into one component.  Nodes not touched by any constraint form a single
   *residual* zone.  VMs with loose domains (``Ban`` complements, fully free
   VMs) are assigned heuristically — preferring the zone of their current
   host so the zero-cost "stay" option survives, then the residual pool,
   then the zone with the most free capacity.
2. **k-way node sharding** — when no *tight* domain and no relational
   coupling structures the fleet, the node list is split into ``shards``
   contiguous slices and VMs anchor to the shard of their current host /
   suspend image (skipping shards their placement domain does not
   intersect).  Loose unary constraints (``Ban`` complements, wide
   ``Fence``\\ s) still restrict placement, so the catalog is scoped into
   every shard and each zone's sub-model keeps enforcing it.  Sharding is
   a heuristic restriction (cross-shard migrations are forbidden), traded
   for solving ``k`` small models instead of one large one.

When neither strategy yields at least two non-empty zones the result's
``method`` is ``"monolithic"`` and the caller should fall back to the global
:class:`~repro.core.optimizer.ContextSwitchOptimizer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..constraints.base import PlacementConstraint
from ..constraints.domains import vm_domains
from ..model.configuration import Configuration
from ..model.vm import VMState

#: A unary domain is *tight* (and therefore anchors its nodes into one zone)
#: when it covers at most this fraction of the fleet.  ``Ban`` complements
#: and other near-full domains stay *loose*: forcing their whole domain into
#: one zone would weld almost every node together and kill the partition.
TIGHT_DOMAIN_FRACTION = 0.5


def is_tight(domain: Optional[AbstractSet[str]], node_count: int) -> bool:
    """Whether a unary domain is *tight* on a fleet of ``node_count`` nodes:
    non-empty, and at most :data:`TIGHT_DOMAIN_FRACTION` of the nodes (at
    least one).  ``None`` (unrestricted) is not."""
    return bool(domain) and len(domain) <= max(
        1, int(node_count * TIGHT_DOMAIN_FRACTION)
    )


@dataclass(frozen=True)
class Zone:
    """One independent subproblem: a node set, the VMs to place on it, and
    the constraints confined to it.

    Zones produced by :func:`partition` have pairwise disjoint node sets and
    partition the placed VMs; ``constraints`` is the subset of the catalog
    that mentions at least one of the zone's VMs or nodes (relations never
    straddle zones — that is the partitioner's invariant).
    """

    index: int
    nodes: Tuple[str, ...]
    vms: Tuple[str, ...]
    constraints: Tuple[PlacementConstraint, ...] = ()

    def __repr__(self) -> str:
        return (
            f"Zone({self.index}: {len(self.nodes)} nodes, "
            f"{len(self.vms)} vms, {len(self.constraints)} constraints)"
        )


@dataclass
class PartitionResult:
    """Outcome of :func:`partition`.

    ``method`` is ``"interference"`` (constraint-induced components),
    ``"sharded"`` (the k-way fallback) or ``"monolithic"`` (no decomposition
    found — solve globally).

    ``exact`` is True only when the decomposition restricts *nothing*: every
    placed VM's full placement domain lies inside its zone, so per-zone
    optima compose into the global optimum.  Sharded partitions (and
    interference partitions where a loose-domain VM was heuristically
    anchored to a zone) are domain restrictions — their merged solution is
    valid but not provably optimal.
    """

    zones: List[Zone]
    method: str
    exact: bool = False

    @property
    def is_win(self) -> bool:
        """True when solving per zone beats the monolithic solve: at least
        two non-empty zones, so every sub-model is strictly smaller."""
        return len(self.zones) >= 2


class _UnionFind:
    """Union-find over node names (path compression, union by size)."""

    def __init__(self, items: Sequence[str]) -> None:
        self._parent: Dict[str, str] = {item: item for item in items}
        self._size: Dict[str, int] = {item: 1 for item in items}

    def find(self, item: str) -> str:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, left: str, right: str) -> None:
        left, right = self.find(left), self.find(right)
        if left == right:
            return
        if self._size[left] < self._size[right]:
            left, right = right, left
        self._parent[right] = left
        self._size[left] += self._size[right]

    def union_all(self, items: Sequence[str]) -> None:
        first = items[0]
        for item in items[1:]:
            self.union(first, item)


def placed_vms(target_states: Mapping[str, VMState]) -> List[str]:
    """The VMs the optimizer must place: those whose target state is
    RUNNING (declaration order preserved for determinism)."""
    running = VMState.RUNNING
    return [name for name, state in target_states.items() if state is running]


def _anchor_node(current: Configuration, vm_name: str) -> Optional[str]:
    """The node whose zone keeps the VM's cheapest placement available: its
    current host (running) or its suspend image's host (sleeping)."""
    state = current.state_of(vm_name)
    if state is VMState.RUNNING:
        return current.location_of(vm_name)
    if state is VMState.SLEEPING:
        return current.image_location_of(vm_name)
    return None


def partition(
    current: Configuration,
    target_states: Mapping[str, VMState],
    constraints: Sequence[PlacementConstraint] = (),
    shards: Optional[int] = None,
    domains: Optional[Mapping[str, Optional[AbstractSet[str]]]] = None,
) -> PartitionResult:
    """Split a context-switch instance into independent placement zones.

    ``target_states`` must be *complete* (one entry per VM — the caller
    normally derives it with the optimizer's ``keepVMState`` completion);
    ``shards`` enables the k-way fallback when no constraint structures the
    fleet; ``domains`` are the unary domains of (at least) the placed VMs,
    for a caller that already holds them.  See the module docstring for the
    decomposition rules.
    """
    node_names = list(current.node_names)
    placed = placed_vms(target_states)
    if len(placed) < 2 or len(node_names) < 2:
        return PartitionResult(zones=[], method="monolithic")

    if domains is None:
        domains = vm_domains(current, placed, constraints)
    uf = _UnionFind(node_names)
    touched: Set[str] = set()
    # Registration position of every node, so domains weld in O(d log d)
    # instead of an O(fleet) ordering scan per domain.
    node_pos = {name: index for index, name in enumerate(node_names)}

    # Tight unary domains anchor their nodes together: the VM may need any
    # of them, so they must end up in a single zone.  Whole groups share one
    # domain object-for-object (a Fence restricts every member identically),
    # so each domain object is judged once and identical domains are only
    # welded once.
    tight: Dict[str, AbstractSet[str]] = {}
    verdicts: Dict[int, bool] = {}
    welded: Set[frozenset] = set()
    for vm_name in placed:
        domain = domains[vm_name]
        verdict = verdicts.get(id(domain))
        if verdict is None:
            if domain is not None and not domain:
                return PartitionResult(zones=[], method="monolithic")
            verdict = verdicts[id(domain)] = is_tight(domain, len(node_names))
            if verdict and (key := frozenset(domain)) not in welded:
                welded.add(key)
                ordered = sorted(domain, key=node_pos.__getitem__)
                uf.union_all(ordered)
                touched.update(ordered)
        if verdict:
            tight[vm_name] = domain

    # Relational constraints weld the domains of all their placed members
    # (or their watched node set) into one component; a VM group couples
    # nothing until two of its members are placed.
    coupled = False
    placed_set = set(placed) if any(c.relational for c in constraints) else set()
    for constraint in constraints:
        if not constraint.relational:
            continue
        group: Set[str] = {
            node for node in getattr(constraint, "nodes", ()) if node in uf._parent
        }
        members = [vm for vm in constraint.vms if vm in placed_set]
        if len(members) < 2:
            members = []
        for vm_name in members:
            if vm_name not in tight:
                # It couples a VM whose domain is unrestricted.
                return PartitionResult(zones=[], method="monolithic")
            group |= tight[vm_name]
        if len(group) >= 2:
            ordered = sorted(group, key=node_pos.__getitem__)
            uf.union_all(ordered)
            touched.update(ordered)
            coupled = True
        elif group:
            touched.update(group)
            coupled = True

    constrained = bool(touched) or coupled
    if not constrained:
        return _shard(current, placed, node_names, shards, domains, constraints)

    # Components over the touched nodes; everything untouched pools into a
    # single residual zone.
    components: Dict[str, List[str]] = {}
    for node in sorted(touched, key=node_pos.__getitem__):
        components.setdefault(uf.find(node), []).append(node)
    residual = [n for n in node_names if n not in touched]

    # Zone skeletons in deterministic order (first node appearance).
    skeletons: List[List[str]] = sorted(
        components.values(), key=lambda nodes: node_pos[nodes[0]]
    )
    residual_index: Optional[int] = None
    if residual:
        skeletons.append(residual)
        residual_index = len(skeletons) - 1

    zone_of_node = {
        node: index for index, nodes in enumerate(skeletons) for node in nodes
    }
    zone_sets = [set(nodes) for nodes in skeletons]
    zone_vms: List[List[str]] = [[] for _ in skeletons]
    headroom = [
        sum(current.node(n).capacity.memory for n in nodes)
        for nodes in skeletons
    ]

    for vm_name in placed:
        if vm_name in tight:
            index = zone_of_node[next(iter(tight[vm_name]))]
        else:
            domain = domains[vm_name]  # None or a loose restriction
            index = None
            anchor = _anchor_node(current, vm_name)
            if anchor is not None and (domain is None or anchor in domain):
                index = zone_of_node[anchor]
            if index is None and residual_index is not None:
                if domain is None or domain & zone_sets[residual_index]:
                    index = residual_index
            if index is None:
                # Most-headroom zone whose nodes intersect the domain.
                candidates = [
                    i
                    for i in range(len(skeletons))
                    if domain is None or domain & zone_sets[i]
                ]
                if not candidates:
                    # A loose domain straddles the components.
                    return PartitionResult(zones=[], method="monolithic")
                index = max(candidates, key=lambda i: (headroom[i], -i))
        zone_vms[index].append(vm_name)
        headroom[index] -= current.vm(vm_name).memory

    zones = _materialize(skeletons, zone_vms, constraints)
    if len(zones) < 2:
        return PartitionResult(zones=zones, method="monolithic")
    # Exact only when nothing was restricted: every placed VM is tight, so
    # its whole domain lies inside its zone and per-zone optima compose into
    # the global optimum.  A heuristically anchored loose VM is a domain
    # restriction — the merged solution stays valid but loses optimality.
    exact = all(vm_name in tight for vm_name in placed)
    return PartitionResult(zones=zones, method="interference", exact=exact)


def _shard(
    current: Configuration,
    placed: Sequence[str],
    node_names: Sequence[str],
    shards: Optional[int],
    domains: Mapping[str, Optional[AbstractSet[str]]],
    constraints: Sequence[PlacementConstraint],
) -> PartitionResult:
    """k-way node-sharding fallback for fleets without tight structure.

    Loose unary constraints (``Ban`` complements, wide ``Fence``\\ s) still
    restrict placement even though they never weld zones: VMs only anchor to
    shards their domain intersects, and the catalog is scoped into every
    shard so each zone's sub-model keeps enforcing it.  Sharding is never
    *exact* — cross-shard migrations are forbidden by construction.
    """
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
            # Most-headroom shard whose nodes intersect the domain; a
            # non-empty domain always intersects some shard (the shards
            # cover the whole fleet).
            candidates = [
                i
                for i in range(count)
                if domain is None or domain & shard_sets[i]
            ]
            index = max(candidates, key=lambda i: (headroom[i], -i))
        zone_vms[index].append(vm_name)
        headroom[index] -= current.vm(vm_name).memory

    zones = _materialize(skeletons, zone_vms, constraints)
    if len(zones) < 2:
        return PartitionResult(zones=zones, method="monolithic")
    return PartitionResult(zones=zones, method="sharded")


def _materialize(
    skeletons: Sequence[Sequence[str]],
    zone_vms: Sequence[Sequence[str]],
    constraints: Sequence[PlacementConstraint],
) -> List[Zone]:
    """Build the final zones, dropping empty ones and scoping the catalog:
    a constraint lands in every zone containing one of its VMs or nodes.

    Scoping routes each constraint through per-VM / per-node zone maps —
    O(total memberships + zones) — instead of intersecting every constraint's
    member set against every zone.  Per-zone constraint order stays catalog
    order, so the scoped tuples are byte-identical to the eager reference."""
    kept = [
        (nodes, vms) for nodes, vms in zip(skeletons, zone_vms) if vms
    ]
    zone_of_vm = {
        vm: index for index, (_, vms) in enumerate(kept) for vm in vms
    }
    zone_of_node = {
        node: index for index, (nodes, _) in enumerate(kept) for node in nodes
    }
    scoped: List[List[PlacementConstraint]] = [[] for _ in kept]
    for constraint in constraints:
        hit = {
            zone_of_vm[vm] for vm in constraint.vms if vm in zone_of_vm
        }
        hit.update(
            zone_of_node[node]
            for node in getattr(constraint, "nodes", ())
            if node in zone_of_node
        )
        for index in sorted(hit):
            scoped[index].append(constraint)
    return [
        Zone(
            index=index,
            nodes=tuple(nodes),
            vms=tuple(vms),
            constraints=tuple(scoped[index]),
        )
        for index, (nodes, vms) in enumerate(kept)
    ]
