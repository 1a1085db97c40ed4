"""The unary placement domain of a VM: which nodes may host it.

One function answers that question for every layer a round runs — the
greedy packers of the decision modules
(:mod:`repro.constraints.filtering`), the CP model builder
(:mod:`repro.core.optimizer`), the partitioner
(:mod:`repro.scale.partition`) and the repair engine's dirty rule
(:mod:`repro.repair.engine`) — so the catalog's
:meth:`~repro.constraints.base.PlacementConstraint.allowed_nodes` face is
asked from this module only (plus the eager oracle retained in
``tests/properties/reference_partition.py``).

:class:`RetainedDomains` keeps those answers from one round to the next for
as long as they provably cannot change: the same constraint objects over the
same node descriptions, every one of them restricting its members the same
way whatever the placement (:attr:`uniform_restriction`, or no
``allowed_nodes`` of its own).  Anything else — a restriction that reads the
current host — is asked afresh every call, as :func:`vm_domains` always
does.  Every structure retained beside the domains keys on the generation
its :meth:`~RetainedDomains.key` returns.
"""

from __future__ import annotations

from itertools import filterfalse, repeat
from operator import is_
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Collection,
    Dict,
    Iterable,
    Optional,
    Sequence,
    Tuple,
)

from .base import PlacementConstraint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model.configuration import Configuration
    from ..model.node import Node


def vm_domains(
    current: "Configuration",
    vms: Iterable[str],
    constraints: Sequence[PlacementConstraint],
) -> Dict[str, Optional[AbstractSet[str]]]:
    """The unary placement domain of every VM in ``vms``, keyed in ``vms``
    order: the intersection of each constraint's ``allowed_nodes``, or
    ``None`` when unrestricted.

    One pass per constraint, in catalog order: a constraint that declares
    members is asked for those of them in ``vms`` only — the catalog
    contract is that it restricts nobody else (every
    :class:`~repro.constraints.base.VMGroupConstraint` gates on ``vm_set``)
    — and a member-less one (``RunningCapacity``, a custom quarantine) for
    every VM.  A restriction that is the same for every member
    (:attr:`~repro.constraints.base.PlacementConstraint.uniform_restriction`)
    is asked once per call, and the VMs it alone restricts share that one
    frozen set.  Callers must treat the returned domains as read-only
    (every caller only ever reads them).  A restriction is free to name
    nodes that are not in ``current.node_names``, so "no node left" is
    decided on the domain a caller builds from it, not on the emptiness of
    the set."""
    domains: Dict[str, Optional[AbstractSet[str]]] = dict.fromkeys(vms)
    node_names = current.node_names
    for constraint in constraints:
        asked: Collection[str] = domains
        if constraint.vms:
            asked = domains.keys() & getattr(constraint, "vm_set", constraint.vms)
        if not asked:
            continue
        if constraint.uniform_restriction:
            computed = constraint.allowed_nodes(
                next(iter(asked)), node_names, current
            )
            if computed is None:
                continue
            shared = frozenset(computed)
            restrictions: Iterable[Optional[AbstractSet[str]]] = repeat(shared)
        else:
            restrictions = (
                constraint.allowed_nodes(vm_name, node_names, current)
                for vm_name in asked
            )
        for vm_name, restriction in zip(asked, restrictions):
            if restriction is None:
                continue
            allowed = domains[vm_name]
            domains[vm_name] = (
                restriction if allowed is None else allowed & restriction
            )
    return domains


def _reads_no_placement(constraint: PlacementConstraint) -> bool:
    """True when the constraint's unary restriction is a function of the
    constraint and the node names alone: it says so
    (:attr:`~repro.constraints.base.PlacementConstraint.uniform_restriction`)
    or it restricts nobody (the inherited, neutral ``allowed_nodes``)."""
    return (
        constraint.uniform_restriction
        or type(constraint).allowed_nodes is PlacementConstraint.allowed_nodes
    )


class RetainedDomains:
    """The answers of :func:`vm_domains`, kept while they cannot change.

    One key, derived in one place (:meth:`key`): the constraint *objects*
    (identity: a repaired ``Fence`` is a new object), the node descriptions
    (a capacity change counts), and every constraint reading no placement.
    :attr:`generation` is replaced whenever the key changes, so whatever is
    derived from the same inputs — the RJSP selection's trial, the
    partitioner's zones, the repair engine's change-journal mark — keeps
    the generation next to it and knows it stale by identity.  A control
    loop has one, the switch's, which its policy reads too.  Nothing here
    holds a demand, a placement or a mark: the domains and their key only.
    """

    _constraints: Optional[Tuple[PlacementConstraint, ...]]
    _nodes: Tuple["Node", ...]
    _domains: Dict[str, Optional[AbstractSet[str]]]
    #: Replaced whenever the key changes or :meth:`clear` is called.
    generation: object

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Drop everything retained (a new :attr:`generation`)."""
        self._constraints = None
        self._nodes = ()
        self._domains = {}
        self.generation = object()

    def key(
        self,
        current: "Configuration",
        constraints: Sequence[PlacementConstraint],
    ) -> Optional[object]:
        """The :attr:`generation` that answers for these inputs — after
        dropping what answered for other ones — or ``None`` when a
        constraint reads the placement and nothing may be kept.  An empty
        catalog is keyed like any other."""
        nodes = current.nodes
        kept = self._constraints
        if kept is not None:
            if (
                len(constraints) == len(kept)
                and all(map(is_, constraints, kept))
                and nodes == self._nodes
            ):
                return self.generation
            self.clear()
        if not all(map(_reads_no_placement, constraints)):
            return None
        self._constraints = tuple(constraints)
        self._nodes = nodes
        return self.generation

    def of(
        self,
        current: "Configuration",
        vms: Collection[str],
        constraints: Sequence[PlacementConstraint],
    ) -> Dict[str, Optional[AbstractSet[str]]]:
        """The domain of every VM in ``vms`` (and possibly of more VMs:
        callers index it, none iterates it) — what :func:`vm_domains`
        returns, computed only for the VMs not answered for yet (found
        without a Python loop: every warm call asks about the fleet).  A
        :class:`~repro.constraints.filtering.CandidateFilter` writes into it
        the domain of a VM it was not asked for, which depends on the key
        alone."""
        if self.key(current, constraints) is None:
            return vm_domains(current, vms, constraints)
        missing: Collection[str] = list(filterfalse(self._domains.__contains__, vms))
        if missing and len(self._domains) > 2 * max(len(current.vm_names), 512):
            # Departed VMs never leave on their own: start over (the key
            # still holds) rather than let a churning fleet grow the map
            # without bound.  The bound reads the fleet, not this call.
            self._domains = {}
            missing = vms
        if missing:
            self._domains.update(vm_domains(current, missing, constraints))
        return self._domains
