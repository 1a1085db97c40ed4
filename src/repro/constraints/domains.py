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
"""

from __future__ import annotations

from itertools import chain
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .base import PlacementConstraint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model.configuration import Configuration


def _membership_index(
    constraints: Sequence[PlacementConstraint],
) -> Tuple[Dict[str, List[PlacementConstraint]], List[PlacementConstraint]]:
    """Index the catalog by declared VM membership.

    Returns ``(by_vm, universal)``: ``by_vm`` maps each VM name to the
    constraints that declare it a member (in catalog order), ``universal``
    holds the constraints with no declared members (``MaxOnline``,
    ``RunningCapacity``…), which every VM must still ask.

    This relies on the catalog contract that a constraint with declared
    ``vms`` returns ``None`` from ``allowed_nodes`` for non-members (every
    :class:`~repro.constraints.base.VMGroupConstraint` gates on ``vm_set``),
    so non-members never need to ask it — the lazy domains below are exact,
    which the differential suite pins against that eager oracle.
    """
    by_vm: Dict[str, List[PlacementConstraint]] = {}
    universal: List[PlacementConstraint] = []
    for constraint in constraints:
        if constraint.vms:
            members: Iterable[str] = getattr(
                constraint, "vm_set", None
            ) or set(constraint.vms)
            for vm_name in members:
                by_vm.setdefault(vm_name, []).append(constraint)
        else:
            universal.append(constraint)
    return by_vm, universal


_NO_CONSTRAINTS: Tuple[PlacementConstraint, ...] = ()


#: Per-call memo sentinel for "not computed yet" (``None`` is a valid value:
#: it means "no restriction").
_UNSET = object()


def vm_domains(
    current: "Configuration",
    vms: Sequence[str],
    constraints: Sequence[PlacementConstraint],
) -> Dict[str, Optional[AbstractSet[str]]]:
    """The unary placement domain of every VM in ``vms``: the intersection
    of each constraint's ``allowed_nodes``, or ``None`` when unrestricted.

    Lazy on two axes: each VM only asks the constraints it is a member of
    (plus the member-less universal ones) via :func:`_membership_index` —
    O(total memberships), not O(VMs x constraints) — and constraints whose
    restriction is VM-independent
    (:attr:`~repro.constraints.base.PlacementConstraint.uniform_restriction`)
    compute it *once* per call; their members then share one frozen domain
    object instead of each rebuilding an O(fleet) set.  Callers must treat
    the returned domains as read-only (every caller only ever reads
    them).  A restriction is free to name nodes that are not in
    ``current.node_names``, so "no node left" is decided on the domain a
    caller builds from it, not on the emptiness of the set."""
    if not constraints:
        return dict.fromkeys(vms)
    node_names = current.node_names
    by_vm, universal = _membership_index(constraints)
    domains: Dict[str, Optional[AbstractSet[str]]] = {}
    memo: Dict[int, Optional[AbstractSet[str]]] = {}
    for vm_name in vms:
        allowed: Optional[AbstractSet[str]] = None
        for constraint in chain(
            by_vm.get(vm_name, _NO_CONSTRAINTS), universal
        ):
            restriction: Optional[AbstractSet[str]]
            if constraint.uniform_restriction:
                cached = memo.get(id(constraint), _UNSET)
                if cached is _UNSET:
                    computed = constraint.allowed_nodes(
                        vm_name, node_names, current
                    )
                    restriction = (
                        None if computed is None else frozenset(computed)
                    )
                    memo[id(constraint)] = restriction
                else:
                    restriction = cached  # type: ignore[assignment]
            else:
                restriction = constraint.allowed_nodes(
                    vm_name, node_names, current
                )
            if restriction is None:
                continue
            allowed = (
                restriction if allowed is None else allowed & restriction
            )
        domains[vm_name] = allowed
    return domains
