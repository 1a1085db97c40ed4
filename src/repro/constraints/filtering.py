"""Greedy candidate filtering — constraint awareness for heuristic packers.

The CP optimizer enforces the catalog through compiled propagators, but the
FFD and FCFS decision modules place VMs greedily, one node probe at a time.
:class:`CandidateFilter` adapts a constraint set to that probe loop in two
steps.  *Which nodes may host this VM at all* is the unary domain every
other layer reads (:func:`~repro.constraints.domains.vm_domains`, kept by
the policy while its key holds, see
:class:`~repro.constraints.domains.RetainedDomains`): the packer only ever
probes those, and each domain's candidate list is built once per filter and
node sequence.  *May it go on this one, given the placement committed so
far* is asked, per probe, of the relational constraints'
:meth:`~repro.constraints.base.PlacementConstraint.allows` face.

The filter is *incomplete* by construction (a greedy packer cannot backtrack
out of a dead end the way the solver does), but it is *sound*: every
placement it accepts satisfies the constraints it was built from, which is
what keeps the FFD fallback targets and the FCFS admission trials honest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, MutableMapping, Optional, Sequence

from .base import PlacementConstraint
from .domains import vm_domains

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..decision.ffd import PackingTrial
    from ..model.configuration import Configuration


class CandidateFilter:
    """Constraint-aware node filtering for greedy placement loops.

    ``reference`` is the observed configuration the round plans from: its
    node names are what the unary restrictions are resolved against, and a
    restriction that depends on the current host reads it off it.
    ``domains`` holds the unary domains of the reference's VMs when the
    caller keeps them across rounds
    (:meth:`~repro.constraints.domains.RetainedDomains.of`); the domain of a
    VM it lacks is computed on first use and written into it.  Without it
    the filter computes them from ``constraints``.
    """

    def __init__(
        self,
        constraints: Sequence[PlacementConstraint],
        reference: "Configuration",
        domains: Optional[MutableMapping[str, Optional[AbstractSet[str]]]] = None,
    ):
        self._constraints = tuple(constraints)
        self._reference = reference
        self._relational = tuple(c for c in self._constraints if c.relational)
        self._domains = (
            vm_domains(reference, reference.vm_names, self._constraints)
            if domains is None
            else domains
        )
        #: ``id(domain)`` -> (the domain, the node sequence, its candidates).
        self._candidates: dict[
            int, tuple[AbstractSet[str], Sequence[str], list[str]]
        ] = {}

    def domain(self, vm_name: str) -> Optional[AbstractSet[str]]:
        """The unary domain of ``vm_name`` (``None``: unrestricted).  The
        filter holds every domain it hands out for as long as it lives, and
        the members of one uniform restriction share one object, so a packer
        may key what it learned about a domain on the object's identity."""
        if vm_name not in self._domains:
            # A VM the reference does not know (a booking probed before it
            # was added): membership-only relations still restrict it.
            self._domains.update(
                vm_domains(self._reference, [vm_name], self._constraints)
            )
        return self._domains[vm_name]

    def candidates(self, vm_name: str, node_names: Sequence[str]) -> Sequence[str]:
        """``node_names`` restricted to the unary domain of ``vm_name``, in
        the packer's own order — so the first fit is the node an unfiltered
        scan vetoed afterwards would have reached.  Built once per domain
        and node sequence."""
        allowed = self.domain(vm_name)
        if allowed is None:
            return node_names
        cached = self._candidates.get(id(allowed))
        if cached is None or cached[1] != node_names:
            cached = (
                allowed,
                node_names,
                [name for name in node_names if name in allowed],
            )
            self._candidates[id(allowed)] = cached
        return cached[2]

    def __call__(
        self, vm_name: str, node_name: str, trial: "PackingTrial"
    ) -> bool:
        """May ``vm_name`` join ``node_name`` given what ``trial`` already
        places?  ``node_name`` must come from :meth:`candidates`."""
        return all(
            constraint.allows(vm_name, node_name, trial)
            for constraint in self._relational
        )
