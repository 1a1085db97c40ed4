"""The Running Job Selection Problem (Section 3.2).

Every decision round, the sample decision module scans the whole FCFS queue in
priority order and selects the maximum prefix-respecting set of vjobs whose VMs
can all be packed on the cluster given their *current* resource demands.  A
vjob that does not fit is moved (or kept) out of the Running state: it becomes
Sleeping if it is currently running or sleeping, and stays Waiting otherwise.
Because running vjobs release resources when their demand drops, previously
rejected vjobs are re-evaluated at every round — hence the whole queue is
always reconsidered.  Reconsidered is not re-packed: the trial starts empty,
so a vjob's outcome is a function of the nodes, the catalog and the observed
VMs of the vjobs up to it, and a :class:`RetainedSelection` keeps the packing
of the previous round and re-packs only from the first vjob whose inputs
changed.

The selection packs onto whatever nodes the *current* configuration exposes,
so cluster churn needs no special casing here: nodes evicted by a crash are
simply absent from the trial packing, late-booting nodes enlarge it, and on
a fleet with no capacity left every vjob is rejected (the loop then waits
for capacity instead of planning an impossible switch).

The selection packs through the one packer
(:func:`~repro.decision.ffd.ffd_commit`); :func:`reject_vjob` is the one
statement of what a vjob that does not fit becomes (:mod:`.fcfs` applies it
too).  The policies built on the selection live in :mod:`.consolidation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import MutableMapping, Optional, Sequence

from ..api.decision import empty_configuration
from ..constraints import CandidateFilter, PlacementConstraint
from ..constraints.domains import _reads_no_placement
from ..model.configuration import Configuration
from ..model.node import Node
from ..model.queue import VJobQueue
from ..model.vjob import VJob, VJobState
from ..model.vm import VirtualMachine, VMState
from .ffd import ffd_commit


@dataclass
class RJSPResult:
    """Outcome of one Running Job Selection round."""

    #: vjob name -> state the vjob should have in the next configuration.
    vjob_states: dict[str, VJobState] = field(default_factory=dict)
    #: VM name -> state, derived from the vjob decision.
    vm_states: dict[str, VMState] = field(default_factory=dict)
    #: Trial placement produced while checking feasibility (VM -> node); only
    #: covers the VMs of the accepted vjobs and is advisory — the optimizer
    #: recomputes the final placement.
    trial_placement: dict[str, str] = field(default_factory=dict)
    #: vjobs accepted in the Running state, in queue order.
    accepted: list[str] = field(default_factory=list)
    #: vjobs rejected this round, in queue order.
    rejected: list[str] = field(default_factory=list)


def reject_vjob(
    vjob: VJob,
    vjob_states: MutableMapping[str, VJobState],
    vm_states: MutableMapping[str, VMState],
) -> None:
    """Record what a vjob that does not fit becomes: Sleeping when it holds
    a machine state (running or already sleeping), still Waiting otherwise;
    its VMs follow."""
    if vjob.state in (VJobState.RUNNING, VJobState.SLEEPING):
        vjob_states[vjob.name] = VJobState.SLEEPING
        vm_state = VMState.SLEEPING
    else:
        vjob_states[vjob.name] = VJobState.WAITING
        vm_state = VMState.WAITING
    for vm in vjob.vms:
        vm_states[vm.name] = vm_state


@dataclass(frozen=True)
class _Packed:
    """One vjob of the retained trial: its observed VMs and what
    :func:`~repro.decision.ffd.ffd_commit` returned for them (``None``: it
    did not fit, and the trial holds none of them)."""

    name: str
    vms: tuple[VirtualMachine, ...]
    placement: Optional[dict[str, str]]


class RetainedSelection:
    """The trial packing of the previous selection, kept while it answers.

    The trial starts empty, so where a VM runs today never enters the
    packing: vjob *k*'s outcome is a function of the node descriptions, the
    candidate filter's constraints and the observed VMs of vjobs 0..*k*.
    The key is the first two — ``configuration.nodes`` (the frozen values:
    a capacity change counts) and the constraint *objects* (identity: a
    repaired ``Fence`` is a new object) — and :meth:`_rekey` is the one
    invalidation point: a crash, a join or a constraint repair drops
    everything.  A catalog with a restriction that reads the observed
    placement keeps nothing (the filter's domains read the hosts).  The
    third input is compared per vjob by :meth:`packed`, which keeps the
    longest unchanged prefix of :attr:`entries` (and drops everything when
    a packing raises half-way).
    """

    _nodes: tuple[Node, ...]
    _constraints: tuple[PlacementConstraint, ...]
    #: The trial: every VM of the accepted entries, registered in queue order.
    trial: Optional[Configuration]
    #: One per packed vjob, in queue order.
    entries: list[_Packed]

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Drop everything retained."""
        self._nodes = ()
        self._constraints = ()
        self.trial = None
        self.entries = []

    def _rekey(
        self,
        configuration: Configuration,
        constraints: Sequence[PlacementConstraint],
    ) -> bool:
        """Make the key match the inputs, dropping what no longer answers
        for them; False when these inputs allow nothing to be retained."""
        nodes = configuration.nodes
        if (
            self.trial is not None
            and nodes == self._nodes
            and len(constraints) == len(self._constraints)
            and all(map(is_, constraints, self._constraints))
        ):
            return True
        self.clear()
        if not all(map(_reads_no_placement, constraints)):
            return False
        self._nodes = nodes
        self._constraints = tuple(constraints)
        self.trial = empty_configuration(configuration)
        return True

    def packed(
        self,
        configuration: Configuration,
        pending: Sequence[tuple[str, tuple[VirtualMachine, ...]]],
        constraints: Sequence[PlacementConstraint],
        node_filter: Optional[CandidateFilter],
    ) -> list[_Packed]:
        """One entry per ``(vjob name, observed VMs)`` of ``pending``, in
        that order: the kept prefix, then :func:`~repro.decision.ffd
        .ffd_commit` on the trial from the first vjob that changed, the
        vjobs of this call sharing one map of first-fit cursors."""
        if self._rekey(configuration, constraints):
            trial, entries = self.trial, self.entries
        else:
            trial, entries = empty_configuration(configuration), []
        kept = 0
        for (name, vms), entry in zip(pending, entries):
            if entry.name != name or entry.vms != vms:
                break
            kept += 1
        try:
            # Take the later accepted vjobs back off the trial, last
            # registered first, so it reads as a packing of the prefix alone.
            for entry in reversed(entries[kept:]):
                if entry.placement is not None:
                    for vm in reversed(entry.vms):
                        trial.remove_vm(vm.name)
            del entries[kept:]
            # One map of first-fit cursors for the vjobs packed from here:
            # the take-back above unloaded the trial.
            cursors: dict[tuple[int, int, int], int] = {}
            for name, vms in pending[kept:]:
                placement = ffd_commit(trial, vms, node_filter, cursors=cursors)
                entries.append(_Packed(name, vms, placement))
        except BaseException:
            # A packing cut short leaves a trial no entry list describes.
            self.clear()
            raise
        return entries


def _observed_vms(
    configuration: Configuration, vjob: VJob
) -> tuple[VirtualMachine, ...]:
    """The vjob's VMs as this round observes them: the configuration's
    description (at the monitored demand) when it knows the VM."""
    return tuple(
        configuration.vm(vm.name) if configuration.has_vm(vm.name) else vm
        for vm in vjob.vms
    )


def select_running_vjobs(
    configuration: Configuration,
    queue: VJobQueue,
    constraints: Sequence[PlacementConstraint] = (),
    node_filter: Optional[CandidateFilter] = None,
    retained: Optional[RetainedSelection] = None,
) -> RJSPResult:
    """Solve the RJSP with the FFD heuristic.

    Parameters
    ----------
    configuration:
        Observed configuration: the nodes, and the VM descriptions at the
        CPU demands the monitoring service reported.
    queue:
        The FCFS queue; vjobs are examined in priority order.
    constraints:
        Placement constraints the trial packing must honour.  Without them
        the selection can accept a vjob set that fits capacity-wise but has
        no *constrained* assignment, sending the optimizer into a planning
        dead end; the greedy filter keeps the selection conservative (a
        constraint-heavy instance may reject a vjob the CP search could in
        fact place — it is then simply retried next round).
    node_filter:
        The round's filter over ``configuration``, when the caller already
        built it from ``constraints``.
    retained:
        The previous round's packing: kept where its inputs are unchanged,
        re-packed from the first vjob that changed (its constraints must be
        ``constraints``, which ``node_filter`` is built from).  Without it
        the queue is packed on a blank trial.
    """
    if node_filter is None and constraints:
        node_filter = CandidateFilter(constraints, reference=configuration)
    vjobs = queue.pending()
    entries = (retained or RetainedSelection()).packed(
        configuration,
        [(vjob.name, _observed_vms(configuration, vjob)) for vjob in vjobs],
        constraints,
        node_filter,
    )

    result = RJSPResult()
    for vjob, entry in zip(vjobs, entries):
        if entry.placement is not None:
            result.accepted.append(vjob.name)
            result.vjob_states[vjob.name] = VJobState.RUNNING
            for vm in entry.vms:
                result.vm_states[vm.name] = VMState.RUNNING
                result.trial_placement[vm.name] = entry.placement[vm.name]
        else:
            result.rejected.append(vjob.name)
            reject_vjob(vjob, result.vjob_states, result.vm_states)
    return result
