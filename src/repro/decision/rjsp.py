"""The Running Job Selection Problem (Section 3.2).

Every decision round, the sample decision module scans the whole FCFS queue in
priority order and selects the maximum prefix-respecting set of vjobs whose VMs
can all be packed on the cluster given their *current* resource demands.  A
vjob that does not fit is moved (or kept) out of the Running state: it becomes
Sleeping if it is currently running or sleeping, and stays Waiting otherwise.
Because running vjobs release resources when their demand drops, previously
rejected vjobs are re-evaluated at every round — hence the whole queue is
always reconsidered.

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
from typing import MutableMapping, Optional, Sequence

from ..api.decision import empty_configuration
from ..constraints import CandidateFilter, PlacementConstraint
from ..model.configuration import Configuration
from ..model.queue import VJobQueue
from ..model.vjob import VJob, VJobState
from ..model.vm import VMState
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

    @property
    def accepted_count(self) -> int:
        return len(self.accepted)


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


def select_running_vjobs(
    configuration: Configuration,
    queue: VJobQueue,
    demands: Optional[dict[str, int]] = None,
    constraints: Sequence[PlacementConstraint] = (),
    node_filter: Optional[CandidateFilter] = None,
) -> RJSPResult:
    """Solve the RJSP with the FFD heuristic.

    Parameters
    ----------
    configuration:
        Current configuration (provides nodes and VM descriptions).
    queue:
        The FCFS queue; vjobs are examined in priority order.
    demands:
        Optional override of the CPU demand of individual VMs (VM name ->
        processing units), typically the fresh values reported by the
        monitoring service.
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
    """
    if node_filter is None and constraints:
        node_filter = CandidateFilter(constraints, reference=configuration)
    result = RJSPResult()
    trial = empty_configuration(configuration)

    for vjob in queue.pending():
        vms = []
        for vm in vjob.vms:
            observed = vm
            if configuration.has_vm(vm.name):
                observed = configuration.vm(vm.name)
            if demands is not None and vm.name in demands:
                observed = observed.with_cpu_demand(demands[vm.name])
            vms.append(observed)

        placement = ffd_commit(trial, vms, node_filter)
        if placement is not None:
            result.accepted.append(vjob.name)
            result.vjob_states[vjob.name] = VJobState.RUNNING
            for vm in vms:
                result.vm_states[vm.name] = VMState.RUNNING
                result.trial_placement[vm.name] = placement[vm.name]
        else:
            result.rejected.append(vjob.name)
            reject_vjob(vjob, result.vjob_states, result.vm_states)
    return result
