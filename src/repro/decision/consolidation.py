"""The sample decision module: dynamic consolidation with context switches.

This is the scheduling policy of Section 3.2: every 30 seconds the module
observes the current CPU and memory demands of the VMs, solves the Running Job
Selection Problem over the FCFS queue, and asks the cluster-wide context switch
to reach a viable configuration in which the selected vjobs run and the others
sleep or keep waiting.  Compared to classic dynamic consolidation it also
handles *overloaded* clusters: when no viable assignment exists for every
running vjob, the lowest-priority ones are suspended instead of letting nodes
stay overloaded.

Because the whole queue is re-evaluated every round against the *current*
configuration, the policy is fault-reactive without fault-specific code: a
vjob knocked back to Waiting by a node crash is simply re-selected and
re-placed on the surviving nodes, and a migration undone by a failure is
re-derived on the next round (see :mod:`repro.sim.faults`).

Registered as ``"consolidation"`` in :mod:`repro.api.registry`.

This module holds the one policy body: ``"consolidation"``, ``"rjsp"`` and
``"ffd"`` are the same ``decide`` and differ only in what the from-scratch
FFD target is used as (``ffd_target_as``).  :class:`ConstraintAwarePolicy`
is the constraint plumbing they share with :mod:`.fcfs`.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

from ..api.decision import Decision, stop_terminated_vms
from ..constraints import CandidateFilter, PlacementConstraint
from ..constraints.domains import RetainedDomains
from ..model.configuration import Configuration
from ..model.queue import VJobQueue
from .ffd import ffd_target_configuration
from .rjsp import RetainedSelection, select_running_vjobs


class ConstraintAwarePolicy:
    """What every built-in policy does with placement constraints: take
    them from the control loop (:meth:`use_constraints`, the catalog the
    round plans and checks with), and build one candidate filter per
    decision for every greedy packing of the round.

    The filter's unary domains are kept from one decision to the next
    (:attr:`domains`, a :class:`~repro.constraints.domains.RetainedDomains`)
    while its key holds: the constraint objects (identity: a repaired
    ``Fence`` or a :meth:`use_constraints` call hands over new ones), the
    node names, and every constraint reading no placement.  Its ``_rekey``
    is the one invalidation point: a fence repaired after a crash, a node
    join or a new catalog drops what was kept, and a restriction that reads
    the placement is computed afresh for every decision.
    """

    def __init__(self) -> None:
        self.constraints: tuple[PlacementConstraint, ...] = ()
        self.domains = RetainedDomains()

    def use_constraints(
        self, constraints: Sequence[PlacementConstraint]
    ) -> None:
        """Control-loop hook: adopt (or replace, after a repair) the
        placement constraints the trial packings filter their candidate
        nodes with."""
        self.constraints = tuple(constraints)

    def node_filter(
        self, configuration: Configuration
    ) -> Optional[CandidateFilter]:
        """This decision's filter over the observed ``configuration``
        (``None`` without constraints: every node is probed)."""
        if not self.constraints:
            return None
        return CandidateFilter(
            self.constraints,
            reference=configuration,
            domains=self.domains.of(
                configuration, configuration.vm_names, self.constraints
            ),
        )


class ConsolidationDecisionModule(ConstraintAwarePolicy):
    """FCFS-driven dynamic consolidation (the paper's sample policy).

    The CP optimizer enforces placement constraints itself; this module
    needs them too (the loop's ``use_constraints`` hook) so the RJSP
    *selection* only accepts vjob sets that have a constrained placement,
    and so its FFD *fallback* target stays honest when the search runs out
    of time.  The fallback is built only when it is read — by the switch
    after a failed solve — from the configuration, the completed VM states
    and the candidate filter of this decision.

    The instance keeps the selection's trial packing from one decision to
    the next (:attr:`selection`, a
    :class:`~repro.decision.rjsp.RetainedSelection`) and re-packs only from
    the first vjob whose observed VMs changed.  Its one invalidation point
    is the retained object's key — the node descriptions and the constraint
    objects — so a crash, a join, a capacity change or a constraint repair
    starts the next decision from a blank trial, and a catalog whose
    restriction reads the observed placement keeps nothing.  Reuse is
    decided by value, so one instance may serve several loops one after
    the other; concurrent ``decide`` calls on one instance are not
    supported.
    """

    name = "consolidation"
    #: The :class:`Decision` field the from-scratch FFD target fills —
    #: ``"target"`` builds it in ``decide``, ``"fallback_target"`` hands the
    #: decision a builder (the fallback is built on first read), ``None``:
    #: it is not built.
    ffd_target_as: Optional[str] = "fallback_target"

    def __init__(self) -> None:
        super().__init__()
        self.selection = RetainedSelection()

    def decide(self, configuration: Configuration, queue: VJobQueue) -> Decision:
        """Compute the target state of every VM for the next iteration."""
        node_filter = self.node_filter(configuration)
        rjsp = select_running_vjobs(
            configuration,
            queue,
            self.constraints,
            node_filter,
            retained=self.selection,
        )
        vm_states = dict(rjsp.vm_states)

        # Terminated vjobs: make sure their VMs are stopped.
        stop_terminated_vms(configuration, queue, vm_states)

        decision = Decision(
            vm_states=vm_states,
            vjob_states=dict(rjsp.vjob_states),
            metadata={"rjsp": rjsp},
        )
        build_target = functools.partial(
            ffd_target_configuration, configuration, vm_states, node_filter=node_filter
        )
        if self.ffd_target_as == "target":
            decision.target = build_target()
        elif self.ffd_target_as == "fallback_target":
            decision.fallback_builder = build_target
        return decision


class RJSPDecisionModule(ConsolidationDecisionModule):
    """Pure Running Job Selection as a pluggable policy.

    The maximum prefix-respecting set of vjobs runs, the rest sleeps or
    waits, and the CP optimizer alone chooses the placement (no FFD
    fallback, so a failed solve keeps the round's configuration instead of
    degrading to an expensive plan).  Useful to isolate the contribution of
    the fallback in ablations.  Registered as ``"rjsp"``.
    """

    name = "rjsp"
    ffd_target_as = None


class FFDDecisionModule(ConsolidationDecisionModule):
    """The First-Fit-Decreasing replacement planner as a pluggable policy.

    The Section 5.1 baseline: vjobs are selected exactly like the sample
    consolidation policy (the RJSP), but the target configuration is the
    first viable placement FFD finds when packing from scratch — without
    trying to keep VMs where they are — so the resulting reconfiguration
    plans are on average ~95 % more expensive than the CP optimizer's.  The
    explicit :attr:`~repro.api.decision.Decision.target` short-circuits the
    optimizer in the control loop.  Registered as ``"ffd"``.

    When no constrained packing exists the module returns no target and the
    loop's optimizer — or the next round — takes over.
    """

    name = "ffd"
    ffd_target_as = "target"
