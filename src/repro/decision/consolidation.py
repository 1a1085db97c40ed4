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
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..api.decision import Decision, stop_terminated_vms
from ..constraints import PlacementConstraint
from ..model.configuration import Configuration
from ..model.queue import VJobQueue
from ..model.vjob import index_vms_by_vjob
from .ffd import ffd_target_configuration
from .rjsp import select_running_vjobs

__all__ = ["ConsolidationDecisionModule", "Decision"]


class ConsolidationDecisionModule:
    """FCFS-driven dynamic consolidation (the paper's sample policy).

    The CP optimizer enforces placement constraints itself; this module
    needs them too (via ``constraints`` or the loop's ``use_constraints``
    hook) so the RJSP *selection* only accepts vjob sets that have a
    constrained placement, and so its FFD *fallback* target stays honest
    when the search runs out of time.
    """

    name = "consolidation"

    def __init__(
        self, constraints: Sequence[PlacementConstraint] = ()
    ) -> None:
        self.constraints: tuple[PlacementConstraint, ...] = tuple(constraints)

    def use_constraints(
        self, constraints: Sequence[PlacementConstraint]
    ) -> None:
        """Control-loop hook: the FFD fallback target filters its candidate
        nodes with these placement constraints."""
        self.constraints = tuple(constraints)

    def decide(
        self,
        configuration: Configuration,
        queue: VJobQueue,
        demands: Optional[dict[str, int]] = None,
    ) -> Decision:
        """Compute the target state of every VM for the next iteration."""
        rjsp = select_running_vjobs(
            configuration, queue, demands, constraints=self.constraints
        )
        vm_states = dict(rjsp.vm_states)

        # Terminated vjobs: make sure their VMs are stopped.
        stop_terminated_vms(configuration, queue, vm_states)

        fallback = ffd_target_configuration(
            configuration, vm_states, constraints=self.constraints
        )
        return Decision(
            vm_states=vm_states,
            vjob_states=dict(rjsp.vjob_states),
            fallback_target=fallback,
            metadata={"rjsp": rjsp},
        )

    @staticmethod
    def vjob_index(queue: VJobQueue) -> dict[str, str]:
        """VM -> vjob mapping for the consistency pass of the planner."""
        return index_vms_by_vjob(queue.ordered())
