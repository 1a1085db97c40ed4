"""FCFS + static allocation as a control-loop policy (Section 2.1).

The analytic, job-level form of the same baseline is :mod:`.static`.
Admission packs through the one packer (:func:`~repro.decision.ffd.ffd_commit`)
and a vjob that does not fit follows the one rule
(:func:`~repro.decision.rjsp.reject_vjob`).
"""

from __future__ import annotations

from ..api.decision import Decision, stop_terminated_vms
from ..model.configuration import Configuration
from ..model.queue import VJobQueue
from ..model.vjob import VJob, VJobState
from ..model.vm import VirtualMachine, VMState
from .consolidation import ConstraintAwarePolicy
from .ffd import PackingTrial, ffd_commit
from .rjsp import reject_vjob
from .static import BackfillPolicy


class FCFSDecisionModule(ConstraintAwarePolicy):
    """FCFS + static allocation as a pluggable control-loop policy.

    The Section 2.1 baseline expressed in the unified decision-module
    contract: each vjob *books* one processing unit per VM plus its memory for
    its whole execution, vjobs start in queue order when their booking fits
    the remaining capacity, and a started vjob is never suspended nor migrated
    — the booked resources stay claimed even while the embedded tasks idle,
    which is exactly the waste Figure 13 exposes.

    ``backfilling="none"`` (the default) blocks the queue strictly.
    ``backfilling="easy"`` lets a later vjob start when its booking fits the
    spare capacity *right now*; the decision module has no user runtime
    estimates, so — unlike the analytic :class:`FCFSScheduler`, which honours
    the EASY shadow-time reservation — this greedy variant can delay the
    blocked queue head.  When comparing head-to-head with
    :meth:`repro.api.Scenario.run_static`, pass the *same* backfilling
    setting to both (``run_static`` defaults to ``"easy"``, this module to
    ``"none"``).  Admission honours the catalog the loop hands over
    (:meth:`~.consolidation.ConstraintAwarePolicy.use_constraints`).
    Registered as ``"fcfs"`` in :mod:`repro.api.registry`.
    """

    name = "fcfs"
    #: The default, read off the class by :meth:`repro.api.Scenario.run_static`.
    backfilling: BackfillPolicy = "none"

    def __init__(self, backfilling: BackfillPolicy = backfilling) -> None:
        if backfilling not in ("none", "easy"):
            raise ValueError(f"unknown backfilling policy {backfilling!r}")
        super().__init__()
        self.backfilling = backfilling

    @staticmethod
    def _booked_vm(
        configuration: Configuration, vm: VirtualMachine
    ) -> VirtualMachine:
        """A VM at its booked demand: one full processing unit, whatever the
        embedded task currently does."""
        observed = configuration.vm(vm.name) if configuration.has_vm(vm.name) else vm
        return observed.with_cpu_demand(1)

    def decide(self, configuration: Configuration, queue: VJobQueue) -> Decision:
        """Book resources FCFS-style and keep every started vjob running.

        Admission packs the booked VMs (1 CPU each, full memory) onto a trial
        cluster with FFD, so a vjob is only admitted when a *per-node*
        feasible placement exists — aggregate free capacity alone is not
        enough for the planner to succeed.
        """
        trial = PackingTrial(configuration.nodes)
        node_filter = self.node_filter(configuration)

        vm_states: dict[str, VMState] = {}
        vjob_states: dict[str, VJobState] = {}

        # First pass: running vjobs hold their booking unconditionally, and
        # must claim it *before* any other vjob is admitted — otherwise a
        # waiting vjob could be admitted against capacity that is already
        # booked.  Their placed VMs are mirrored at their *actual* location
        # (exact, order-independent); the stragglers of a partially-running
        # vjob only join when their booking still fits.
        pending: list[VJob] = []
        for vjob in queue.pending():
            if vjob.state is VJobState.RUNNING:
                placeless = []
                for vm in vjob.vms:
                    booked = self._booked_vm(configuration, vm)
                    location = configuration.location_of(vm.name)
                    if location is not None:
                        trial.place(booked, location)
                        vm_states[vm.name] = VMState.RUNNING
                    else:
                        placeless.append(booked)
                if placeless:
                    joined = ffd_commit(trial, placeless, node_filter) is not None
                    for vm in placeless:
                        vm_states[vm.name] = (
                            VMState.RUNNING if joined else VMState.WAITING
                        )
                vjob_states[vjob.name] = VJobState.RUNNING
            else:
                pending.append(vjob)

        # Second pass: admit the other vjobs in *submission* order — that is
        # what First-Come-First-Served means, and what the analytic
        # FCFSScheduler baseline does (queue.pending() is priority-ordered;
        # the stable sort keeps that order for equal submission times).  A
        # sleeping vjob — possible only through state drift, FCFS itself
        # never suspends — re-queues like a waiting one and resumes when its
        # booking fits again.
        pending.sort(key=lambda vjob: vjob.submitted_at)
        blocked = False
        for vjob in pending:
            vms = [self._booked_vm(configuration, vm) for vm in vjob.vms]
            if (
                not blocked or self.backfilling == "easy"
            ) and ffd_commit(trial, vms, node_filter) is not None:
                vjob_states[vjob.name] = VJobState.RUNNING
                for vm in vjob.vms:
                    vm_states[vm.name] = VMState.RUNNING
            else:
                blocked = True
                reject_vjob(vjob, vjob_states, vm_states)

        stop_terminated_vms(configuration, queue, vm_states)
        return Decision(
            vm_states=vm_states,
            vjob_states=vjob_states,
            metadata={"trial_placement": trial.placement()},
        )
