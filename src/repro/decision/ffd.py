"""First-Fit Decreasing placement heuristic.

FFD is used twice in the paper:

* inside the Running Job Selection Problem (Section 3.2) to test whether the
  VMs of one more vjob fit on the cluster;
* as the baseline planner of the scalability evaluation (Section 5.1): a
  heuristic that computes the first viable configuration it finds — without
  trying to keep VMs where they are — and therefore produces reconfiguration
  plans that are on average ~95 % more expensive than Entropy's.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from ..api.decision import Decision, stop_terminated_vms
from ..constraints import CandidateFilter, PlacementConstraint
from ..model.configuration import Configuration
from ..model.queue import VJobQueue
from ..model.vm import VirtualMachine, VMState


def ffd_order(vms: Iterable[VirtualMachine]) -> list[VirtualMachine]:
    """Sort VMs by decreasing (CPU, memory) demand — the FFD ordering."""
    return sorted(vms, key=lambda vm: (vm.cpu_demand, vm.memory), reverse=True)


def ffd_place(
    configuration: Configuration,
    vms: Sequence[VirtualMachine],
    nodes: Optional[Sequence[str]] = None,
    node_filter: Optional[CandidateFilter] = None,
) -> Optional[dict[str, str]]:
    """Place ``vms`` on the nodes of ``configuration`` with First-Fit
    Decreasing.

    The placement accounts for the VMs already running in ``configuration``
    and for the VMs placed earlier in this very call.  ``node_filter`` makes
    it constraint-aware: each VM only probes the nodes of its unary domain
    (in the same order), and the relational constraints veto a probe against
    the placement built so far.  Returns a mapping VM name -> node name, or
    ``None`` when at least one VM cannot be placed.  The input configuration
    is left untouched.
    """
    trial = configuration.copy()
    node_names = list(nodes) if nodes is not None else list(trial.node_names)
    placement: dict[str, str] = {}
    for vm in ffd_order(vms):
        candidates = (
            node_names
            if node_filter is None
            else node_filter.candidates(vm.name, node_names)
        )
        chosen = None
        for node in candidates:
            if not trial.can_host(node, vm):
                continue
            if node_filter is not None and not node_filter(vm.name, node, trial):
                continue
            chosen = node
            break
        if chosen is None:
            return None
        if trial.has_vm(vm.name):
            if trial.state_of(vm.name) is VMState.RUNNING:
                trial.migrate(vm.name, chosen)
            else:
                trial.set_running(vm.name, chosen)
        else:
            trial.add_vm(vm)
            trial.set_running(vm.name, chosen)
        placement[vm.name] = chosen
    return placement


def ffd_commit(
    trial: Configuration,
    vms: Sequence[VirtualMachine],
    node_filter: Optional[CandidateFilter] = None,
) -> Optional[dict[str, str]]:
    """Place ``vms`` on ``trial`` with FFD and commit them as running.

    The shared place-then-commit step of the trial packings (RJSP feasibility
    test, FCFS admission).  Returns the placement, or ``None`` — with
    ``trial`` untouched — when at least one VM cannot be placed.
    """
    placement = ffd_place(trial, vms, node_filter=node_filter)
    if placement is None:
        return None
    for vm in vms:
        if not trial.has_vm(vm.name):
            trial.add_vm(vm)
        trial.set_running(vm.name, placement[vm.name])
    return placement


def ffd_target_configuration(
    current: Configuration,
    target_states: Mapping[str, VMState],
    constraints: Sequence[PlacementConstraint] = (),
) -> Optional[Configuration]:
    """Baseline target configuration computed with FFD from scratch.

    Every VM that must run is packed with FFD on an initially empty cluster,
    ignoring its current location — this is the "first completed viable
    configuration" behaviour of the baseline in Section 5.1 and it typically
    moves most of the running VMs.  ``constraints`` makes the packing
    constraint-aware through greedy candidate filtering (sound but greedy:
    FFD never backtracks out of a constraint dead end).  Returns ``None``
    when FFD fails to place every running VM (the baseline then has no
    solution).
    """
    states = {
        name: target_states.get(name, current.state_of(name))
        for name in current.vm_names
    }
    target = current.copy()
    # Empty the cluster first so FFD packs from scratch.
    for name in current.vm_names:
        if current.state_of(name) is VMState.RUNNING:
            target.set_waiting(name)

    node_filter = (
        CandidateFilter(constraints, reference=current) if constraints else None
    )
    must_run = [current.vm(name) for name, s in states.items() if s is VMState.RUNNING]
    placement = ffd_place(target, must_run, node_filter=node_filter)
    if placement is None:
        return None

    for name, state in states.items():
        if state is VMState.RUNNING:
            target.set_running(name, placement[name])
        elif state is VMState.SLEEPING:
            if current.state_of(name) is VMState.RUNNING:
                target.set_sleeping(name, current.location_of(name))
            elif current.state_of(name) is VMState.SLEEPING:
                target.set_sleeping(name, current.image_location_of(name))
            else:
                target.set_waiting(name)
        elif state is VMState.TERMINATED:
            target.set_terminated(name)
        else:
            target.set_waiting(name)
    return target


class FFDDecisionModule:
    """The First-Fit-Decreasing replacement planner as a pluggable policy.

    The Section 5.1 baseline: vjobs are selected exactly like the sample
    consolidation policy (the RJSP), but the target configuration is the
    first viable placement FFD finds when packing from scratch — without
    trying to keep VMs where they are — so the resulting reconfiguration
    plans are on average ~95 % more expensive than the CP optimizer's.  The
    explicit :attr:`~repro.api.decision.Decision.target` short-circuits the
    optimizer in the control loop.  Registered as ``"ffd"``.

    ``constraints`` (or the control loop's ``use_constraints`` hook) makes
    the packing constraint-aware: banned/fenced/spread-violating candidate
    nodes are filtered while the target is built.  When no constrained
    packing exists the module returns no target and the loop's optimizer —
    or the next round — takes over.
    """

    name = "ffd"

    def __init__(
        self, constraints: Sequence[PlacementConstraint] = ()
    ) -> None:
        self.constraints: tuple[PlacementConstraint, ...] = tuple(constraints)

    def use_constraints(
        self, constraints: Sequence[PlacementConstraint]
    ) -> None:
        """Control-loop hook: adopt (or replace, after a repair) the
        placement constraints to honour."""
        self.constraints = tuple(constraints)

    def decide(
        self,
        configuration: Configuration,
        queue: VJobQueue,
        demands: Optional[dict[str, int]] = None,
    ) -> Decision:
        # Imported here: rjsp imports helpers from this module.
        from .rjsp import select_running_vjobs

        rjsp = select_running_vjobs(
            configuration, queue, demands, constraints=self.constraints
        )
        vm_states = dict(rjsp.vm_states)
        stop_terminated_vms(configuration, queue, vm_states)
        target = ffd_target_configuration(
            configuration, vm_states, constraints=self.constraints
        )
        return Decision(
            vm_states=vm_states,
            vjob_states=dict(rjsp.vjob_states),
            target=target,
            metadata={"rjsp": rjsp},
        )
