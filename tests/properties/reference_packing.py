"""The copy-based packers the decision layer shipped before it packed in place,
on a ``Configuration`` trial.

``ffd_place`` copied the trial, packed the copy and threw it away;
``ffd_commit`` then applied the same placement a second time on the trial
itself; ``ffd_target_configuration`` emptied a copy of the observed
configuration, let ``ffd_place`` copy it again and restated the
``keepVMState`` completion and the wanted-state application of
:mod:`repro.core.optimizer`.  :func:`repro.decision.ffd.ffd_commit` now places
each VM once, on a :class:`~repro.decision.ffd.PackingTrial` that holds only
free capacities and a placement, takes back what it placed when a VM fits
nowhere, and skips the nodes its first-fit cursors know are full.  These bodies, on a
:class:`ConfigurationTrial`, are the *oracle* of
``test_packing_equivalence.py``, which drives both in lockstep: same
placements, same trials (placement *order* included), same targets.  They
live with the tests because nothing in the shipped package may use them.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.constraints import CandidateFilter, PlacementConstraint
from repro.decision.ffd import ffd_order
from repro.model.configuration import Configuration
from repro.model.vm import VirtualMachine, VMState


class ConfigurationTrial(Configuration):
    """The trial the packers below pack on: a configuration over the nodes,
    with the one write a policy makes on a trial besides packing (FCFS
    mirrors the VMs that run where they run)."""

    def __init__(self, nodes) -> None:
        super().__init__(nodes=nodes)

    def place(self, vm: VirtualMachine, node_name: str) -> None:
        self.add_vm(vm)
        self.set_running(vm.name, node_name)


def ffd_place(
    configuration: Configuration,
    vms: Sequence[VirtualMachine],
    nodes: Optional[Sequence[str]] = None,
    node_filter: Optional[CandidateFilter] = None,
) -> Optional[dict[str, str]]:
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
    **first_fit_cursors: object,
) -> Optional[dict[str, str]]:
    # The plain scan: the cursors the shipped packer is handed are ignored.
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
