"""First-Fit Decreasing placement heuristic.

FFD is used twice in the paper:

* inside the Running Job Selection Problem (Section 3.2) to test whether the
  VMs of one more vjob fit on the cluster;
* as the baseline planner of the scalability evaluation (Section 5.1): a
  heuristic that computes the first viable configuration it finds — without
  trying to keep VMs where they are — and therefore produces reconfiguration
  plans that are on average ~95 % more expensive than Entropy's.

Both go through the one packer, :func:`ffd_commit`: the RJSP selection
(:mod:`.rjsp`), the FCFS admission (:mod:`.fcfs`) and
:func:`ffd_target_configuration` hand it the configuration they pack on.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from ..constraints import CandidateFilter, PlacementConstraint
from ..core.optimizer import apply_state, complete_states
from ..model.configuration import Configuration
from ..model.vm import VirtualMachine, VMState


def ffd_order(vms: Iterable[VirtualMachine]) -> list[VirtualMachine]:
    """Sort VMs by decreasing (CPU, memory) demand — the FFD ordering."""
    return sorted(vms, key=lambda vm: (vm.cpu_demand, vm.memory), reverse=True)


def ffd_commit(
    trial: Configuration,
    vms: Sequence[VirtualMachine],
    node_filter: Optional[CandidateFilter] = None,
    nodes: Optional[Sequence[str]] = None,
    *,
    cursors: Optional[dict[tuple[int, int, int], int]] = None,
) -> Optional[dict[str, str]]:
    """Place ``vms`` on ``trial`` with First-Fit Decreasing, as running.

    The packer: each VM, by decreasing demand, goes on the first node (of
    ``nodes``, default every node of ``trial``, in that order) with room for
    it next to the VMs ``trial`` already runs and those placed earlier in
    this very call.  ``node_filter`` makes it constraint-aware: each VM only
    probes the nodes of its unary domain (in the same order), and the
    relational constraints veto a probe against the placement built so far.
    The VMs are registered, and enter the placement map, in the order they
    were handed.  Returns the mapping VM name -> node name, or ``None`` when
    a VM fits nowhere: the VMs this call registered are then taken back, so
    ``trial`` reads as it did before.  (A VM ``trial`` already knew is
    re-placed from where it is and stays where the probe left it: whoever
    hands such VMs over packs on a configuration it drops on failure.)

    The scan skips what it already knows is full (first-fit cursors).
    Invariant: for a demand ``(cpu_demand, memory)`` and a domain (the
    filter's domain object; ``None``, unrestricted), every candidate before
    the cursor failed ``can_host`` for that demand.  Packing only adds load,
    so the next VM with that demand and domain starts its scan there.  The
    cursor moves only past nodes without room: a node with room that a
    relational constraint vetoed (for this VM's name) stays in the scan.
    Load drops in three places, and each resets the cursors: re-placing a
    VM the trial already runs clears them; a call that fails restores them
    to what they were when it started; and a caller that takes VMs back off
    the trial starts a fresh map.  ``cursors`` are the cursors of this
    caller's earlier packings on this trial, with this filter and these
    nodes (default: a map of this call's own).
    """
    node_names = trial.node_names if nodes is None else nodes
    if cursors is None:
        cursors = {}
    started = dict(cursors)
    replaced = False
    registered = [vm for vm in vms if not trial.has_vm(vm.name)]
    for vm in registered:
        trial.add_vm(vm)
    placement: dict[str, str] = {}
    for vm in ffd_order(vms):
        if node_filter is None:
            allowed, candidates = None, node_names
        else:
            allowed = node_filter.domain(vm.name)
            candidates = node_filter.candidates(vm.name, node_names)
        key = (id(allowed), vm.cpu_demand, vm.memory)
        cursor = cursors.get(key, 0)
        for position in range(cursor, len(candidates)):
            node = candidates[position]
            if not trial.can_host(node, vm):
                if position == cursor:
                    cursor += 1
            elif node_filter is None or node_filter(vm.name, node, trial):
                break
        else:
            for taken_back in reversed(registered):
                trial.remove_vm(taken_back.name)
            cursors.clear()
            if not replaced:
                cursors.update(started)
            return None
        if trial.location_of(vm.name) is None:
            cursors[key] = cursor
        else:
            # Its host loses its load: what the cursors learned may not hold.
            cursors.clear()
            replaced = True
        trial.set_running(vm.name, node)
        placement[vm.name] = node
    trial.enter_in_order(vm.name for vm in vms)
    return placement


def ffd_target_configuration(
    current: Configuration,
    target_states: Mapping[str, VMState],
    constraints: Sequence[PlacementConstraint] = (),
    node_filter: Optional[CandidateFilter] = None,
) -> Optional[Configuration]:
    """Baseline target configuration computed with FFD from scratch.

    Every VM that must run is packed with FFD on an initially empty cluster,
    ignoring its current location — this is the "first completed viable
    configuration" behaviour of the baseline in Section 5.1 and it typically
    moves most of the running VMs.  ``constraints`` makes the packing
    constraint-aware through greedy candidate filtering (sound but greedy:
    FFD never backtracks out of a constraint dead end); a caller that
    already built the round's ``node_filter`` over ``current`` hands it over
    instead.  Returns ``None`` when FFD fails to place every running VM (the
    baseline then has no solution).
    """
    if node_filter is None and constraints:
        node_filter = CandidateFilter(constraints, reference=current)
    states, _ = complete_states(current, target_states)
    target = current.copy()
    # Empty the cluster first so FFD packs from scratch.
    for name in current.running_vms():
        target.set_waiting(name)
    must_run = [
        current.vm(name) for name, s in states.items() if s is VMState.RUNNING
    ]
    placement = ffd_commit(target, must_run, node_filter)
    if placement is None:
        return None
    for name, state in states.items():
        if state is not VMState.RUNNING:
            apply_state(target, current, name, state, placement)
    return target
