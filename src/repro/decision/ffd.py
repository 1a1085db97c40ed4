"""First-Fit Decreasing placement heuristic.

FFD is used twice in the paper:

* inside the Running Job Selection Problem (Section 3.2) to test whether the
  VMs of one more vjob fit on the cluster;
* as the baseline planner of the scalability evaluation (Section 5.1): a
  heuristic that computes the first viable configuration it finds — without
  trying to keep VMs where they are — and therefore produces reconfiguration
  plans that are on average ~95 % more expensive than Entropy's.

Both go through the one packer, :func:`ffd_commit`, on a
:class:`PackingTrial`: the RJSP selection (:mod:`.rjsp`) keeps one, the
FCFS admission (:mod:`.fcfs`) books on one, and
:func:`ffd_target_configuration` writes what it packed on one into a copy
of the observed configuration.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from ..constraints import CandidateFilter, PlacementConstraint
from ..core.optimizer import apply_state, complete_states
from ..model.configuration import Configuration
from ..model.errors import DuplicateElementError
from ..model.node import Node
from ..model.vm import VirtualMachine, VMState


class PackingTrial:
    """A trial packing: each node's free CPU and memory (:attr:`free_cpu` /
    :attr:`free_memory`, in node order), the VMs taken and their placement
    in entry order.  It answers what the packer and a relational
    :meth:`~repro.constraints.PlacementConstraint.allows` read as a
    :class:`~repro.model.configuration.Configuration` running the same VMs
    would; :meth:`place` loads a node and :meth:`take_back` unloads it.
    """

    __slots__ = (
        "node_names", "_slots", "free_cpu", "free_memory", "_vms", "_placement"
    )

    def __init__(self, nodes: Iterable[Node]) -> None:
        nodes = tuple(nodes)
        self.node_names = tuple(node.name for node in nodes)
        self._slots = {name: slot for slot, name in enumerate(self.node_names)}
        self.free_cpu = [node.cpu_capacity for node in nodes]
        self.free_memory = [node.memory_capacity for node in nodes]
        self._vms: dict[str, VirtualMachine] = {}
        self._placement: dict[str, str] = {}

    def has_vm(self, name: str) -> bool:
        return name in self._vms

    def has_node(self, name: str) -> bool:
        return name in self._slots

    def location_of(self, vm_name: str) -> Optional[str]:
        return self._placement.get(vm_name)

    def vms_on(self, node_name: str) -> tuple[str, ...]:
        """The VMs placed on ``node_name``, in entry order (a scan: only a
        ``RunningCapacity`` probe asks)."""
        return tuple(
            name for name, host in self._placement.items() if host == node_name
        )

    def can_host(self, node_name: str, vm: VirtualMachine) -> bool:
        slot = self._slots[node_name]
        return (
            vm.cpu_demand <= self.free_cpu[slot]
            and vm.memory <= self.free_memory[slot]
        )

    def placement(self) -> dict[str, str]:
        return dict(self._placement)

    def place(self, vm: VirtualMachine, node_name: str) -> None:
        """Take ``vm`` onto ``node_name``, whether it has room or not."""
        if vm.name in self._vms:
            raise DuplicateElementError(f"VM {vm.name!r} already placed")
        slot = self._slots[node_name]
        self._vms[vm.name] = vm
        self._placement[vm.name] = node_name
        self.free_cpu[slot] -= vm.cpu_demand
        self.free_memory[slot] -= vm.memory

    def take_back(self, vm_name: str) -> None:
        vm = self._vms.pop(vm_name)
        slot = self._slots[self._placement.pop(vm_name)]
        self.free_cpu[slot] += vm.cpu_demand
        self.free_memory[slot] += vm.memory

    def enter_in_order(self, vm_names: Iterable[str]) -> None:
        """Make the placed ``vm_names`` the latest entries, in that order."""
        for name in vm_names:
            self._placement[name] = self._placement.pop(name)


def ffd_order(vms: Iterable[VirtualMachine]) -> list[VirtualMachine]:
    """Sort VMs by decreasing (CPU, memory) demand — the FFD ordering."""
    return sorted(vms, key=lambda vm: (vm.cpu_demand, vm.memory), reverse=True)


def ffd_commit(
    trial: PackingTrial,
    vms: Sequence[VirtualMachine],
    node_filter: Optional[CandidateFilter] = None,
    nodes: Optional[Sequence[str]] = None,
    *,
    cursors: Optional[dict[tuple[int, int, int], int]] = None,
) -> Optional[dict[str, str]]:
    """Place ``vms`` on ``trial`` with First-Fit Decreasing.

    The packer: each VM, by decreasing demand, goes on the first node (of
    ``nodes``, default every node of ``trial``, in that order) with room for
    it next to what ``trial`` already holds and the VMs placed earlier in
    this very call.  ``node_filter`` makes it constraint-aware: each VM only
    probes the nodes of its unary domain (in the same order), and the
    relational constraints veto a probe against the placement built so far.
    The VMs enter the trial's placement in the order they were handed, and
    none of them may be on it already.  Returns the mapping VM name -> node
    name, or ``None`` when a VM fits nowhere: the VMs this call placed are
    then taken back, so ``trial`` reads as it did before.

    The scan skips what it already knows is full (first-fit cursors).
    Invariant: for a demand ``(cpu_demand, memory)`` and a domain (the
    filter's domain object; ``None``, unrestricted), every candidate before
    the cursor failed ``can_host`` for that demand.  Packing only adds load,
    so the next VM with that demand and domain starts its scan there.  The
    cursor moves only past nodes without room: a node with room that a
    relational constraint vetoed (for this VM's name) stays in the scan.
    Load drops in two places, and each resets the cursors: a call that
    fails restores them to what they were when it started, and a caller
    that takes VMs back off the trial starts a fresh map.  ``cursors`` are
    the cursors of this caller's earlier packings on this trial, with this
    filter and these nodes (default: a map of this call's own).
    """
    node_names = trial.node_names if nodes is None else nodes
    if cursors is None:
        cursors = {}
    started = dict(cursors)
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
            for taken_back in placement:
                trial.take_back(taken_back)
            cursors.clear()
            cursors.update(started)
            return None
        cursors[key] = cursor
        trial.place(vm, node)
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
    must_run = [
        current.vm(name) for name, s in states.items() if s is VMState.RUNNING
    ]
    placement = ffd_commit(PackingTrial(current.nodes), must_run, node_filter)
    if placement is None:
        return None
    target = current.copy()
    # Empty the cluster first, then run the packed VMs in the order handed.
    for name in current.running_vms():
        target.set_waiting(name)
    for vm in must_run:
        target.set_running(vm.name, placement[vm.name])
    for name, state in states.items():
        if state is not VMState.RUNNING:
            apply_state(target, current, name, state, placement)
    return target
