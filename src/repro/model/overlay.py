"""Overlays: a configuration written as a delta over a frozen base.

A round walks its plan pool by pool twice — the planner applies each pool to
a working configuration to find the next one, and the constraint checker
applies them again to ask every stage — and a copy of the fleet for each
walk costs the fleet's assignment maps on its first write, however few VMs
the plan moves.  An :class:`Overlay` costs what the walk writes instead: it
reads through to the maps of its base, frozen when the overlay is made (the
base takes its own maps on its next write, as after a
:meth:`~repro.model.configuration.Configuration.copy`), and keeps every write
in small per-map deltas — the placement, the placement ranks, the states,
the suspend images, the running sets and the loads of the nodes it touched —
and in its change journal, which starts as the base's.

An overlay serves the reads and writes a plan walk makes: every assignment
write of an action (:func:`repro.core.plan.apply_pool_effects`), the reads
of the actions' feasibility tests and of the planner (descriptions, states,
hosts, suspend images, free capacity, the state and placement maps), and
those of the constraints' checker faces (``hosts_of``, ``vms_on``).  Each
answers what the same read of a copy of the base answers after the same
writes (``tests/properties/test_configuration_equivalence.py`` holds the two
in lockstep); :meth:`~repro.model.configuration.Configuration.mark` and
``written_since`` work on it unchanged.  It shares the node and VM
descriptions with its base and refuses to change them (registrations,
demand changes, node removals raise :class:`~repro.model.errors.ModelError`),
and it is not copied: a caller that keeps the result of a walk walks a copy.
A read it does not serve — the load totals, the viability scan, the suspend
images per node — raises :class:`AttributeError`.

The reads that walk a member list — :meth:`Overlay.hosts_of`, asked by every
``Fence`` and ``Ban`` of a plan check, and :meth:`Overlay.load_by_host` —
stay one C-level pass over the base's placement, patched by a second one
over the delta.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Set

from .configuration import JOURNAL_CAP, Configuration
from .errors import (
    ModelError,
    NonViableConfigurationError,
    UnknownNodeError,
    UnknownVMError,
)
from .resources import ResourceVector
from .vm import VMState


class Overlay(Configuration):
    """A :class:`~repro.model.configuration.Configuration` that keeps its
    writes apart from the base it reads through (see the module
    docstring)."""

    def __init__(self, base: Configuration) -> None:  # noqa: D107 - see class
        if isinstance(base, Overlay):
            raise TypeError("an overlay reads through a configuration, not an overlay")
        # Freeze the base's maps: from here on it writes only maps of its own.
        base._share()
        # The descriptions are the base's, read through the inherited reads.
        self._nodes = base._nodes
        self._vms = base._vms
        self._vm_index = base._vm_index
        self._base_placement = base._placement
        self._base_ranks = base._placement_rank
        self._base_states = base._states
        self._base_images = base._images
        self._base_members = base._members
        #: A copy-on-write copy of the base's columns, never written: the
        #: base's loads and capacities as they were.
        self._base_loads = base._columns.copy()
        #: VM -> host for the VMs whose host this overlay wrote (``None``:
        #: no longer running).
        self._delta_placement: Dict[str, Optional[str]] = {}
        #: VM -> placement rank for the running VMs that entered the
        #: placement here, in rank order (a base VM that only migrated keeps
        #: the base's rank).
        self._delta_ranks: Dict[str, int] = {}
        self._delta_states: Dict[str, VMState] = {}
        #: VM -> image node for the VMs whose image this overlay wrote.
        self._delta_images: Dict[str, Optional[str]] = {}
        #: node -> its running set, for the nodes this overlay changed.
        self._delta_members: Dict[str, Set[str]] = {}
        #: node -> the ``[cpus, MB]`` this overlay added to the base's load.
        self._delta_loads: Dict[str, list[int]] = {}
        self._rank_counter = base._rank_counter
        # The journal goes on from the base's, as a copy's would (past the
        # cap it says nothing, and a copy stops it on its first write).
        journal = base._journal
        self._mark = base._mark
        self._journal = (
            None if journal is None or len(journal) > JOURNAL_CAP else set(journal)
        )

    # ------------------------------------------------------------------ #
    # population: the descriptions are the base's                         #
    # ------------------------------------------------------------------ #

    def _refuse(self, *args: object) -> None:
        raise ModelError(
            "an overlay writes the assignment only: register, describe or "
            "remove on a configuration"
        )

    add_node = add_vm = remove_vm = replace_vm = remove_node = _refuse  # type: ignore[assignment]

    def copy(self) -> Configuration:
        raise ModelError("an overlay is not copied: walk a copy to keep the result")

    # ------------------------------------------------------------------ #
    # lookups                                                             #
    # ------------------------------------------------------------------ #

    def state_of(self, vm_name: str) -> VMState:
        if vm_name not in self._vms:
            raise UnknownVMError(vm_name)
        return self._delta_states.get(vm_name, self._base_states[vm_name])

    def _host(self, vm_name: str) -> Optional[str]:
        return self._delta_placement.get(vm_name, self._base_placement.get(vm_name))

    def location_of(self, vm_name: str) -> Optional[str]:
        if vm_name not in self._vms:
            raise UnknownVMError(vm_name)
        return self._host(vm_name)

    def _image(self, vm_name: str) -> Optional[str]:
        return self._delta_images.get(vm_name, self._base_images.get(vm_name))

    def image_location_of(self, vm_name: str) -> Optional[str]:
        if vm_name not in self._vms:
            raise UnknownVMError(vm_name)
        return self._image(vm_name)

    def _hosts(self, vm_names: Iterable[str]) -> tuple[Iterable[str], Iterator]:
        """``vm_names`` as a sequence (it is read twice) and the host of each
        (``None``: not running): the base's answers, patched by the
        delta's."""
        if not isinstance(vm_names, (tuple, list)):
            vm_names = tuple(vm_names)
        hosts: Iterator[Optional[str]] = map(self._base_placement.get, vm_names)
        if self._delta_placement:
            hosts = map(self._delta_placement.get, vm_names, hosts)
        return vm_names, hosts

    def hosts_of(self, vm_names: Iterable[str]) -> list[str]:
        return [host for host in self._hosts(vm_names)[1] if host is not None]

    def load_by_host(self, vm_names: Iterable[str]) -> Dict[str, list[int]]:
        loads: Dict[str, list[int]] = {}
        vms = self._vms
        for vm_name, host in zip(*self._hosts(vm_names)):
            if host is not None:
                vm = vms[vm_name]
                load = loads.setdefault(host, [0, 0])
                load[0] += vm.cpu_demand
                load[1] += vm.memory
        return loads

    def _rank(self, vm_name: str) -> int:
        rank = self._delta_ranks.get(vm_name)
        return self._base_ranks[vm_name] if rank is None else rank

    def vms_on(self, node_name: str) -> tuple[str, ...]:
        if node_name not in self._nodes:
            raise UnknownNodeError(node_name)
        members = self._delta_members.get(node_name)
        if members is None:
            members = self._base_members[node_name]
        rank = self._rank if self._delta_ranks else self._base_ranks.__getitem__
        return tuple(sorted(members, key=rank))

    def placement(self) -> Mapping[str, str]:
        """The running VM -> node mapping, in the order a copy written the
        same way lists it (the order the VMs entered the placement)."""
        delta, entered = self._delta_placement, self._delta_ranks
        if not delta:
            return dict(self._base_placement)
        placement: Dict[str, str] = {}
        for name, host in self._base_placement.items():
            if name in delta:
                moved = delta[name]
                if moved is None or name in entered:
                    continue
                host = moved
            placement[name] = host
        for name in entered:
            moved = delta[name]
            if moved is not None:  # always: an entered VM runs
                placement[name] = moved
        return placement

    def states(self) -> dict[str, VMState]:
        states = dict(self._base_states)
        states.update(self._delta_states)
        return states

    # ------------------------------------------------------------------ #
    # state changes                                                       #
    # ------------------------------------------------------------------ #

    def _running_on(self, node_name: str) -> Set[str]:
        members = self._delta_members.get(node_name)
        if members is None:
            members = self._delta_members[node_name] = set(
                self._base_members[node_name]
            )
        return members

    def _add_load(self, node_name: str, cpu: int, memory: int) -> None:
        load = self._delta_loads.get(node_name)
        if load is None:
            load = self._delta_loads[node_name] = [0, 0]
        load[0] += cpu
        load[1] += memory

    def _write(self, vm_name: str) -> None:
        if self._journal is not None:
            self._journal.add(vm_name)

    def _unplace(self, vm_name: str) -> None:
        host = self._host(vm_name)
        if host is None:
            return
        vm = self._vms[vm_name]
        self._delta_placement[vm_name] = None
        self._delta_ranks.pop(vm_name, None)
        self._running_on(host).discard(vm_name)
        self._add_load(host, -vm.cpu_demand, -vm.memory)

    def _drop_image(self, vm_name: str) -> None:
        if self._image(vm_name) is not None:
            self._delta_images[vm_name] = None

    def set_running(self, vm_name: str, node_name: str) -> None:
        vm = self.vm(vm_name)
        self.node(node_name)
        previous = self._host(vm_name)
        if previous is None:
            self._delta_placement[vm_name] = node_name
            self._delta_ranks[vm_name] = self._rank_counter
            self._rank_counter += 1
            self._running_on(node_name).add(vm_name)
            self._add_load(node_name, vm.cpu_demand, vm.memory)
        elif previous != node_name:
            self._delta_placement[vm_name] = node_name
            self._running_on(previous).discard(vm_name)
            self._running_on(node_name).add(vm_name)
            self._add_load(previous, -vm.cpu_demand, -vm.memory)
            self._add_load(node_name, vm.cpu_demand, vm.memory)
        self._delta_states[vm_name] = VMState.RUNNING
        self._drop_image(vm_name)
        self._write(vm_name)

    def set_sleeping(self, vm_name: str, image_node: Optional[str] = None) -> None:
        self.vm(vm_name)
        if image_node is None:
            image_node = self._host(vm_name)
        if image_node is not None:
            self.node(image_node)
            self._delta_images[vm_name] = image_node
        self._delta_states[vm_name] = VMState.SLEEPING
        self._unplace(vm_name)
        self._write(vm_name)

    def _set_unplaced(self, vm_name: str, state: VMState) -> None:
        self.vm(vm_name)
        self._delta_states[vm_name] = state
        self._unplace(vm_name)
        self._drop_image(vm_name)
        self._write(vm_name)

    def migrate(self, vm_name: str, destination: str) -> None:
        if self.state_of(vm_name) is not VMState.RUNNING:
            raise NonViableConfigurationError(
                f"VM {vm_name!r} is not running and cannot be migrated"
            )
        self.node(destination)
        source = self._host(vm_name)
        assert source is not None  # a running VM has a host
        if source == destination:
            return
        vm = self._vms[vm_name]
        self._delta_placement[vm_name] = destination
        self._running_on(source).discard(vm_name)
        self._running_on(destination).add(vm_name)
        self._add_load(source, -vm.cpu_demand, -vm.memory)
        self._add_load(destination, vm.cpu_demand, vm.memory)
        self._write(vm_name)

    # ------------------------------------------------------------------ #
    # resource accounting                                                 #
    # ------------------------------------------------------------------ #

    def free_capacity(self, node_name: str) -> ResourceVector:
        if node_name not in self._nodes:
            raise KeyError(node_name)
        cpu, memory = self._base_loads.free(node_name)
        load = self._delta_loads.get(node_name)
        if load is not None:
            cpu -= load[0]
            memory -= load[1]
        return ResourceVector(cpu, memory)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<Overlay nodes={len(self._nodes)} vms={len(self._vms)} "
            f"written={len(self._delta_states) + len(self._delta_placement)}>"
        )
