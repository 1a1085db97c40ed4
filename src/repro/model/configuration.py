"""Cluster configurations.

A *configuration* is the central data structure of the paper: a mapping of VMs
to nodes together with the state of each VM.  A configuration is *viable*
(Section 3.2) when every running VM has access to a sufficient amount of memory
and processing units on its host node.  Waiting and sleeping VMs do not consume
node resources; sleeping VMs only remember the node that holds their suspend
image because a resume on that node is cheaper (Table 1).

Since PR 10 the class is *indexed* for datacenter-tier fleets: node and VM
names are interned, per-node loads and capacities live in columnar storage
(:class:`~repro.model.columns.LoadColumns` — plain Python lists, no runtime
dependency), and every node carries its running-set and suspend-image indices.
State mutators maintain the loads incrementally and record the touched nodes
in a dirty set, so

* :meth:`usage_of` / :meth:`free_capacity` / :meth:`can_host` /
  :meth:`total_usage` / :meth:`total_capacity` are O(1),
* :meth:`vms_on` / :meth:`images_on` are O(answer),
* :meth:`viability_violations` with ``only_dirty=True`` is O(changed) — it
  re-examines only the nodes mutated since the previous scan and returns the
  *complete* current violation list, identical to the full scan.

Copies are *copy-on-write*: :meth:`Configuration.copy` is O(1) — the copy
shares every map (and the load columns) with its original — and the first
write on either side takes that side's own copy of the maps it writes, one
group at a time: the node and VM descriptions, the assignment (placement,
states, suspend images and their indices).  A copy that is only read — a
plan's source — allocates no map; one that re-places VMs — a target —
copies the assignment and nothing else.  A walk whose result nobody keeps —
the planner's working state, the constraint checker's stages — copies no
map at all: it is an :class:`~repro.model.overlay.Overlay`, which reads
through a configuration frozen as for a copy and keeps its own writes in
small deltas.

Beside copy-on-write, a configuration can keep a *change journal*:
:meth:`Configuration.mark` starts it and returns a mark, and from then on
every state, host or suspend-image write names its VM in the journal, which
belongs to the assignment group (a copy shares it until one side writes, and
then takes its own with the assignment maps).  :meth:`written_since` answers
with the VMs written since a mark along the chain of copies that leads to
this configuration — so a holder that marked one round's input can ask the
next round's input, wherever it was copied from, what to re-read instead of
the fleet — or ``None`` when the configuration does not descend from the
mark or the journal passed :data:`JOURNAL_CAP`.  A configuration nobody
marked journals nothing (one ``is None`` test per write); demand changes are
not journaled (the load columns keep the nodes they touch).

The naive dict-walk implementations are retained in
``tests/properties/reference_configuration.py`` as the differential-test
oracle (``tests/properties/test_configuration_equivalence.py`` drives both in
lockstep under random mutation sequences).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_not
from types import MappingProxyType
from typing import AbstractSet, Dict, Iterable, Iterator, Mapping, Optional, Set

from .columns import LoadColumns
from .errors import (
    DuplicateElementError,
    ModelError,
    NonViableConfigurationError,
    UnknownNodeError,
    UnknownVMError,
)
from .node import Node
from .resources import ResourceVector
from .vm import VirtualMachine, VMState


#: The most VM names a change journal holds and answers with: past it a
#: reader would read about as much as a scan of the fleet, so the journal
#: stops and :meth:`Configuration.written_since` says ``None`` (everything
#: may have changed).
JOURNAL_CAP = 4096


@dataclass(frozen=True)
class ViabilityViolation:
    """One overloaded node in a non-viable configuration."""

    node: str
    capacity: ResourceVector
    usage: ResourceVector

    def __str__(self) -> str:
        return (
            f"node {self.node}: usage {self.usage.as_tuple()} exceeds "
            f"capacity {self.capacity.as_tuple()}"
        )


class Configuration:
    """A mapping of VMs to nodes plus the state of every VM.

    The class is mutable — decision modules and planners build configurations
    incrementally — but exposes :meth:`copy` so temporary configurations can be
    derived cheaply, mirroring the iterative constructions of Sections 3.2
    and 4.1: a copy shares every map with its original until one of the two
    writes it (see the module docstring).
    """

    def __init__(
        self,
        nodes: Iterable[Node] = (),
        vms: Iterable[VirtualMachine] = (),
    ) -> None:
        self._nodes: dict[str, Node] = {}
        self._vms: dict[str, VirtualMachine] = {}
        #: VM name -> hosting node name, only for RUNNING VMs.
        self._placement: dict[str, str] = {}
        #: VM name -> node name holding the suspend image, for SLEEPING VMs.
        self._images: dict[str, str] = {}
        #: Explicit state of every VM.
        self._states: dict[str, VMState] = {}
        #: Interned VM ids: name -> registration rank (VMs are never
        #: unregistered, so the rank is stable for the configuration's life).
        self._vm_index: dict[str, int] = {}
        #: Per-node columnar loads/capacities with dirty tracking.
        self._columns = LoadColumns()
        #: node name -> names of the VMs currently RUNNING on it.  A copy
        #: shares these sets with its original until one of the two changes
        #: a node (:meth:`_running_on`): a copy pays for the nodes it goes
        #: on to touch, not for the fleet.
        self._members: Dict[str, Set[str]] = {}
        #: The nodes whose running set no other configuration shares.
        self._owned: Set[str] = set()
        #: node name -> names of the sleeping VMs whose image it holds (only
        #: the nodes holding one: most never do, and a copy pays per entry).
        self._image_members: Dict[str, Set[str]] = {}
        #: VM name -> placement rank: the order in which the VM *entered* the
        #: placement map (migrations keep the rank, like a dict value update
        #: keeps the key position).  :meth:`vms_on` sorts by it so the
        #: per-node index reproduces the historical dict-walk order exactly.
        self._placement_rank: dict[str, int] = {}
        self._rank_counter = 0
        #: Copy-on-write, one flag per group of maps written together: the
        #: descriptions (``_nodes``, ``_vms``, ``_vm_index``) and the
        #: assignment (``_placement``, ``_placement_rank``, ``_states``,
        #: ``_images``, ``_image_members``, ``_members``).  True while the
        #: group may be shared with a copy: a mutator tests the flag of each
        #: group it writes and takes its own copy of a shared one first.
        self._descriptions_shared = False
        self._assignment_shared = False
        #: The change journal (see :meth:`mark`): the names of the VMs whose
        #: state, host or suspend image was written since :attr:`_mark` was
        #: taken on this configuration or the one it was copied from; ``None``
        #: when nobody marked it.  It belongs to the assignment group: a copy
        #: shares it until one side writes.
        self._journal: Optional[Set[str]] = None
        self._mark: Optional[object] = None
        for node in nodes:
            self.add_node(node)
        for vm in vms:
            self.add_vm(vm)

    # ------------------------------------------------------------------ #
    # population                                                          #
    # ------------------------------------------------------------------ #

    def add_node(self, node: Node) -> None:
        if node.name in self._nodes:
            raise DuplicateElementError(f"node {node.name!r} already registered")
        if self._descriptions_shared:
            self._own_descriptions()
        if self._assignment_shared:
            self._own_assignment()
        self._nodes[node.name] = node
        self._columns.add(node.name, node.cpu_capacity, node.memory_capacity)
        self._members[node.name] = set()
        self._owned.add(node.name)

    def add_vm(self, vm: VirtualMachine, state: VMState = VMState.WAITING) -> None:
        if vm.name in self._vms:
            raise DuplicateElementError(f"VM {vm.name!r} already registered")
        if self._descriptions_shared:
            self._own_descriptions()
        if self._assignment_shared:
            self._own_assignment()
        self._vm_index[vm.name] = len(self._vms)
        self._vms[vm.name] = vm
        self._states[vm.name] = state
        if self._journal is not None:
            self._journal.add(vm.name)

    def remove_vm(self, name: str) -> VirtualMachine:
        """Unregister the VM registered last — :meth:`add_vm` undone, its
        host and image released: a trial packing takes back the VMs of a
        vjob that does not fit.  Only the last one may go, so the
        registration ranks stay dense."""
        if name not in self._vms:
            raise UnknownVMError(name)
        if self._vm_index[name] != len(self._vms) - 1:
            raise ModelError(
                f"VM {name!r} is not the last registered: only the latest "
                "registration can be taken back"
            )
        if self._descriptions_shared:
            self._own_descriptions()
        if self._assignment_shared:
            self._own_assignment()
        self._unplace(name)
        self._drop_image(name)
        del self._states[name]
        del self._vm_index[name]
        if self._journal is not None:
            self._journal.add(name)
        return self._vms.pop(name)

    def replace_vm(self, vm: VirtualMachine) -> None:
        """Update the description of a VM (e.g. a new CPU demand) without
        touching its placement or state."""
        if vm.name not in self._vms:
            raise UnknownVMError(vm.name)
        if self._descriptions_shared:
            self._own_descriptions()
        host = self._placement.get(vm.name)
        if host is not None:
            old = self._vms[vm.name]
            delta_cpu = vm.cpu_demand - old.cpu_demand
            delta_mem = vm.memory - old.memory
            if delta_cpu or delta_mem:
                self._columns.add_load(host, delta_cpu, delta_mem)
        self._vms[vm.name] = vm

    def remove_node(self, name: str) -> Node:
        """Evict a node from the configuration (e.g. a crash or a drain).

        The node must be empty: no VM may be running on it and no suspend
        image may live on it — displace or kill those first (see
        :func:`repro.sim.faults.evict_node` for the crash semantics).  Returns
        the removed :class:`~repro.model.node.Node` so it can be re-added
        later (a repaired node rejoining the fleet).

        Removal drops every cached index of the node — its column slot is
        tombstoned and it leaves the dirty and overloaded caches — so a node
        re-added under the same name (possibly with a different capacity)
        starts from a clean slate and incremental viability never reports a
        stale load.
        """
        node = self.node(name)
        placed = self._members[name]
        imaged = self._image_members.get(name, ())
        if placed or imaged:
            raise ModelError(
                f"node {name!r} is not empty: running VMs {sorted(placed)} / "
                f"suspend images {sorted(imaged)} must be displaced before "
                "the node can be removed"
            )
        if self._descriptions_shared:
            self._own_descriptions()
        if self._assignment_shared:
            self._own_assignment()
        del self._nodes[name]
        del self._members[name]
        self._owned.discard(name)
        self._columns.drop(name)
        return node

    # ------------------------------------------------------------------ #
    # lookups                                                             #
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes.values())

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    @property
    def vms(self) -> tuple[VirtualMachine, ...]:
        return tuple(self._vms.values())

    @property
    def vm_names(self) -> tuple[str, ...]:
        return tuple(self._vms)

    @property
    def vm_count(self) -> int:
        """How many VMs are registered, without listing them."""
        return len(self._vms)

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownNodeError(name) from None

    def vm(self, name: str) -> VirtualMachine:
        try:
            return self._vms[name]
        except KeyError:
            raise UnknownVMError(name) from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def has_vm(self, name: str) -> bool:
        return name in self._vms

    def node_index(self, name: str) -> int:
        """Interned id of a node: its column slot.  Slots are assigned in
        registration order and never reused, so sorting names by slot
        reproduces the registration order in O(k log k) instead of an
        O(fleet) scan of :attr:`node_names`."""
        if name not in self._nodes:
            raise UnknownNodeError(name)
        return self._columns.slot(name)

    def state_of(self, vm_name: str) -> VMState:
        if vm_name not in self._vms:
            raise UnknownVMError(vm_name)
        return self._states[vm_name]

    def any_state_differs(self, states: Mapping[str, VMState]) -> bool:
        """Whether some VM of ``states`` is in another state here — one
        C-level pass, in ``states`` order: the first VM found in another
        state answers, and an unregistered VM met before it raises
        :class:`~repro.model.errors.UnknownVMError`, as :meth:`state_of`
        asked of each in turn would."""
        try:
            return any(
                map(is_not, map(self._states.__getitem__, states), states.values())
            )
        except KeyError as error:
            raise UnknownVMError(error.args[0]) from None

    def location_of(self, vm_name: str) -> Optional[str]:
        """Node hosting a running VM, or ``None`` if the VM is not running."""
        if vm_name not in self._vms:
            raise UnknownVMError(vm_name)
        return self._placement.get(vm_name)

    def image_location_of(self, vm_name: str) -> Optional[str]:
        """Node holding the suspend image of a sleeping VM, if any."""
        if vm_name not in self._vms:
            raise UnknownVMError(vm_name)
        return self._images.get(vm_name)

    def hosts_of(self, vm_names: Iterable[str]) -> list[str]:
        """Hosts of the running VMs among ``vm_names``, in that order (a VM
        that is not running, or not registered, is skipped) — one bulk read
        for the checkers that ask it of a whole group."""
        return [
            host
            for host in map(self._placement.get, vm_names)
            if host is not None
        ]

    def load_by_host(self, vm_names: Iterable[str]) -> Dict[str, list[int]]:
        """The ``[cpus, MB]`` the running VMs among ``vm_names`` hold on
        each of their hosts (a VM that is not running holds nothing)."""
        loads: Dict[str, list[int]] = {}
        for vm_name in vm_names:
            host = self._placement.get(vm_name)
            if host is not None:
                vm = self._vms[vm_name]
                load = loads.setdefault(host, [0, 0])
                load[0] += vm.cpu_demand
                load[1] += vm.memory
        return loads

    def in_registration_order(self, vm_names: Iterable[str]) -> list[str]:
        """``vm_names`` sorted the way :attr:`vm_names` lists them, in
        O(k log k) for k names instead of a scan of the fleet."""
        return sorted(vm_names, key=self._vm_index.__getitem__)

    def running_vms(self) -> tuple[str, ...]:
        return tuple(
            name for name, state in self._states.items() if state is VMState.RUNNING
        )

    def vms_on(self, node_name: str) -> tuple[str, ...]:
        """Names of the VMs currently running on ``node_name``.

        Served from the per-node running-set index in O(k log k) for k
        hosted VMs; the placement rank keeps the historical order (the
        placement map's insertion order filtered to the node)."""
        if node_name not in self._nodes:
            raise UnknownNodeError(node_name)
        return tuple(
            sorted(self._members[node_name], key=self._placement_rank.__getitem__)
        )

    def images_on(self, node_name: str) -> tuple[str, ...]:
        """Names of the sleeping VMs whose suspend image ``node_name`` holds,
        in VM-registration order (O(answer), from the per-node index)."""
        if node_name not in self._nodes:
            raise UnknownNodeError(node_name)
        return tuple(
            sorted(
                self._image_members.get(node_name, ()),
                key=self._vm_index.__getitem__,
            )
        )

    def placement(self) -> Mapping[str, str]:
        """Read-only view of the running VM -> node mapping."""
        return dict(self._placement)

    def placement_view(self) -> Mapping[str, str]:
        """The running VM -> node mapping itself, read-only, in O(1): for a
        reader done before this configuration's next write (the first write
        after a copy moves this side to a map of its own, and the view goes
        on showing the other side's)."""
        return MappingProxyType(self._placement)

    def states(self) -> dict[str, "VMState"]:
        """Read-only copy of the VM -> life-cycle state mapping (one bulk
        copy instead of per-VM :meth:`state_of` calls on hot paths)."""
        return dict(self._states)

    def iter_placement(self) -> Iterator[tuple[str, str]]:
        """Iterate (running VM, hosting node) pairs without copying — for
        hot read-only checks (e.g. greedy constraint filtering)."""
        return iter(self._placement.items())

    # ------------------------------------------------------------------ #
    # state changes                                                       #
    # ------------------------------------------------------------------ #

    def _own_descriptions(self) -> None:
        """Take this configuration's own node and VM descriptions (the
        first registration or demand change after a copy)."""
        self._nodes = dict(self._nodes)
        self._vms = dict(self._vms)
        self._vm_index = dict(self._vm_index)
        self._descriptions_shared = False

    def _own_assignment(self) -> None:
        """Take this configuration's own assignment maps (the first state or
        placement change after a copy).  The per-node running sets stay
        shared: :meth:`_running_on` takes them apart one node at a time."""
        self._placement = dict(self._placement)
        self._placement_rank = dict(self._placement_rank)
        self._states = dict(self._states)
        self._images = dict(self._images)
        self._image_members = {
            node: set(vms) for node, vms in self._image_members.items()
        }
        self._members = dict(self._members)
        if self._journal is not None:
            if len(self._journal) > JOURNAL_CAP:
                # Past the cap the journal says nothing a scan would not:
                # stop keeping it.
                self._journal = self._mark = None
            else:
                self._journal = set(self._journal)
        self._assignment_shared = False

    def _running_on(self, node_name: str) -> Set[str]:
        """The node's running set, to be changed: this configuration's own
        from here on (its first change after a copy takes the set apart
        from the one the copy still reads).  The caller owns the assignment
        maps already."""
        if node_name not in self._owned:
            self._members[node_name] = set(self._members[node_name])
            self._owned.add(node_name)
        return self._members[node_name]

    def _unplace(self, vm_name: str) -> None:
        """Drop a VM from the placement map and its host's indices."""
        host = self._placement.pop(vm_name, None)
        if host is None:
            return
        vm = self._vms[vm_name]
        self._running_on(host).discard(vm_name)
        self._columns.add_load(host, -vm.cpu_demand, -vm.memory)
        del self._placement_rank[vm_name]

    def _drop_image(self, vm_name: str) -> None:
        host = self._images.pop(vm_name, None)
        if host is not None:
            held = self._image_members[host]
            held.discard(vm_name)
            if not held:
                del self._image_members[host]

    def set_running(self, vm_name: str, node_name: str) -> None:
        """Place a VM in the RUNNING state on ``node_name``."""
        vm = self.vm(vm_name)
        self.node(node_name)
        if self._assignment_shared:
            self._own_assignment()
        previous = self._placement.get(vm_name)
        if previous is None:
            self._placement[vm_name] = node_name
            self._placement_rank[vm_name] = self._rank_counter
            self._rank_counter += 1
            self._running_on(node_name).add(vm_name)
            self._columns.add_load(node_name, vm.cpu_demand, vm.memory)
        elif previous != node_name:
            self._placement[vm_name] = node_name
            self._running_on(previous).discard(vm_name)
            self._running_on(node_name).add(vm_name)
            self._columns.add_load(previous, -vm.cpu_demand, -vm.memory)
            self._columns.add_load(node_name, vm.cpu_demand, vm.memory)
        self._states[vm_name] = VMState.RUNNING
        self._drop_image(vm_name)
        if self._journal is not None:
            self._journal.add(vm_name)

    def set_sleeping(self, vm_name: str, image_node: Optional[str] = None) -> None:
        """Suspend a VM; its image stays on ``image_node`` (defaults to the
        node it was running on)."""
        self.vm(vm_name)
        if self._assignment_shared:
            self._own_assignment()
        if image_node is None:
            image_node = self._placement.get(vm_name)
        if image_node is not None:
            self.node(image_node)
            self._drop_image(vm_name)
            self._images[vm_name] = image_node
            self._image_members.setdefault(image_node, set()).add(vm_name)
        self._states[vm_name] = VMState.SLEEPING
        self._unplace(vm_name)
        if self._journal is not None:
            self._journal.add(vm_name)

    def set_waiting(self, vm_name: str) -> None:
        self._set_unplaced(vm_name, VMState.WAITING)

    def set_terminated(self, vm_name: str) -> None:
        self._set_unplaced(vm_name, VMState.TERMINATED)

    def _set_unplaced(self, vm_name: str, state: VMState) -> None:
        """Give a VM a state that holds neither a host nor an image."""
        self.vm(vm_name)
        if self._assignment_shared:
            self._own_assignment()
        self._states[vm_name] = state
        self._unplace(vm_name)
        self._drop_image(vm_name)
        if self._journal is not None:
            self._journal.add(vm_name)

    def enter_in_order(self, vm_names: Iterable[str]) -> None:
        """Make the running VMs ``vm_names`` the latest to have entered the
        placement map, in that order: :meth:`placement` and :meth:`vms_on`
        then list them as if they had been placed one after the other (a
        packer probes by decreasing demand but commits in the order it was
        handed)."""
        if self._assignment_shared:
            self._own_assignment()
        for name in vm_names:
            self._placement[name] = self._placement.pop(name)
            self._placement_rank[name] = self._rank_counter
            self._rank_counter += 1

    def migrate(self, vm_name: str, destination: str) -> None:
        """Move a running VM to ``destination`` (state unchanged)."""
        if self.state_of(vm_name) is not VMState.RUNNING:
            raise NonViableConfigurationError(
                f"VM {vm_name!r} is not running and cannot be migrated"
            )
        self.node(destination)
        source = self._placement[vm_name]
        if source == destination:
            return
        if self._assignment_shared:
            self._own_assignment()
        vm = self._vms[vm_name]
        self._placement[vm_name] = destination
        self._running_on(source).discard(vm_name)
        self._running_on(destination).add(vm_name)
        self._columns.add_load(source, -vm.cpu_demand, -vm.memory)
        self._columns.add_load(destination, vm.cpu_demand, vm.memory)
        if self._journal is not None:
            self._journal.add(vm_name)

    # ------------------------------------------------------------------ #
    # resource accounting & viability                                     #
    # ------------------------------------------------------------------ #

    def usage_of(self, node_name: str) -> ResourceVector:
        """Aggregate demand of the running VMs hosted on ``node_name``
        (O(1) — served from the per-node load columns)."""
        self.node(node_name)
        return ResourceVector(*self._columns.usage(node_name))

    def free_capacity(self, node_name: str) -> ResourceVector:
        """Remaining capacity of ``node_name`` (may be negative if
        overloaded).  O(1)."""
        if node_name not in self._nodes:
            # Historical contract: a plain KeyError, unlike usage_of.
            raise KeyError(node_name)
        return ResourceVector(*self._columns.free(node_name))

    def can_host(self, node_name: str, vm: VirtualMachine) -> bool:
        """True when ``node_name`` has room for ``vm`` on both dimensions."""
        return vm.demand.fits_in(self.free_capacity(node_name))

    def total_usage(self) -> ResourceVector:
        return ResourceVector(*self._columns.total_usage())

    def total_capacity(self) -> ResourceVector:
        return ResourceVector(*self._columns.total_capacity())

    def dirty_nodes(self) -> tuple[str, ...]:
        """Nodes whose load changed since the last viability scan, in
        registration order (observability hook — consuming the dirty set is
        what :meth:`viability_violations` with ``only_dirty=True`` does)."""
        return tuple(
            sorted(
                (self._columns.name_of(slot) for slot in self._columns.dirty),
                key=self._columns.slot,
            )
        )

    def viability_violations(
        self, only_dirty: bool = False
    ) -> list[ViabilityViolation]:
        """Nodes whose capacity is exceeded by their running VMs.

        Both faces return the complete, current violation list:

        * ``only_dirty=False`` — scan every node's load column and
          resynchronize the overload cache;
        * ``only_dirty=True`` — O(changed): re-examine only the nodes whose
          load was mutated since the previous scan and serve the rest from
          the cache.  This is what the control loop's observe phase and the
          sim engine consume every round.
        """
        if only_dirty:
            slots = self._columns.overloaded_dirty()
        else:
            slots = self._columns.overloaded_full()
        violations = []
        for slot in slots:
            name = self._columns.name_of(slot)
            cpu, memory = self._columns.usage(name)
            violations.append(
                ViabilityViolation(
                    node=name,
                    capacity=self._nodes[name].capacity,
                    usage=ResourceVector(cpu, memory),
                )
            )
        return violations

    def is_viable(self) -> bool:
        """A configuration is viable when no node is overloaded (Section 3.2)."""
        return not self.viability_violations(only_dirty=True)

    # ------------------------------------------------------------------ #
    # copies & comparisons                                                #
    # ------------------------------------------------------------------ #

    def copy(self) -> "Configuration":
        """An O(1) copy: it shares every map with this configuration, and
        each side takes its own copy of a group of maps on its first write
        to it."""
        # Attributes are set one by one, in the constructor's order: reading
        # ``__dict__`` would turn both objects' attribute reads into plain
        # dict lookups for the rest of their lives.
        clone = type(self).__new__(type(self))
        clone._nodes = self._nodes
        clone._vms = self._vms
        clone._placement = self._placement
        clone._images = self._images
        clone._states = self._states
        clone._vm_index = self._vm_index
        clone._columns = self._columns.copy()
        clone._members = self._members
        # Both sides now read the same running sets: neither owns one.
        clone._owned = set()
        clone._image_members = self._image_members
        clone._placement_rank = self._placement_rank
        clone._rank_counter = self._rank_counter
        clone._descriptions_shared = clone._assignment_shared = True
        self._share()
        clone._journal = self._journal
        clone._mark = self._mark
        return clone

    def _share(self) -> None:
        """Freeze the maps this configuration holds now for a copy or an
        :class:`~repro.model.overlay.Overlay` that reads them: its next
        write to any group takes its own maps (the load columns are frozen
        by copying them, :meth:`LoadColumns.copy`)."""
        self._owned = set()
        self._descriptions_shared = self._assignment_shared = True

    def mark(self) -> object:
        """Start the change journal afresh and return its mark: from here on
        this configuration, and every copy made of it from now on, records
        the VMs whose state, host or suspend image it writes (a demand
        change is not recorded: the load columns keep the nodes it touches,
        :meth:`dirty_nodes`).  A configuration nobody marked records
        nothing."""
        self._mark = mark = object()
        self._journal = set()
        return mark

    def written_since(self, mark: object) -> Optional[AbstractSet[str]]:
        """The VMs whose state, host or suspend image was written since
        ``mark`` — on the configuration it was taken on and on the chain of
        copies that led from it to this one — or ``None`` when this
        configuration does not descend from that mark (or was marked again
        since) or the journal passed :data:`JOURNAL_CAP` names.  A VM written
        back to what it was is still named: every VM the answer leaves out
        has the state, host and image it had at the mark."""
        journal = self._journal
        if self._mark is not mark or journal is None or len(journal) > JOURNAL_CAP:
            return None
        return frozenset(journal)

    def same_assignment(self, other: "Configuration") -> bool:
        """True when both configurations give the same state and location to
        every VM."""
        return self.states() == other.states() and (
            self.placement() == other.placement()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return (
            set(self._nodes) == set(other._nodes)
            and self.same_assignment(other)
        )

    def __hash__(self) -> int:  # pragma: no cover - configurations are mutable
        raise TypeError("Configuration objects are mutable and unhashable")

    def __deepcopy__(self, memo: dict) -> "Configuration":
        return self.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        running = len(self._placement)
        return (
            f"<Configuration nodes={len(self._nodes)} vms={len(self._vms)} "
            f"running={running} sleeping={len(self._images)}>"
        )

    # ------------------------------------------------------------------ #
    # iteration helpers                                                   #
    # ------------------------------------------------------------------ #
