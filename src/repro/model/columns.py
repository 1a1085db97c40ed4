"""Columnar per-node load/capacity storage with O(changed) dirty tracking.

:class:`LoadColumns` is the indexed core behind
:class:`~repro.model.configuration.Configuration`: node names are interned
into dense integer slots, and the per-node CPU/memory usage and capacity live
in parallel plain Python lists (every hot call is a scalar slot update, which
lists serve faster than array scalars, and the model layer stays
dependency-free).  Every mutation is an O(1) slot update that also records
the slot in a *dirty set*; the viability check then has two faces:

* :meth:`overloaded_full` — scan every live slot and resynchronize the
  cached overloaded set;
* :meth:`overloaded_dirty` — O(changed): re-examine only the dirty slots,
  update the cached overloaded set, and return it.

Both faces return the same answer by construction — the Hypothesis suite
(``tests/properties/test_configuration_equivalence.py``) holds them against
each other and against the retained naive dict-walk oracle
(``tests/properties/reference_configuration.py``).

Slots are never reused: a dropped node tombstones its slot (capacity and
usage zeroed, removed from the name map and the cached sets) and a node
re-added under the same name gets a fresh, strictly larger slot.  Slot order
therefore always matches the configuration's node-registration order, which
is what keeps the incremental violation list byte-identical to the full
scan's.

Copies are copy-on-write (:meth:`LoadColumns.copy`): a copy shares its
columns with the original until one of the two writes them, so a copy that
is only read allocates none."""

from __future__ import annotations

from typing import Dict, List, Set, Tuple


class LoadColumns:
    """Interned per-node load/capacity columns plus dirty/overload caches."""

    __slots__ = (
        "_index",
        "_names",
        "_cpu_usage",
        "_mem_usage",
        "_cpu_cap",
        "_mem_cap",
        "_alive",
        "dirty",
        "_overloaded",
        "_total_usage_cpu",
        "_total_usage_mem",
        "_total_cap_cpu",
        "_total_cap_mem",
        "_layout_shared",
        "_loads_shared",
    )

    def __init__(self) -> None:
        #: node name -> slot (live nodes only; tombstoned slots are unmapped).
        self._index: Dict[str, int] = {}
        #: slot -> node name (tombstoned slots keep the stale name but are
        #: never reported: they fail the alive mask).
        self._names: List[str] = []
        self._cpu_usage: List[int] = []
        self._mem_usage: List[int] = []
        self._cpu_cap: List[int] = []
        self._mem_cap: List[int] = []
        self._alive: List[bool] = []
        #: Slots whose load changed since the last viability scan.
        self.dirty: Set[int] = set()
        #: Slots known to exceed their capacity (exact after every scan).
        self._overloaded: Set[int] = set()
        self._total_usage_cpu = 0
        self._total_usage_mem = 0
        self._total_cap_cpu = 0
        self._total_cap_mem = 0
        #: Copy-on-write, one flag per group of columns written together:
        #: the *layout* (``_index``, ``_names``, the capacity columns,
        #: ``_alive`` — written by :meth:`add` / :meth:`drop` only) and the
        #: *loads* (the usage columns, ``dirty``, ``_overloaded``).  True
        #: while the group may be shared with a copy; the first write takes
        #: this side's own.
        self._layout_shared = False
        self._loads_shared = False

    # ------------------------------------------------------------------ #
    # interning                                                           #
    # ------------------------------------------------------------------ #

    def add(self, name: str, cpu_capacity: int, memory_capacity: int) -> int:
        """Intern a node: assign it the next slot and record its capacity.

        The fresh slot is marked dirty so the next incremental scan examines
        it — a zero-capacity node is overloaded by a single busy VM."""
        if self._layout_shared:
            self._own_layout()
        if self._loads_shared:
            self._own_loads()
        slot = len(self._names)
        self._cpu_usage.append(0)
        self._mem_usage.append(0)
        self._cpu_cap.append(cpu_capacity)
        self._mem_cap.append(memory_capacity)
        self._alive.append(True)
        self._index[name] = slot
        self._names.append(name)
        self._total_cap_cpu += cpu_capacity
        self._total_cap_mem += memory_capacity
        self.dirty.add(slot)
        return slot

    def drop(self, name: str) -> None:
        """Tombstone a node's slot: unmap the name, zero its columns and
        evict it from the dirty/overloaded caches so nothing stale survives
        a later re-add of the same name (which gets a *fresh* slot)."""
        if self._layout_shared:
            self._own_layout()
        if self._loads_shared:
            self._own_loads()
        slot = self._index.pop(name)
        self._total_cap_cpu -= self._cpu_cap[slot]
        self._total_cap_mem -= self._mem_cap[slot]
        self._total_usage_cpu -= self._cpu_usage[slot]
        self._total_usage_mem -= self._mem_usage[slot]
        self._cpu_usage[slot] = 0
        self._mem_usage[slot] = 0
        self._cpu_cap[slot] = 0
        self._mem_cap[slot] = 0
        self._alive[slot] = False
        self.dirty.discard(slot)
        self._overloaded.discard(slot)

    def slot(self, name: str) -> int:
        return self._index[name]

    def name_of(self, slot: int) -> str:
        return self._names[slot]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self._index)

    # ------------------------------------------------------------------ #
    # loads                                                               #
    # ------------------------------------------------------------------ #

    def add_load(self, name: str, cpu: int, memory: int) -> None:
        """Apply a load delta to a node and mark it dirty."""
        if self._loads_shared:
            self._own_loads()
        slot = self._index[name]
        self._cpu_usage[slot] += cpu
        self._mem_usage[slot] += memory
        self._total_usage_cpu += cpu
        self._total_usage_mem += memory
        self.dirty.add(slot)

    def usage(self, name: str) -> Tuple[int, int]:
        slot = self._index[name]
        return (self._cpu_usage[slot], self._mem_usage[slot])

    def free(self, name: str) -> Tuple[int, int]:
        slot = self._index[name]
        return (
            self._cpu_cap[slot] - self._cpu_usage[slot],
            self._mem_cap[slot] - self._mem_usage[slot],
        )

    def total_usage(self) -> Tuple[int, int]:
        return (self._total_usage_cpu, self._total_usage_mem)

    def total_capacity(self) -> Tuple[int, int]:
        return (self._total_cap_cpu, self._total_cap_mem)

    # ------------------------------------------------------------------ #
    # viability                                                           #
    # ------------------------------------------------------------------ #

    def _is_overloaded(self, slot: int) -> bool:
        return self._alive[slot] and (
            self._cpu_usage[slot] > self._cpu_cap[slot]
            or self._mem_usage[slot] > self._mem_cap[slot]
        )

    def overloaded_full(self) -> List[int]:
        """Every overloaded live slot, in slot (= registration) order.

        Resynchronizes the cached overloaded set and clears the dirty set —
        a full scan subsumes any pending incremental work (both sets are
        replaced, not written, so a copy sharing them is left alone)."""
        slots = [s for s in range(len(self._names)) if self._is_overloaded(s)]
        self._overloaded = set(slots)
        self.dirty = set()
        return slots

    def overloaded_dirty(self) -> List[int]:
        """The same list as :meth:`overloaded_full`, computed by re-examining
        only the slots touched since the previous scan (O(changed) plus the
        size of the answer)."""
        if self.dirty:
            if self._loads_shared:
                self._own_loads()
            for slot in self.dirty:
                if self._is_overloaded(slot):
                    self._overloaded.add(slot)
                else:
                    self._overloaded.discard(slot)
            self.dirty.clear()
        return sorted(self._overloaded)

    # ------------------------------------------------------------------ #
    # copies                                                              #
    # ------------------------------------------------------------------ #

    def copy(self) -> "LoadColumns":
        """A copy that shares every column with this one until either side
        writes it (O(1))."""
        clone = LoadColumns.__new__(LoadColumns)
        for name in LoadColumns.__slots__:
            setattr(clone, name, getattr(self, name))
        self._layout_shared = self._loads_shared = True
        clone._layout_shared = clone._loads_shared = True
        return clone

    def _own_layout(self) -> None:
        """Take this side's own layout, the first node to join or leave
        after a copy."""
        self._index = dict(self._index)
        self._names = list(self._names)
        self._cpu_cap = list(self._cpu_cap)
        self._mem_cap = list(self._mem_cap)
        self._alive = list(self._alive)
        self._layout_shared = False

    def _own_loads(self) -> None:
        """Take this side's own load columns and scan caches, the first load
        change after a copy."""
        self._cpu_usage = list(self._cpu_usage)
        self._mem_usage = list(self._mem_usage)
        self.dirty = set(self.dirty)
        self._overloaded = set(self._overloaded)
        self._loads_shared = False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<LoadColumns nodes={len(self._index)} slots={len(self._names)} "
            f"dirty={len(self.dirty)}>"
        )
