"""Naive reference implementation of the hot Configuration reads.

:class:`NaiveConfiguration` preserves the pre-PR-10 O(fleet) dict-walk
implementations of every read that the indexed :class:`Configuration` now
serves from its columnar caches.  It is the *oracle* of the differential test
harness: the Hypothesis suite next to it
(``test_configuration_equivalence.py``) drives an indexed
configuration and a naive one in lockstep through random mutation sequences
and asserts the answers never diverge.

The class inherits every *mutator* unchanged — state transitions are not what
the refactor touched — and overrides the reads, recomputing each answer
from the placement/state dicts exactly like the historical code did, and
:meth:`~NaiveConfiguration.copy`, which copies every map on the spot instead
of sharing it until the first write: a fork of the oracle shares nothing, so
a write that leaks across a fork of the indexed side shows as a divergence.
It lives with the tests because nothing in the shipped package may use it.
"""

from __future__ import annotations

import copy

from repro.model.configuration import Configuration, ViabilityViolation
from repro.model.resources import ResourceVector
from repro.model.vm import VMState


class NaiveConfiguration(Configuration):
    """A Configuration whose reads re-walk the placement dicts (the pre-index
    semantics, retained as the differential-testing oracle)."""

    def copy(self) -> "NaiveConfiguration":
        """Every map copied eagerly: the semantics of a copy before copies
        shared their maps."""
        clone = NaiveConfiguration()
        clone._nodes = dict(self._nodes)
        clone._vms = dict(self._vms)
        clone._placement = dict(self._placement)
        clone._images = dict(self._images)
        clone._states = dict(self._states)
        clone._vm_index = dict(self._vm_index)
        clone._columns = copy.deepcopy(self._columns)
        clone._members = {node: set(vms) for node, vms in self._members.items()}
        clone._owned = set(clone._members)
        clone._image_members = {
            node: set(vms) for node, vms in self._image_members.items()
        }
        clone._placement_rank = dict(self._placement_rank)
        clone._rank_counter = self._rank_counter
        return clone

    def vms_on(self, node_name: str) -> tuple[str, ...]:
        self.node(node_name)
        return tuple(
            vm for vm, node in self._placement.items() if node == node_name
        )

    def images_on(self, node_name: str) -> tuple[str, ...]:
        # The historical computation (pre-PR-10 ``evict_node``): filter the
        # sleeping VMs — i.e. VM registration order — by image location.
        self.node(node_name)
        return tuple(
            vm
            for vm, state in self._states.items()
            if state is VMState.SLEEPING and self._images.get(vm) == node_name
        )

    def usage_of(self, node_name: str) -> ResourceVector:
        self.node(node_name)
        return ResourceVector.total(
            self._vms[vm].demand
            for vm, node in self._placement.items()
            if node == node_name
        )

    def free_capacity(self, node_name: str) -> ResourceVector:
        return self._nodes[node_name].capacity - self.usage_of(node_name)

    def total_usage(self) -> ResourceVector:
        return ResourceVector.total(
            self._vms[vm].demand for vm in self._placement
        )

    def total_capacity(self) -> ResourceVector:
        return ResourceVector.total(node.capacity for node in self._nodes.values())

    def viability_violations(
        self, only_dirty: bool = False
    ) -> list[ViabilityViolation]:
        """Single full pass over the placement; ``only_dirty`` is accepted
        for interface compatibility but there is nothing incremental here."""
        del only_dirty
        cpu_usage: dict[str, int] = {}
        memory_usage: dict[str, int] = {}
        for vm_name, node_name in self._placement.items():
            vm = self._vms[vm_name]
            cpu_usage[node_name] = cpu_usage.get(node_name, 0) + vm.cpu_demand
            memory_usage[node_name] = (
                memory_usage.get(node_name, 0) + vm.memory
            )
        violations = []
        for node in self._nodes.values():
            cpu = cpu_usage.get(node.name, 0)
            memory = memory_usage.get(node.name, 0)
            if cpu > node.cpu_capacity or memory > node.memory_capacity:
                violations.append(
                    ViabilityViolation(
                        node=node.name,
                        capacity=node.capacity,
                        usage=ResourceVector(cpu, memory),
                    )
                )
        return violations
