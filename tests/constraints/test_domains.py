"""The one key of the retained unary domains, and what it keeps.

:meth:`~repro.constraints.domains.RetainedDomains.key` is the one place a
round asks whether the nodes or the catalog changed; every structure kept
beside the domains stores the generation it returns.  The churn bound of
:meth:`~repro.constraints.domains.RetainedDomains.of` reads the fleet, not
the call, so a memory shared by a policy and an engine never loses the
fleet's domains to a zone-sized call.
"""

from __future__ import annotations

import pytest

import repro.constraints.domains
from repro.constraints import Fence, PlacementConstraint, RunningCapacity
from repro.constraints.domains import RetainedDomains, vm_domains
from repro.model import Configuration, Node, make_working_nodes
from repro.model.vm import VirtualMachine


class _ReadsPlacement(PlacementConstraint):
    """A unary restriction that depends on where the VM runs."""

    vms = ()

    def allowed_nodes(self, vm_name, node_names, configuration=None):
        return None

    def is_satisfied_by(self, configuration):
        return True


def _fleet(vm_count, nodes=10):
    configuration = Configuration(
        nodes=make_working_nodes(nodes, cpu_capacity=4, memory_capacity=8192)
    )
    for index in range(vm_count):
        configuration.add_vm(VirtualMachine(name=f"vm{index}", memory=256))
    names = list(configuration.node_names)
    catalog = [Fence(configuration.vm_names, names[: nodes // 2])]
    return configuration, catalog


@pytest.fixture
def asked(monkeypatch):
    """The VM lists handed to :func:`vm_domains` through the memory."""
    calls = []

    def spy(current, vms, constraints):
        vms = list(vms)
        calls.append(vms)
        return vm_domains(current, vms, constraints)

    monkeypatch.setattr(repro.constraints.domains, "vm_domains", spy)
    return calls


class TestKey:
    def test_the_same_inputs_keep_the_generation(self):
        configuration, catalog = _fleet(4)
        memory = RetainedDomains()
        generation = memory.key(configuration, catalog)
        assert generation is memory.generation
        assert memory.key(configuration.copy(), list(catalog)) is generation

    def test_an_empty_catalog_is_keyed(self):
        configuration, _ = _fleet(4)
        memory = RetainedDomains()
        generation = memory.key(configuration, ())
        assert generation is not None
        assert memory.key(configuration, ()) is generation

    def test_a_capacity_change_is_a_new_generation(self):
        configuration, catalog = _fleet(4)
        memory = RetainedDomains()
        generation = memory.key(configuration, catalog)
        resized = Configuration(
            nodes=[
                Node(name=node.name, cpu_capacity=8, memory_capacity=8192)
                if index == 0
                else node
                for index, node in enumerate(configuration.nodes)
            ]
        )
        assert resized.node_names == configuration.node_names
        assert memory.key(resized, catalog) is not generation

    def test_new_constraint_objects_are_a_new_generation(self, asked):
        configuration, catalog = _fleet(4)
        memory = RetainedDomains()
        generation = memory.key(configuration, catalog)
        memory.of(configuration, configuration.vm_names, catalog)
        assert len(asked) == 1
        equal = [Fence(fence.vms, fence.nodes) for fence in catalog]
        assert memory.key(configuration, equal) is not generation
        memory.of(configuration, configuration.vm_names, equal)
        assert len(asked) == 2

    def test_a_restriction_reading_the_placement_keeps_nothing(self, asked):
        configuration, catalog = _fleet(4)
        memory = RetainedDomains()
        generation = memory.key(configuration, catalog)
        reading = [*catalog, _ReadsPlacement()]
        assert memory.key(configuration, reading) is None
        for _ in range(2):
            memory.of(configuration, configuration.vm_names, reading)
        assert len(asked) == 2
        # Back to a catalog that may be kept: nothing derived before stands.
        assert memory.key(configuration, catalog) is not generation


class TestChurnBound:
    def test_a_small_call_keeps_the_fleet_domains(self, asked):
        # More VMs than twice the smallest bound, so a bound read off the
        # call (one VM) would drop them.
        configuration, catalog = _fleet(1100)
        memory = RetainedDomains()
        generation = memory.key(configuration, catalog)
        fleet = memory.of(configuration, configuration.vm_names, catalog)
        configuration.add_vm(VirtualMachine(name="late", memory=256))
        domains = memory.of(configuration, ["late"], catalog)
        assert domains is fleet and len(domains) == 1101
        assert [len(vms) for vms in asked] == [1100, 1]
        assert memory.key(configuration, catalog) is generation

    def test_departed_vms_do_not_grow_the_map_without_bound(self):
        nodes = make_working_nodes(10)
        configuration = Configuration(nodes=nodes)
        catalog = [RunningCapacity(configuration.node_names, 1000)]
        memory = RetainedDomains()
        generation = memory.key(configuration, catalog)
        for wave in range(30):
            # The same nodes, and none of the last wave's VMs.
            configuration = Configuration(nodes=nodes)
            names = [f"w{wave}.{index}" for index in range(100)]
            for name in names:
                configuration.add_vm(VirtualMachine(name=name, memory=256))
            domains = memory.of(configuration, names, catalog)
            assert len(domains) <= 2 * 512 + 100
        # Starting over drops domains, not the key.
        assert memory.key(configuration, catalog) is generation
