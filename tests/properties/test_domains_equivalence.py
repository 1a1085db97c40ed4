"""``vm_domains`` against the eager per-VM oracle, directly.

:func:`repro.constraints.domains.vm_domains` asks each constraint for the
members it declares among the VMs asked about (every VM for a member-less
constraint), and a restriction that is the same for every member once.  The
oracle, :func:`reference_partition.vm_domains_reference`, asks every
constraint about every VM.  Random catalogs mix ``Fence``, ``Ban``, a
member-less ``RunningCapacity`` and a restriction that reads where the VM
runs (with or without declared members); the VMs sit in none, one or
several constraints, and the list asked about repeats names and names VMs no
constraint declares.  Per VM the two agree — equal sets, ``None`` exactly
where the oracle says so — the keys follow the list asked about, and the
VMs a single uniform constraint restricts share that constraint's one set.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.constraints import Ban, Fence, PlacementConstraint, RunningCapacity
from repro.constraints.domains import vm_domains
from repro.model.configuration import Configuration
from repro.model.node import Node
from repro.model.vm import VirtualMachine

from reference_partition import vm_domains_reference


class _AwayFromHost(PlacementConstraint):
    """Not the node the VM runs on: a restriction that reads the placement,
    so it is asked per VM."""

    def __init__(self, vms=()):
        self.vms = tuple(vms)

    def allowed_nodes(self, vm_name, node_names, configuration=None):
        if self.vms and vm_name not in self.vms:
            return None
        host = configuration.location_of(vm_name)
        if host is None:
            return None
        return {node for node in node_names if node != host}

    def is_satisfied_by(self, configuration):
        return True


@st.composite
def instances(draw):
    """A fleet, a catalog over it and the VM list asked about."""
    node_names = [f"n{i}" for i in range(draw(st.integers(2, 6)))]
    configuration = Configuration(
        nodes=[Node(name, cpu_capacity=4, memory_capacity=4096) for name in node_names]
    )
    vm_names = [f"v{i}" for i in range(draw(st.integers(1, 8)))]
    for name in vm_names:
        configuration.add_vm(VirtualMachine(name=name, memory=256))
        if draw(st.booleans()):
            configuration.set_running(name, draw(st.sampled_from(node_names)))
    members = st.lists(st.sampled_from(vm_names), min_size=1, max_size=4)
    nodes = st.lists(st.sampled_from(node_names), min_size=1, max_size=4)
    catalog = []
    for kind in draw(
        st.lists(
            st.sampled_from(("fence", "ban", "capacity", "away", "away-members")),
            max_size=5,
        )
    ):
        if kind == "fence":
            catalog.append(Fence(draw(members), draw(nodes)))
        elif kind == "ban":
            catalog.append(Ban(draw(members), draw(nodes)))
        elif kind == "capacity":
            catalog.append(RunningCapacity(draw(nodes), draw(st.integers(0, 4))))
        elif kind == "away":
            catalog.append(_AwayFromHost())
        else:
            catalog.append(_AwayFromHost(draw(members)))
    # Repeated names, and VMs no constraint declares.
    asked = draw(st.lists(st.sampled_from(vm_names), max_size=12))
    return configuration, catalog, asked


@settings(max_examples=300, deadline=None)
@given(instances())
def test_vm_domains_matches_the_eager_oracle(instance):
    configuration, catalog, asked = instance
    domains = vm_domains(configuration, asked, catalog)
    expected = vm_domains_reference(configuration, asked, catalog)
    assert list(domains) == list(dict.fromkeys(asked))
    for vm in domains:
        if expected[vm] is None:
            assert domains[vm] is None
        else:
            assert domains[vm] is not None and set(domains[vm]) == expected[vm]

    # The VMs one uniform constraint alone restricts hold its one set.
    node_names = configuration.node_names
    shared = {}
    for vm in domains:
        restricting = [
            constraint
            for constraint in catalog
            if constraint.allowed_nodes(vm, node_names, configuration) is not None
        ]
        if len(restricting) == 1 and restricting[0].uniform_restriction:
            shared.setdefault(id(restricting[0]), []).append(domains[vm])
    for sets in shared.values():
        assert all(domain is sets[0] for domain in sets)
