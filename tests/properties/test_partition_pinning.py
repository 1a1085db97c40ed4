"""Pinning the lazy partitioner to the retained eager reference.

PR 10 rewrote :func:`repro.scale.partition.partition` around a constraint
*membership index* (per-VM buckets instead of every-VM-asks-every-constraint
sweeps), memoized uniform restriction domains, and positional sorts instead
of O(fleet) ordering comprehensions.  The pre-rewrite implementation is
retained verbatim in ``reference_partition.py`` next to this file; this suite asserts the
two produce **field-identical** results — method, reason, exactness flag,
and every zone's index / node tuple / VM tuple / scoped constraint tuple —
on Hypothesis-generated constrained fleets and on the seeded fenced fleets
the scale benchmark uses.

The spy test at the bottom guards the other half of the tentpole's scaling
claim: zone extraction (:func:`repro.scale.parallel.build_zone_configuration`)
must read only zone-local ids from the source configuration — O(zone), never
O(fleet).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints import Ban, Fence, RunningCapacity, Spread
from repro.model import Configuration, Node, VirtualMachine
from repro.scale.parallel import build_zone_configuration
from repro.scale.partition import partition
from repro.testing import fence_groups, make_large_fleet

from reference_partition import partition_reference

CONSTRAINT_KINDS = ("fence", "ban", "spread", "pin", "running_capacity")


def _assert_same_partition(lazy, eager):
    assert lazy.method == eager.method
    assert lazy.exact == eager.exact
    assert len(lazy.zones) == len(eager.zones)
    for mine, theirs in zip(lazy.zones, eager.zones):
        assert mine.index == theirs.index
        assert mine.nodes == theirs.nodes
        assert mine.vms == theirs.vms
        # Scoped constraints must be the *same objects* in the same catalog
        # order (tuple equality falls back to identity — the catalog has no
        # value equality, which is exactly the pinning we want).
        assert mine.constraints == theirs.constraints


@st.composite
def fleet_scenarios(draw):
    node_count = draw(st.integers(min_value=4, max_value=10))
    vm_count = draw(st.integers(min_value=4, max_value=20))
    placement = [
        draw(st.integers(min_value=0, max_value=node_count - 1))
        for _ in range(vm_count)
    ]
    specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(CONSTRAINT_KINDS),
                st.lists(
                    st.integers(min_value=0, max_value=31),
                    min_size=1,
                    max_size=5,
                ),
                st.lists(
                    st.integers(min_value=0, max_value=31),
                    min_size=2,
                    max_size=5,
                ),
            ),
            max_size=5,
        )
    )
    shards = draw(st.sampled_from([None, 2, 3]))
    return node_count, vm_count, placement, specs, shards


def _build_scenario(scenario):
    node_count, vm_count, placement, specs, shards = scenario
    configuration = Configuration(
        nodes=[
            Node(name=f"n{i}", cpu_capacity=64, memory_capacity=65536)
            for i in range(node_count)
        ]
    )
    for i in range(vm_count):
        configuration.add_vm(
            VirtualMachine(name=f"v{i}", memory=512, cpu_demand=1)
        )
        configuration.set_running(f"v{i}", f"n{placement[i]}")

    constraints = []
    for kind, vm_picks, node_picks in specs:
        vms = sorted({f"v{i % vm_count}" for i in vm_picks})
        nodes = sorted({f"n{i % node_count}" for i in node_picks})
        if kind == "fence":
            constraints.append(Fence(vms, nodes))
        elif kind == "ban":
            constraints.append(Ban(vms, nodes))
        elif kind == "spread":
            constraints.append(Spread(vms))
        elif kind == "pin":
            # One-node fences: each VM kept on its host.
            constraints.extend(
                Fence([vm], [configuration.location_of(vm)]) for vm in vms
            )
        elif kind == "running_capacity":
            constraints.append(RunningCapacity(nodes, maximum=vm_count))
    return configuration, constraints, shards


@settings(max_examples=200, deadline=None)
@given(fleet_scenarios())
def test_lazy_partition_matches_eager_reference(scenario):
    configuration, constraints, shards = _build_scenario(scenario)
    target_states = configuration.states()
    lazy = partition(
        configuration, target_states, constraints, shards=shards
    )
    eager = partition_reference(
        configuration, target_states, constraints, shards=shards
    )
    _assert_same_partition(lazy, eager)


def _assert_fenced_fleet_pinned(configuration, groups=8):
    constraints = fence_groups(configuration, groups=groups)
    target_states = configuration.states()
    lazy = partition(configuration, target_states, constraints)
    eager = partition_reference(configuration, target_states, constraints)
    _assert_same_partition(lazy, eager)
    assert lazy.method == "interference"
    assert lazy.exact is True
    assert len(lazy.zones) == groups


def test_seeded_fenced_fleet_pinned(large_fleet_factory):
    _assert_fenced_fleet_pinned(large_fleet_factory(1_000))


@pytest.mark.slow
def test_seeded_fenced_fleet_pinned_at_scale(large_fleet_factory):
    _assert_fenced_fleet_pinned(large_fleet_factory(20_000))


class _SpyConfiguration(Configuration):
    """Records every id looked up through the read API, so tests can prove
    a consumer touched only the ids it was supposed to."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.node_lookups: set[str] = set()
        self.vm_lookups: set[str] = set()

    def node(self, name):
        self.node_lookups.add(name)
        return super().node(name)

    def vm(self, name):
        self.vm_lookups.add(name)
        return super().vm(name)

    def state_of(self, vm_name):
        self.vm_lookups.add(vm_name)
        return super().state_of(vm_name)

    def location_of(self, vm_name):
        self.vm_lookups.add(vm_name)
        return super().location_of(vm_name)

    def image_location_of(self, vm_name):
        self.vm_lookups.add(vm_name)
        return super().image_location_of(vm_name)

    def reset_lookups(self):
        self.node_lookups.clear()
        self.vm_lookups.clear()


def test_zone_extraction_touches_only_zone_local_ids():
    """Regression for the O(zone) claim: ``build_zone_configuration`` must
    not read any node or VM outside the zone it extracts."""
    fleet = make_large_fleet(1_000, cached=False)
    spy = _SpyConfiguration(nodes=list(fleet.nodes))
    for vm in fleet.vms:
        spy.add_vm(vm)
    for vm_name, host in fleet.placement().items():
        spy.set_running(vm_name, host)

    constraints = fence_groups(spy)
    decomposition = partition(spy, spy.states(), constraints)
    assert decomposition.method == "interference"
    for zone in decomposition.zones:
        spy.reset_lookups()
        sub = build_zone_configuration(spy, zone)
        assert spy.node_lookups <= set(zone.nodes), (
            f"zone {zone.index} extraction read foreign nodes: "
            f"{sorted(spy.node_lookups - set(zone.nodes))[:5]}"
        )
        assert spy.vm_lookups <= set(zone.vms), (
            f"zone {zone.index} extraction read foreign VMs: "
            f"{sorted(spy.vm_lookups - set(zone.vms))[:5]}"
        )
        assert sub.node_names == zone.nodes
        assert tuple(sub.vm_names) == zone.vms
