"""Unit tests of the interference partitioner (``repro.scale.partition``)."""

from __future__ import annotations

import pytest

from repro.constraints import Ban, Fence, RunningCapacity, Spread
from repro.model.configuration import Configuration
from repro.model.node import make_working_nodes
from repro.model.vm import VMState
from repro.scale import partition, placed_vms, vm_domains
from repro.testing import make_vm


def _fleet(count=6, cpu=2, memory=4096):
    return make_working_nodes(count, cpu_capacity=cpu, memory_capacity=memory)


def _configuration(node_count=6, vm_count=6, memory=1024):
    configuration = Configuration(nodes=_fleet(node_count))
    for index in range(vm_count):
        configuration.add_vm(make_vm(f"vm{index}", memory=memory, cpu=1))
        configuration.set_running(f"vm{index}", f"node-{index % node_count}")
    return configuration


def _states(configuration):
    return {name: VMState.RUNNING for name in configuration.vm_names}


FENCE_A = ["node-0", "node-1", "node-2"]
FENCE_B = ["node-3", "node-4", "node-5"]


class TestInterferencePartition:
    def test_two_fences_two_zones(self):
        configuration = _configuration()
        constraints = [
            Fence(["vm0", "vm1", "vm2"], FENCE_A),
            Fence(["vm3", "vm4", "vm5"], FENCE_B),
        ]
        result = partition(configuration, _states(configuration), constraints)
        assert result.method == "interference"
        assert result.is_win
        assert [zone.nodes for zone in result.zones] == [
            tuple(FENCE_A),
            tuple(FENCE_B),
        ]
        assert [zone.vms for zone in result.zones] == [
            ("vm0", "vm1", "vm2"),
            ("vm3", "vm4", "vm5"),
        ]

    def test_zone_node_sets_are_disjoint_and_domains_confined(self):
        configuration = _configuration()
        constraints = [
            Fence(["vm0", "vm1"], FENCE_A),
            Fence(["vm3", "vm4"], FENCE_B),
        ]
        states = _states(configuration)
        result = partition(configuration, states, constraints)
        seen = set()
        for zone in result.zones:
            assert not (seen & set(zone.nodes))
            seen.update(zone.nodes)
        # every placed VM appears in exactly one zone
        all_vms = [vm for zone in result.zones for vm in zone.vms]
        assert sorted(all_vms) == sorted(placed_vms(states))

    def test_relational_constraint_welds_fenced_groups(self):
        configuration = _configuration()
        constraints = [
            Fence(["vm0", "vm1"], FENCE_A),
            Fence(["vm3", "vm4"], FENCE_B),
            # vm0 and vm3 must be kept apart -> their fences interfere.
            Spread(["vm0", "vm3"]),
        ]
        result = partition(configuration, _states(configuration), constraints)
        assert result.method == "monolithic" or len(result.zones) == 1

    def test_relational_with_unrestricted_member_is_monolithic(self):
        configuration = _configuration()
        constraints = [Spread(["vm0", "vm1"])]
        result = partition(configuration, _states(configuration), constraints)
        assert not result.is_win
        # Decided before any zone was cut.
        assert (result.method, result.zones) == ("monolithic", [])

    def test_relational_inside_one_fence_keeps_two_zones(self):
        configuration = _configuration()
        constraints = [
            Fence(["vm0", "vm1", "vm2"], FENCE_A),
            Fence(["vm3", "vm4", "vm5"], FENCE_B),
            Spread(["vm0", "vm1"]),
        ]
        result = partition(configuration, _states(configuration), constraints)
        assert result.method == "interference"
        assert len(result.zones) == 2
        # the Spread lands in the zone of its members only
        labels = [
            [type(c).__name__ for c in zone.constraints]
            for zone in result.zones
        ]
        assert "Spread" in labels[0]
        assert "Spread" not in labels[1]

    def test_maxonline_welds_its_node_set(self):
        configuration = _configuration()
        constraints = [
            Fence(["vm0", "vm1", "vm2"], FENCE_A),
            Fence(["vm3", "vm4", "vm5"], FENCE_B),
            RunningCapacity(["node-0", "node-3"], maximum=1),
        ]
        result = partition(configuration, _states(configuration), constraints)
        # node-0 and node-3 belong to different fences -> everything welds
        assert not result.is_win

    def test_free_vms_join_residual_pool(self):
        configuration = _configuration(node_count=6, vm_count=4)
        constraints = [Fence(["vm0", "vm1"], ["node-0", "node-1"])]
        # vm2/vm3 run on node-2/node-3 (outside the fence): they join the
        # residual zone of the four untouched nodes.
        result = partition(configuration, _states(configuration), constraints)
        assert result.method == "interference"
        assert len(result.zones) == 2
        assert set(result.zones[1].nodes) == {
            "node-2",
            "node-3",
            "node-4",
            "node-5",
        }
        assert result.zones[1].vms == ("vm2", "vm3")

    def test_empty_domain_reports_monolithic(self):
        configuration = _configuration()
        constraints = [
            Fence(["vm0"], FENCE_A),
            Ban(["vm0"], FENCE_A),
        ]
        result = partition(configuration, _states(configuration), constraints)
        assert not result.is_win
        assert (result.method, result.zones) == ("monolithic", [])

    def test_loose_ban_does_not_weld_the_fleet(self):
        configuration = _configuration()
        constraints = [
            Fence(["vm0", "vm1", "vm2"], FENCE_A),
            Fence(["vm3", "vm4", "vm5"], FENCE_B),
            # a Ban complement spans 5/6 nodes: loose, must not weld zones
            Ban(["vm3"], ["node-3"]),
        ]
        result = partition(configuration, _states(configuration), constraints)
        assert result.method == "interference"
        assert len(result.zones) == 2

    def test_all_tight_partition_is_exact(self):
        configuration = _configuration()
        constraints = [
            Fence(["vm0", "vm1", "vm2"], FENCE_A),
            Fence(["vm3", "vm4", "vm5"], FENCE_B),
        ]
        result = partition(configuration, _states(configuration), constraints)
        assert result.method == "interference"
        assert result.exact

    def test_heuristically_anchored_loose_vms_break_exactness(self):
        # vm3..vm5 are unconstrained: they anchor to the residual zone by
        # current host, which restricts their (full) domain — the partition
        # is valid but must not claim exactness.
        configuration = _configuration()
        constraints = [Fence(["vm0", "vm1", "vm2"], FENCE_A)]
        result = partition(configuration, _states(configuration), constraints)
        assert result.method == "interference"
        assert len(result.zones) == 2
        assert not result.exact


class TestShardingFallback:
    def test_unconstrained_fleet_shards_by_current_host(self):
        configuration = _configuration()
        result = partition(configuration, _states(configuration), (), shards=3)
        assert result.method == "sharded"
        assert len(result.zones) == 3
        for zone in result.zones:
            for vm in zone.vms:
                assert configuration.location_of(vm) in zone.nodes

    def test_sharding_scopes_loose_constraints_into_zones(self):
        # A Ban of one node is loose (its allowed domain spans 5/6 nodes),
        # so it never welds zones — but it still restricts placement, and
        # the shards must carry it so the zone sub-models enforce it.
        configuration = _configuration()
        ban = Ban(["vm2"], ["node-1"])
        result = partition(
            configuration, _states(configuration), [ban], shards=2
        )
        assert result.method == "sharded"
        owner = next(zone for zone in result.zones if "vm2" in zone.vms)
        assert ban in owner.constraints

    def test_sharding_anchors_outside_a_banned_current_host(self):
        # vm0 currently runs on node-0 and node-0 is banned for it: the
        # anchor is outside the domain, so the VM must land in a shard its
        # domain intersects (every shard here) and carry the Ban along.
        configuration = _configuration()
        ban = Ban(["vm0"], ["node-0"])
        result = partition(
            configuration, _states(configuration), [ban], shards=2
        )
        assert result.method == "sharded"
        owner = next(zone for zone in result.zones if "vm0" in zone.vms)
        assert ban in owner.constraints
        domain = {n for n in configuration.node_names if n != "node-0"}
        assert domain & set(owner.nodes)

    def test_sharded_partition_is_never_exact(self):
        configuration = _configuration()
        result = partition(configuration, _states(configuration), (), shards=2)
        assert result.method == "sharded"
        assert not result.exact

    def test_sharding_disabled_is_monolithic(self):
        configuration = _configuration()
        result = partition(configuration, _states(configuration), ())
        # default shards=None -> no sharding
        assert result.method == "monolithic"

    def test_single_vm_is_monolithic(self):
        configuration = _configuration(vm_count=1)
        result = partition(
            configuration, _states(configuration), (), shards=4
        )
        assert not result.is_win


class TestHelpers:
    def test_placed_vms_filters_non_running_targets(self):
        states = {
            "a": VMState.RUNNING,
            "b": VMState.SLEEPING,
            "c": VMState.TERMINATED,
            "d": VMState.RUNNING,
        }
        assert placed_vms(states) == ["a", "d"]

    def test_vm_domains_intersects_constraints(self):
        configuration = _configuration()
        domains = vm_domains(
            configuration,
            ["vm0", "vm1"],
            [
                Fence(["vm0"], FENCE_A),
                Ban(["vm0"], ["node-0"]),
            ],
        )
        assert domains["vm0"] == {"node-1", "node-2"}
        assert domains["vm1"] is None
