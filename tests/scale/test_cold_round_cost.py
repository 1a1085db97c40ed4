"""What a cold ``partitioned`` round's keep-in-place costs, in counts, not clocks.

A fresh switch on a fenced fleet that restarts one VM answers before any
partition is cut: every VM stays home but the restarted one.  The pass that finds so
reads node loads and the VMs that cannot stay — the leaving, the misplaced,
the arriving — so it asks for as many VM descriptions, prices as many VMs
and packs as many on a fleet four times (or ten times) the size.  The unary
domains in front of it are computed one constraint at a time: a ``Fence``,
whose restriction is the same for every member, is asked once per call
however many members it has.  The counts are deterministic, so this runs
with the tier-1 suite and keeps the cold pass from growing back to fleet
size, and the partition from coming back in front of it: a round the pass
answers calls ``partition`` no time, a round it declines (an overloaded
host) exactly once.
"""

import pytest

import repro.constraints.domains
import repro.scale.parallel
from repro.constraints import Fence
from repro.core.context_switch import ClusterContextSwitch
from repro.core.optimizer import ContextSwitchOptimizer
from repro.model.configuration import Configuration
from repro.scale import ParallelOptimizer
from repro.testing import fence_groups

RESTARTED = "vm-0"

COUNTED = (
    "vm reads",
    "movement costs",
    "packed vms",
    "domain calls",
    "fence asks",
    "partitions",
)


@pytest.fixture
def counted(monkeypatch):
    """What the keep-in-place pass reads per VM (``in_pass``), and what the
    domains ask and how many partitions are cut anywhere in the round."""
    counts = dict.fromkeys(COUNTED, 0)
    inside = []

    def spy(owner, name, key, amount=lambda *args: 1, wrap=None, in_pass=True):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            if inside or not in_pass:
                counts[key] += amount(*args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrap(counting) if wrap else counting)

    spy(Configuration, "vm", "vm reads")
    spy(ContextSwitchOptimizer, "_movement_costs", "movement costs", wrap=staticmethod)
    spy(
        ContextSwitchOptimizer,
        "_incumbent",
        "packed vms",
        lambda demands, *args: len(demands),
        wrap=staticmethod,
    )
    spy(repro.constraints.domains, "vm_domains", "domain calls", in_pass=False)
    spy(Fence, "allowed_nodes", "fence asks", in_pass=False)
    spy(repro.scale.parallel, "partition", "partitions", in_pass=False)

    keep_in_place = ParallelOptimizer._keep_in_place

    def pass_(self, *args):
        inside.append(True)
        try:
            return keep_in_place(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(ParallelOptimizer, "_keep_in_place", pass_)
    return counts


def _cold_round(fleet, zones, counted):
    """One fresh partitioned switch over ``fleet`` fenced into ``zones``
    groups, with ``RESTARTED`` observed waiting; the round's counts."""
    catalog = fence_groups(fleet, groups=zones)
    states = fleet.states()
    fleet.set_waiting(RESTARTED)
    for key in counted:
        counted[key] = 0
    switch = ClusterContextSwitch(engine="partitioned", optimizer_timeout=60)
    report = switch.compute(fleet, states, constraints=catalog)
    # Answered by the pass: no partition, no search node anywhere.
    assert counted["partitions"] == 0
    assert report.statistics.nodes == 0
    assert report.plan.action_count() == 1
    assert report.target.state_of(RESTARTED) is states[RESTARTED]
    # Each Fence restricts every member the same way: asked once a call.
    assert counted["domain calls"] >= 1
    assert counted["fence asks"] == len(catalog) * counted["domain calls"]
    return dict(counted)


def _keep_in_place_reads(counts):
    return {key: counts[key] for key in ("vm reads", "movement costs", "packed vms")}


def test_a_cold_keep_in_place_reads_what_changed(large_fleet_factory, counted):
    small = _cold_round(large_fleet_factory(500, groups=4), 4, counted)
    large = _cold_round(large_fleet_factory(2_000, groups=16), 16, counted)
    # Only the restarted VM is priced and packed: every other one stays
    # home, which its node's load says without reading it.
    assert small["movement costs"] == small["packed vms"] == 1
    # Four times the fleet: not one more VM read inside the pass.
    assert _keep_in_place_reads(large) == _keep_in_place_reads(small)


@pytest.mark.slow
def test_a_cold_keep_in_place_reads_what_changed_at_5000_vms(
    large_fleet_factory, counted
):
    small = _cold_round(large_fleet_factory(500, groups=4), 4, counted)
    large = _cold_round(large_fleet_factory(5_000, groups=8), 8, counted)
    assert _keep_in_place_reads(large) == _keep_in_place_reads(small)


def test_a_cold_round_the_pass_declines_partitions_once(
    large_fleet_factory, counted
):
    # One VM asks for all of its host's processing units: that host is left
    # short, the pass declines, and the round partitions once and solves
    # the zones.
    fleet = large_fleet_factory(500, groups=4)
    catalog = fence_groups(fleet, groups=4)
    overloaded = fleet.vm_names[len(fleet.vm_names) // 3]
    host = fleet.location_of(overloaded)
    fleet.replace_vm(
        fleet.vm(overloaded).with_cpu_demand(fleet.node(host).capacity.cpu)
    )
    states = fleet.states()
    switch = ClusterContextSwitch(engine="partitioned", optimizer_timeout=60)
    report = switch.compute(fleet, states, constraints=catalog)
    assert counted["partitions"] == 1
    assert report.target.is_viable()
    assert report.plan.action_count() >= 1
