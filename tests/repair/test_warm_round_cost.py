"""What a warm ``repair-partitioned`` round costs, in counts, not clocks.

A round that restarts two VMs of a 500-VM fenced fleet must pay for the two
VMs, not for the fleet: the frozen VMs of a zone are folded into its
capacities, so a solved zone's model holds its dirty VMs and the cost
variable; the planner derives the reconfiguration graph once and keeps one
working configuration; the fleet is copied for what has to outlive the
round (the plan's source, the target) and for the independent checker's
walk, and no more.  The counts are deterministic, so this runs with the
tier-1 suite and keeps the warm path from growing back to fleet size.
"""

import pytest

import repro.core.graph
from repro.core.context_switch import ClusterContextSwitch
from repro.core.planner import ReconfigurationPlanner
from repro.model.configuration import Configuration
from repro.testing import fence_groups

ZONES = 4
#: One restarted VM in each of two zones (``vm-<i>`` is in zone ``i % 4``).
RESTARTED = ("vm-0", "vm-1")

_ZERO = {"copies": 0, "derivations": 0, "builds": 0}


@pytest.fixture
def counted(monkeypatch):
    """Counts of the fleet-sized operations."""
    counts = dict(_ZERO)

    def count(owner, name, key):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    count(Configuration, "copy", "copies")
    count(repro.core.graph, "_derive_edges", "derivations")
    count(ReconfigurationPlanner, "build", "builds")
    return counts


def test_a_warm_round_costs_what_changed(large_fleet_factory, counted, models):
    fleet = large_fleet_factory(500, groups=ZONES)
    catalog = fence_groups(fleet, groups=ZONES)
    states = fleet.states()
    with ClusterContextSwitch(
        engine="repair-partitioned", zone_executor="serial", optimizer_timeout=30
    ) as switch:
        # The cold round that leaves the engine its previous assignment.
        current = switch.compute(fleet, states, constraints=catalog).target
        for name in RESTARTED:
            current.set_waiting(name)
        switch.mark_dirty(RESTARTED)
        counted.update(_ZERO)
        models.clear()
        report = switch.compute(current, states, constraints=catalog)

    assert report.repair["mode"] == "repair"
    assert report.repair["dirty_count"] == len(RESTARTED)
    assert report.repair["reused_zones"] == ZONES - len(RESTARTED)
    assert report.plan.action_count() == len(RESTARTED)
    assert report.plan.constraint_violations == []
    # Each solved zone: its one dirty VM and the cost (125 + 1 with the
    # frozen VMs pinned inside the model).
    assert [len(model.variables) for model in models] == [1 + 1] * len(RESTARTED)
    # One plan, its graph derived once (once per pool, and once more, when
    # the graph was rebuilt from the fleet after every pool).
    assert counted["builds"] == counted["derivations"] == 1
    # The plan's source and the planner's working state, the target, and
    # the checker's two stages (8 with a copy per pool on top).
    assert counted["copies"] <= 5
