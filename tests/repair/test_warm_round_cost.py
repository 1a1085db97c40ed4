"""What a warm ``repair-partitioned`` round costs, in counts, not clocks.

A round that restarts two VMs of a fenced fleet must pay for the two VMs,
not for the fleet: the decomposition and the unary domains are kept from the
round before, the dirty region is read from what moved, the keep-in-place
pass over the dirty VMs answers at the lower bound before any zone is cut,
the target, the reconfiguration graph and the plan are built from the VMs
that change, and the fleet is copied for what has to outlive the round (the
plan's source, the target), for the planner's working state and for the
independent checker's walk, and no more — each copy taking its own maps only
when it writes them, the assignment maps only — and the wanted states are
completed once.  So the same two restarts cost the
same number of per-VM reads on a fleet four times — or ten times — the
size.  A round the pass cannot answer (a host that must shed VMs) cuts each
dirty zone around its dirty VMs, with the frozen ones folded into the
capacities.  The counts are deterministic, so this runs with the tier-1
suite and keeps the warm path from growing back to fleet size.
"""

import pytest

import repro.constraints.domains
import repro.core.graph
import repro.core.optimizer
import repro.scale.parallel
from repro.core.context_switch import ClusterContextSwitch
from repro.core.planner import ReconfigurationPlanner
from repro.cp import Solver
from repro.model.columns import LoadColumns
from repro.model.configuration import Configuration
from repro.obs import Tracer
from repro.testing import fence_groups, make_vm

#: One restarted VM in each of two zones (``vm-<i>`` is in zone ``i % zones``).
RESTARTED = ("vm-0", "vm-1")

COUNTED = (
    "copies",
    "assignment copies",
    "description copies",
    "completions",
    "derivations",
    "builds",
    "partitions",
    "vm reads",
    "domains asked",
    "edge names",
    "vms extracted",
    "variables",
)


@pytest.fixture
def counted(monkeypatch):
    """Counts of what a round reads and builds."""
    counts = dict.fromkeys(COUNTED, 0)

    def count(owner, name, key, amount=lambda *args, **kwargs: 1):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            counts[key] += amount(*args, **kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    count(Configuration, "copy", "copies")
    # What the copies go on to copy: a copy shares every map until a side
    # writes it.
    count(Configuration, "_own_assignment", "assignment copies")
    count(Configuration, "_own_descriptions", "description copies")
    count(LoadColumns, "_own_layout", "description copies")
    count(repro.core.optimizer, "complete_states", "completions")
    count(ReconfigurationPlanner, "build", "builds")
    count(repro.scale.parallel, "partition", "partitions")
    for reader in ("location_of", "state_of", "vm"):
        count(Configuration, reader, "vm reads")
    count(Configuration, "add_vm", "vms extracted")
    count(
        repro.constraints.domains,
        "vm_domains",
        "domains asked",
        lambda current, vms, constraints: len(vms),
    )
    count(
        Solver,
        "__init__",
        "variables",
        lambda self, model, *args, **kwargs: len(model.variables),
    )
    derive = repro.core.graph._derive_edges

    def spy(current, target, names=None):
        if names is None:
            names = repro.core.graph.changed_vms(current, target)
        counts["derivations"] += 1
        counts["edge names"] += len(names)
        return derive(current, target, names)

    monkeypatch.setattr(repro.core.graph, "_derive_edges", spy)
    return counts


def _warm_round(fleet, zones, counted, overload=False):
    """A cold round, then the counted round that restarts ``RESTARTED`` —
    or, with ``overload``, in which each of them asks for its whole node,
    so that its neighbours are dirty too and have to leave."""
    catalog = fence_groups(fleet, groups=zones)
    states = fleet.states()
    with ClusterContextSwitch(
        engine="repair-partitioned", zone_executor="serial", optimizer_timeout=60
    ) as switch:
        # The cold round that leaves the engine its previous assignment,
        # the domains and the decomposition.
        current = switch.compute(fleet, states, constraints=catalog).target
        dirty = list(RESTARTED)
        for name in RESTARTED:
            if overload:
                host = current.location_of(name)
                capacity = current.node(host).capacity
                current.replace_vm(make_vm(name, memory=1024, cpu=capacity.cpu))
                dirty += [vm for vm in current.vms_on(host) if vm != name]
            else:
                current.set_waiting(name)
        switch.mark_dirty(dirty)
        for key in counted:
            counted[key] = 0
        report = switch.compute(current, states, constraints=catalog)
    assert report.repair["mode"] == "repair"
    assert report.repair["dirty_count"] == len(dirty)
    # Restarts are answered before the zones, so no zone is reported; an
    # overload solves the two dirty zones and reuses the others.
    assert report.repair["reused_zones"] == (zones - len(RESTARTED)) * overload
    assert len(report.repair) == 6
    assert report.plan.action_count() == len(dirty) - overload * len(RESTARTED)
    assert report.plan.constraint_violations == []
    return dict(counted), dirty


def _assert_costs_what_changed(counts):
    # Each dirty VM boots where the round's keep-in-place puts it, at the
    # lower bound: no zone is extracted and no model built.
    assert counts["variables"] == 0
    assert counts["vms extracted"] == 0
    # The decomposition is the kept one, and the domains it read answer for
    # the restarted VMs: nobody asks the catalog for a domain.
    assert counts["partitions"] == 0
    assert counts["domains asked"] == 0
    # One plan, its graph derived once, from the VMs that change.
    assert counts["builds"] == counts["derivations"] == 1
    assert counts["edge names"] == len(RESTARTED)
    # The plan's source and the planner's working state, the target, and
    # the checker's one working copy.
    assert counts["copies"] <= 4
    _assert_copies_and_completions(counts)


def _assert_copies_and_completions(counts):
    # A copy shares every map until it writes one: the plan's source is only
    # read and copies none, the other copies take the assignment maps, and
    # no copy takes the nodes or the VM descriptions.
    assert counts["assignment copies"] == counts["copies"] - 1
    assert counts["description copies"] == 0
    # The wanted states are completed once, by the repair engine, for the
    # attempt, the partitioned layer and every zone below it.
    assert counts["completions"] == 1


def test_a_warm_round_costs_what_changed(large_fleet_factory, counted):
    small, _ = _warm_round(large_fleet_factory(500, groups=4), 4, counted)
    large, _ = _warm_round(large_fleet_factory(2_000, groups=16), 16, counted)
    _assert_costs_what_changed(small)
    # Four times the fleet, in zones of the same size: not one more read of
    # a VM's state, host or description, anywhere in the round.
    assert large == small


@pytest.mark.slow
def test_a_warm_round_costs_what_changed_at_5000_vms(large_fleet_factory, counted):
    # Zones five times as big: more nodes to cut, the same VMs to read.
    small, _ = _warm_round(large_fleet_factory(500, groups=4), 4, counted)
    large, _ = _warm_round(large_fleet_factory(5_000, groups=8), 8, counted)
    _assert_costs_what_changed(large)
    assert large == small


@pytest.mark.parametrize("engine", ["partitioned", "repair-partitioned"])
def test_a_cold_round_cuts_no_zone(large_fleet_factory, counted, engine):
    # A cold round of an exact fenced fleet whose optimum keeps every VM in
    # place: one partition, then the keep-in-place answers for every zone.
    fleet = large_fleet_factory(500, groups=4)
    catalog = fence_groups(fleet, groups=4)
    states = fleet.states()
    fleet.set_waiting(RESTARTED[0])
    tracer = Tracer()
    with tracer.activate(), ClusterContextSwitch(
        engine=engine, zone_executor="serial", optimizer_timeout=60
    ) as switch:
        report = switch.compute(fleet, states, constraints=catalog)
    (partition_span,) = [s for s in tracer.root.walk() if s.name == "partition"]
    assert partition_span.attributes["answered"] == "incumbent"
    assert partition_span.attributes["exact"]
    assert report.plan.action_count() == 1
    assert counted["partitions"] == 1
    assert counted["vms extracted"] == 0
    assert counted["variables"] == 0


@pytest.mark.parametrize("vm_count, zones", [(500, 4), (2_000, 16)])
def test_a_warm_model_holds_the_dirty_vms_only(
    large_fleet_factory, counted, vm_count, zones
):
    # A host that must shed its other VMs has no keep-in-place answer at the
    # lower bound, so each dirty zone is searched: its model is the dirty
    # VMs and the cost, whatever the size of the zone or of the fleet.
    counts, dirty = _warm_round(
        large_fleet_factory(vm_count, groups=zones), zones, counted, overload=True
    )
    assert counts["variables"] == len(dirty) + len(RESTARTED)
    assert counts["vms extracted"] == len(dirty)
    assert counts["partitions"] == 0
    assert counts["domains asked"] == len(dirty)
    assert counts["builds"] == counts["derivations"] == 1
    _assert_copies_and_completions(counts)
