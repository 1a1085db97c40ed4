"""What a warm ``repair-partitioned`` round costs, in counts, not clocks.

A round that restarts two VMs of a fenced fleet must pay for the two VMs,
not for the fleet: the unary domains are kept from the round before, the
dirty region is read from what moved, the keep-in-place pass over the dirty
VMs answers at the lower bound before any model is built,
the target, the reconfiguration graph and the plan are built from the VMs
that change, and the fleet is copied for what has to outlive the round (the
plan's source, the target) and no more: the planner's working state and the
independent checker's walk are overlays of the plan's source, which copy no
map, and of the two copies only the target, which the round writes, takes
its own assignment maps — and the wanted states are completed once.  The
round reads what was written since the last one (the change journal its
domains memory marks) instead of the fleet: the dirty
rule compares only those VMs with the last assignment, the state completion
looks up only those, the plan check keeps the answers of the fences none of
them is in, and the layers below are handed the dirty VMs, never the frozen
ones; the one read of the fleet left is the copy of the observed states.
The plan is priced once.  So the same two restarts cost the
same number of per-VM reads on a fleet four times — or ten times — the
size.  A round the pass cannot answer (a host that must shed VMs) searches
one cut of its dirty VMs, with the frozen ones left in the capacities, as
the ``repair`` engine does — and so does a fresh engine's first round,
which repairs against the observed placement instead of solving the fleet.
No zone serves the attempt, so no decomposition is read.  The counts
are deterministic, so this runs with the tier-1 suite and keeps the warm
path from growing back to fleet size.
"""

import pytest

import repro.constraints.checker
import repro.constraints.domains
import repro.core.context_switch
import repro.core.graph
import repro.core.optimizer
import repro.model.configuration
import repro.repair.engine
import repro.scale.parallel
from repro.constraints.domains import RetainedDomains
from repro.core.context_switch import ClusterContextSwitch
from repro.core.planner import ReconfigurationPlanner
from repro.cp import Solver
from repro.model.columns import LoadColumns
from repro.model.configuration import Configuration
from repro.model.overlay import Overlay
from repro.obs import NULL_SPAN, Tracer
from repro.testing import fence_groups, make_vm

#: One restarted VM in each of two zones (``vm-<i>`` is in zone ``i % zones``).
RESTARTED = ("vm-0", "vm-1")
#: The restarts of the round before the counted one, in two other zones.
PRIMING = ("vm-2", "vm-3")

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
    "prices",
    "placement copies",
    "state copies",
    "domain lookups",
    "dirty handed",
    "constraint asks",
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
    # The walks of the plan read through overlays.
    for reader in ("location_of", "state_of"):
        count(Overlay, reader, "vm reads")
    count(Configuration, "add_vm", "vms extracted")
    # The bulk reads of the fleet.
    count(Configuration, "placement", "placement copies")
    count(Configuration, "states", "state copies")
    count(
        RetainedDomains,
        "of",
        "domain lookups",
        lambda self, current, vms, constraints: len(vms),
    )
    count(
        repro.scale.parallel.ParallelOptimizer,
        "optimize",
        "dirty handed",
        lambda *args, dirty=None, **kwargs: -1 if dirty is None else len(dirty),
    )
    count(repro.constraints.checker, "_violation", "constraint asks")
    for module in (repro.core.optimizer, repro.core.context_switch):
        count(module, "plan_cost", "prices")
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


def _overload(current):
    """Make each of ``RESTARTED`` ask for its whole node, so that its
    neighbours have to leave; the VMs to mark dirty."""
    dirty = list(RESTARTED)
    for name in RESTARTED:
        host = current.location_of(name)
        capacity = current.node(host).capacity
        current.replace_vm(make_vm(name, memory=1024, cpu=capacity.cpu))
        dirty += [vm for vm in current.vms_on(host) if vm != name]
    return dirty


def _warm_round(fleet, zones, counted, overload=False, tracer=None):
    """A first round, a later one that restarts ``PRIMING``, then the
    counted round that restarts ``RESTARTED`` — or, with ``overload``, in
    which each of them asks for its whole node (:func:`_overload`)."""
    catalog = fence_groups(fleet, groups=zones)
    states = fleet.states()
    with ClusterContextSwitch(
        engine="repair-partitioned", zone_executor="serial", optimizer_timeout=60
    ) as switch:
        # The first round that leaves the engine its previous assignment,
        # the domains and the decomposition, and a second one whose plan
        # check leaves it what the fences said of its input.
        current = switch.compute(fleet, states, constraints=catalog).target
        for name in PRIMING:
            current.set_waiting(name)
        switch.mark_dirty(PRIMING)
        current = switch.compute(current, states, constraints=catalog).target
        if overload:
            dirty = _overload(current)
        else:
            dirty = list(RESTARTED)
            for name in RESTARTED:
                current.set_waiting(name)
        switch.mark_dirty(dirty)
        for key in counted:
            counted[key] = 0
        if tracer is None:
            report = switch.compute(current, states, constraints=catalog)
        else:
            with tracer.activate():
                report = switch.compute(current, states, constraints=catalog)
    assert report.repair["mode"] == "repair"
    assert report.repair["dirty_count"] == len(dirty)
    assert len(report.repair) == 5
    assert report.plan.action_count() == len(dirty) - overload * len(RESTARTED)
    assert report.plan.constraint_violations == []
    return dict(counted), dirty, report


def _assert_costs_what_changed(counts):
    # Each dirty VM boots where the round's keep-in-place puts it, at the
    # lower bound: no cut is extracted and no model built.
    assert counts["variables"] == 0
    assert counts["vms extracted"] == 0
    # No decomposition is read, and the kept domains answer for the
    # restarted VMs: nobody asks the catalog for a domain.
    assert counts["partitions"] == 0
    assert counts["domains asked"] == 0
    # One plan, its graph derived once, from the VMs that change.
    assert counts["builds"] == counts["derivations"] == 1
    assert counts["edge names"] == len(RESTARTED)
    # The plan's source and the target; the planner and the checker walk
    # overlays.
    assert counts["copies"] <= 2
    _assert_copies_and_completions(counts)
    _assert_reads_what_was_written(counts)


def _assert_reads_what_was_written(counts):
    # The one read of the fleet a warm round keeps: the copy of the
    # observed states that the completed states are made of.
    assert counts["state copies"] == 1
    assert counts["placement copies"] == 0
    # The dirty rule looks up the domains of the running VMs written since
    # the last round's input or moved by its plan (the re-placed
    # ``PRIMING``), not of every running VM; the attempt's keep-in-place
    # looks up the restarted VMs'.
    assert counts["domain lookups"] == len(PRIMING) + len(RESTARTED)
    # The attempt is handed the dirty VMs, the small side.
    assert counts["dirty handed"] == len(RESTARTED)
    # A one-stage plan: the fences of the restarted VMs are asked of that
    # stage, the fences of ``PRIMING`` (written since) once on the source,
    # and the others keep what they said of the last round's input.
    assert counts["constraint asks"] == len(RESTARTED) + len(PRIMING)
    # One price per plan: the report reads the optimizer's.
    assert counts["prices"] == 1


def _assert_copies_and_completions(counts):
    # A copy shares every map until it writes one: the plan's source is only
    # read and copies none, the target — the one configuration the round
    # writes that outlives it — takes the assignment maps, the overlays
    # take none, and no copy takes the nodes or the VM descriptions.
    assert counts["assignment copies"] == counts["copies"] - 1
    assert counts["assignment copies"] <= 1
    assert counts["description copies"] == 0
    # The wanted states are completed once, by the repair engine, for the
    # attempt, the partitioned layer and every zone below it.
    assert counts["completions"] == 1


def test_a_warm_round_costs_what_changed(large_fleet_factory, counted):
    small, _, _ = _warm_round(large_fleet_factory(500, groups=4), 4, counted)
    large, _, _ = _warm_round(large_fleet_factory(2_000, groups=16), 16, counted)
    _assert_costs_what_changed(small)
    # Four times the fleet, in zones of the same size: not one more read of
    # a VM's state, host or description, anywhere in the round.
    assert large == small


@pytest.mark.slow
def test_a_warm_round_costs_what_changed_at_5000_vms(large_fleet_factory, counted):
    # Zones five times as big: more nodes to cut, the same VMs to read.
    small, _, _ = _warm_round(large_fleet_factory(500, groups=4), 4, counted)
    large, _, _ = _warm_round(large_fleet_factory(5_000, groups=8), 8, counted)
    _assert_costs_what_changed(large)
    assert large == small


@pytest.mark.parametrize("engine", ["partitioned", "repair-partitioned"])
def test_a_cold_round_cuts_no_zone(large_fleet_factory, counted, engine):
    # A cold round of an exact fenced fleet whose optimum keeps every VM in
    # place: the keep-in-place answers before any partition is cut.
    fleet = large_fleet_factory(500, groups=4)
    catalog = fence_groups(fleet, groups=4)
    states = fleet.states()
    fleet.set_waiting(RESTARTED[0])
    tracer = Tracer()
    with tracer.activate(), ClusterContextSwitch(
        engine=engine, zone_executor="serial", optimizer_timeout=60
    ) as switch:
        report = switch.compute(fleet, states, constraints=catalog)
    # A first repair round is an attempt against the observed placement, a
    # partitioned round is the whole fleet: both pass before any partition.
    assert [s for s in tracer.root.walk() if s.name == "partition"] == []
    (solve,) = [s for s in tracer.root.walk() if s.name == "cp.solve"]
    assert solve.attributes["stop"] == "incumbent"
    assert report.plan.action_count() == 1
    assert counted["partitions"] == 0
    assert counted["vms extracted"] == 0
    assert counted["variables"] == 0


@pytest.mark.parametrize("vm_count, zones", [(500, 4), (2_000, 16)])
def test_a_warm_model_holds_the_dirty_vms_only(
    large_fleet_factory, counted, vm_count, zones
):
    # A host that must shed its other VMs has no keep-in-place answer at the
    # lower bound, so one cut of the dirty VMs is searched: its model is the
    # dirty VMs and the cost, whatever the size of the zones or of the fleet.
    counts, dirty, _ = _warm_round(
        large_fleet_factory(vm_count, groups=zones), zones, counted, overload=True
    )
    assert counts["variables"] == len(dirty) + 1
    assert counts["vms extracted"] == len(dirty)
    assert counts["partitions"] == 0
    # The cut is searched with the domains the round already holds.
    assert counts["domains asked"] == 0
    assert counts["builds"] == counts["derivations"] == 1
    _assert_copies_and_completions(counts)


def _cold_overload(fleet, zones, counted, engine):
    """The overload of the counted warm round, on a fresh switch's first
    round: no previous assignment, no kept domains."""
    catalog = fence_groups(fleet, groups=zones)
    states = fleet.states()
    dirty = _overload(fleet)
    for key in counted:
        counted[key] = 0
    with ClusterContextSwitch(
        engine=engine, zone_executor="serial", optimizer_timeout=60
    ) as switch:
        switch.mark_dirty(dirty)
        report = switch.compute(fleet, states, constraints=catalog)
    assert report.repair["mode"] == "repair"
    assert report.repair["dirty_count"] == len(dirty)
    assert report.plan.constraint_violations == []
    # The model is the dirty VMs and the cost variable of the one cut both
    # engines search.
    assert counted["variables"] == len(dirty) + 1
    assert counted["vms extracted"] == len(dirty)


@pytest.mark.parametrize("engine", ["repair", "repair-partitioned"])
@pytest.mark.parametrize("vm_count, zones", [(500, 4), (2_000, 16)])
def test_a_cold_model_holds_the_dirty_vms_only(
    large_fleet_factory, counted, vm_count, zones, engine
):
    # A first round is a round against the observed placement: the
    # overloaded hosts' residents are the model, not their zones.
    fleet = large_fleet_factory(vm_count, groups=zones)
    _cold_overload(fleet, zones, counted, engine)


@pytest.mark.slow
@pytest.mark.parametrize("engine", ["repair", "repair-partitioned"])
def test_a_cold_model_holds_the_dirty_vms_only_at_5000_vms(
    large_fleet_factory, counted, engine
):
    _cold_overload(large_fleet_factory(5_000, groups=8), 8, counted, engine)


def _spans(tracer, name):
    return [span.attributes for span in tracer.root.walk() if span.name == name]


def _plan(report):
    return (
        [[str(action) for action in pool] for pool in report.plan.pools],
        [str(violation) for violation in report.plan.constraint_violations],
        report.cost.total,
        report.repair,
    )


def test_past_the_cap_a_round_reads_the_fleet_and_plans_the_same(
    large_fleet_factory, counted, monkeypatch
):
    fleet = large_fleet_factory(2_000, groups=16)
    journaled, scanned = Tracer(), Tracer()
    _, _, ours = _warm_round(fleet, 16, counted, tracer=journaled)
    # The round read the VMs written since the last round's input (the two
    # restarts, and the two re-placed by the last plan) and kept what the
    # twelve fences none of them is in said of it.
    assert _spans(journaled, "dirty-set") == [
        {"scanned": len(RESTARTED + PRIMING), "source": "journal"}
    ]
    assert _spans(journaled, "check-plan") == [
        {
            "stages": 1,
            "asked": len(RESTARTED + PRIMING),
            "kept": 16 - len(RESTARTED + PRIMING),
        }
    ]
    # A journal past its cap answers nothing: the round compares every
    # running VM with the last assignment and asks every fence.
    monkeypatch.setattr(repro.model.configuration, "JOURNAL_CAP", 1)
    _, _, theirs = _warm_round(fleet, 16, counted, tracer=scanned)
    assert _spans(scanned, "dirty-set") == [
        {"scanned": 2_000 - len(RESTARTED), "source": "scan"}
    ]
    assert _spans(scanned, "check-plan") == [{"stages": 1, "asked": 16, "kept": 0}]
    assert counted["placement copies"] == 0
    assert _plan(ours) == _plan(theirs)


def test_the_round_spans_are_inert_without_a_tracer(
    large_fleet_factory, counted, monkeypatch
):
    entered = []
    for module in (repro.repair.engine, repro.constraints.checker):

        class recording(module.span):
            def __enter__(self):
                handle = super().__enter__()
                entered.append((self._name, handle))
                return handle

        monkeypatch.setattr(module, "span", recording)
    fleet = large_fleet_factory(500, groups=4)
    _, _, bare = _warm_round(fleet, 4, counted)
    # Without a tracer each span is the inert one, whose attributes go
    # nowhere; the round plans as a traced one does.
    assert {"dirty-set", "check-plan"} <= {name for name, _ in entered}
    assert all(handle is NULL_SPAN for _, handle in entered)
    _, _, traced = _warm_round(fleet, 4, counted, tracer=Tracer())
    assert _plan(bare) == _plan(traced)
