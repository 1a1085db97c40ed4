"""The round's keep-in-place against the search it stands for.

Under a catalog with no relational constraint, one pass
(``ContextSwitchOptimizer._keep_in_place``) packs the VMs a solve places,
keeping each in place where it can, and the solve plans that assignment when
it costs the lower bound, with no model.  On a cold round whose placed VMs
all have tight domains (so the decomposition would be exact) the pass runs
before any partition and stands for the zones: no home and no candidate
crosses one, and each zone's own keep-in-place packs its VMs in the same
order over the same capacities.  When those domains weld into one component
there are no zones, and the pass stands for the monolithic search's own
incumbent, over the same VMs in the same order.  On a warm round (the repair
attempt, handed the dirty VMs) it stands for the one cut of the dirty VMs,
whose incumbent packs them in the same order over what the frozen VMs leave.
The reference is the same optimizer with the pass declining, which forces
the partition and the zones, the monolithic search or the cut.

Random fenced fleets, cold and warm (a frozen region the repair engine could
hand over), with restarts (running VMs observed waiting), departures (running
VMs wanted sleeping), sleeping VMs whose image lies inside or outside their
fence, VMs running outside their fence and hosts overloaded by the draw:
every assignment planned, the target placement and states, the plan pools,
the costs are identical; only the partition outcome differs, ``"monolithic"``
where the pass answered.  Seven rounds are always run: a warm restart that
must skip a node full of frozen VMs and take one a departure frees, an
overload whose keep-in-place misses the bound, two overlapping fences that
weld into one component, and the node-load cases the pass decides on — a host overloaded by VMs that all
stay, one a departure frees, a resume onto a full image host and a VM
outside its fence beside stayers — whose answer (or refusal) and lower
bound are pinned too, since declining is always equivalent.  A spy
sees every call of the pass: none under a relational catalog, none on a
cold round with a loosely-restricted VM (whose decomposition would be
inexact or sharded); a round it answers opens no ``partition`` span, a cold
round it declines opens one, and a warm round none — the draws include all
of them.
"""
from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.constraints import Ban, Fence, Spread
from repro.constraints.domains import vm_domains
from repro.core.optimizer import ContextSwitchOptimizer
from repro.model.configuration import Configuration
from repro.model.errors import PlanningError
from repro.model.node import Node
from repro.model.vm import VirtualMachine, VMState
from repro.obs import Tracer
from repro.scale import ParallelOptimizer
from repro.scale.partition import is_tight

MEMORY_CHOICES = (256, 512, 1024)
#: Mostly fenced fleets (exact decompositions); a loose ``Ban`` on one VM
#: (an inexact interference decomposition), a ``Spread`` inside one fence (a
#: relational catalog) and a lone ``Ban`` (a sharded decomposition).
CATALOGS = ("fenced",) * 5 + ("loose-member", "spread", "sharded")


@st.composite
def rounds(draw, kinds=CATALOGS):
    """A fleet, its catalog (one of ``kinds``), the wanted states and a
    frozen region."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    node_count = sum(sizes) + draw(st.integers(0, 2))
    configuration = Configuration()
    for i in range(node_count):
        configuration.add_node(
            Node(
                name=f"n{i}",
                cpu_capacity=draw(st.integers(1, 4)),
                memory_capacity=draw(st.sampled_from((1024, 2048, 4096))),
            )
        )
    node_names = list(configuration.node_names)
    fences, start = [], 0
    for size in sizes:
        fences.append(node_names[start : start + size])
        start += size
    groups = [[] for _ in fences]
    states = {}
    for i in range(draw(st.integers(3, 10))):
        group = draw(st.integers(0, len(fences) - 1))
        inside = fences[group]
        vm = VirtualMachine(
            name=f"v{i}",
            memory=draw(st.sampled_from(MEMORY_CHOICES)),
            cpu_demand=draw(st.integers(0, 2)),
        )
        configuration.add_vm(vm)
        groups[group].append(vm.name)
        # Hosts and images are drawn, not probed: an overloaded node, a VM
        # outside its fence, an image on a foreign node are all inputs.
        nodes = draw(st.sampled_from((inside, inside, node_names)))
        state = draw(st.sampled_from(("running",) * 3 + ("sleeping", "waiting")))
        wanted = VMState.RUNNING
        if state == "running":
            configuration.set_running(vm.name, draw(st.sampled_from(nodes)))
            if draw(st.integers(0, 2)) == 0:
                wanted = VMState.SLEEPING  # a departure
        elif state == "sleeping":
            configuration.set_sleeping(vm.name, draw(st.sampled_from(nodes)))
        states[vm.name] = wanted

    kind = draw(st.sampled_from(kinds))
    if kind == "empty":
        catalog = []
    elif kind == "sharded":
        catalog = [Ban(configuration.vm_names[:1], node_names[:1])]
    else:
        if kind == "loose-member":
            # The first VM leaves its fence for a Ban: a domain too wide to
            # weld, anchored to a zone by its host.
            loose = configuration.vm_names[0]
            groups = [[vm for vm in vms if vm != loose] for vms in groups]
        catalog = [Fence(vms, nodes) for vms, nodes in zip(groups, fences) if vms]
        if kind == "loose-member":
            catalog.append(Ban([loose], node_names[:1]))
        elif kind == "spread":
            largest = max(groups, key=len)
            if len(largest) >= 2:
                catalog.append(Spread(largest[:2]))

    # What the dirty rule may freeze: a VM that runs, must keep running,
    # inside its domain, on a host that is not overloaded.
    placement = configuration.placement()
    domains = vm_domains(configuration, placement, catalog)
    overloaded = {v.node for v in configuration.viability_violations()}
    freezable = [
        vm
        for vm, host in placement.items()
        if states[vm] is VMState.RUNNING
        and host not in overloaded
        and (domains[vm] is None or host in domains[vm])
    ]
    frozen = set()
    if freezable and draw(st.integers(0, 2)):
        # A warm round freezes most of what it may and re-places a few.
        dirty = draw(st.lists(st.sampled_from(freezable), unique=True, max_size=3))
        frozen = set(freezable) - set(dirty)
    return configuration, catalog, states, frozen


def _fenced_pair(cpu, vms):
    """Six nodes of ``cpu`` processing units in two fences of three, and the
    VMs ``(name, cpu, memory, host, fence)`` on them, all wanted running."""
    configuration = Configuration()
    for i in range(6):
        configuration.add_node(Node(f"n{i}", cpu_capacity=cpu, memory_capacity=4096))
    groups = ([], [])
    for name, demand, memory, host, fence in vms:
        configuration.add_vm(
            VirtualMachine(name=name, memory=memory, cpu_demand=demand)
        )
        if host is not None:
            configuration.set_running(name, host)
        groups[fence].append(name)
    catalog = [
        Fence(groups[0], ["n0", "n1", "n2"]),
        Fence(groups[1], ["n3", "n4", "n5"]),
    ]
    return configuration, catalog, dict.fromkeys(groups[0] + groups[1], VMState.RUNNING)


def _a_warm_restart_between_full_and_freed_nodes():
    """``v0`` is frozen on a full ``n0`` and ``v1`` leaves ``n1``: the
    restarted ``v2`` fits on ``n1`` only in what ``v1`` releases."""
    configuration, catalog, states = _fenced_pair(
        2,
        [
            ("v0", 2, 512, "n0", 0),
            ("v1", 2, 512, "n1", 0),
            ("v2", 1, 512, None, 0),
            ("v3", 1, 512, "n3", 1),
            ("v4", 1, 512, "n4", 1),
        ],
    )
    states["v1"] = VMState.SLEEPING
    return configuration, catalog, states, {"v0", "v3", "v4"}


def _an_overload_keeping_the_dearer_vm():
    """``x`` and ``y`` share a one-unit ``n0``: keeping ``x`` in place moves
    the dearer ``y``, above the bound, and the zone's search moves ``x``."""
    configuration, catalog, states = _fenced_pair(
        1,
        [
            ("x", 1, 512, "n0", 0),
            ("y", 1, 1024, "n0", 0),
            ("z", 1, 512, "n3", 1),
        ],
    )
    return configuration, catalog, states, set()


def _a_host_overloaded_by_stayers():
    """``x``, ``y`` and ``z`` all keep running on a two-unit ``n0``: no
    node load lets every stayer stay, so the pass declines."""
    configuration, catalog, states = _fenced_pair(
        2,
        [
            ("x", 1, 512, "n0", 0),
            ("y", 1, 512, "n0", 0),
            ("z", 1, 512, "n0", 0),
            ("w", 1, 512, "n3", 1),
        ],
    )
    return configuration, catalog, states, set()


def _a_host_freed_by_a_departure():
    """The same overloaded ``n0``, but ``z`` leaves it: what it holds is
    room again, and every other VM stays."""
    configuration, catalog, states, frozen = _a_host_overloaded_by_stayers()
    states["z"] = VMState.SLEEPING
    return configuration, catalog, states, frozen


def _a_resume_onto_a_full_image_host():
    """``s`` sleeps with its image on ``n0``, which ``x`` fills: resuming
    it there leaves ``n0`` short, so the pass declines."""
    configuration, catalog, states = _fenced_pair(
        1,
        [
            ("x", 1, 512, "n0", 0),
            ("s", 1, 512, None, 0),
            ("w", 1, 512, "n3", 1),
        ],
    )
    configuration.set_sleeping("s", "n0")
    return configuration, catalog, states, set()


def _a_vm_outside_its_fence_beside_stayers():
    """``o`` is fenced on ``n0``-``n2`` but runs on ``n3`` beside ``w``:
    it is homeless, priced one migration, and the others stay."""
    configuration, catalog, states = _fenced_pair(
        2,
        [
            ("x", 1, 512, "n0", 0),
            ("o", 1, 1024, "n3", 0),
            ("w", 1, 512, "n3", 1),
        ],
    )
    return configuration, catalog, states, set()


#: The node-load rounds, with the lower bound the pass answers at (``None``
#: where it declines).
NODE_LOAD_ROUNDS = [
    (_a_host_overloaded_by_stayers, None),
    (_a_host_freed_by_a_departure, 0),
    (_a_resume_onto_a_full_image_host, None),
    (_a_vm_outside_its_fence_beside_stayers, 1024),
]


def _welded_fences():
    """Two tight fences, ``n0``-``n2`` and ``n2``-``n4``, that share ``n2``
    and weld into one component: no zone, so the whole-fleet search answers
    the reference.  ``r`` restarts into the first fence, whose ``n0`` is
    full, and ``d`` leaves the shared node."""
    configuration = Configuration()
    for i in range(6):
        configuration.add_node(Node(f"n{i}", cpu_capacity=2, memory_capacity=2048))
    for name, memory, host in (
        ("a", 1024, "n0"),
        ("b", 1024, "n0"),
        ("r", 512, None),
        ("d", 512, "n2"),
        ("c", 1024, "n2"),
        ("e", 512, "n4"),
    ):
        configuration.add_vm(VirtualMachine(name=name, memory=memory, cpu_demand=1))
        if host is not None:
            configuration.set_running(name, host)
    catalog = [
        Fence(["a", "b", "r"], ["n0", "n1", "n2"]),
        Fence(["d", "c", "e"], ["n2", "n3", "n4"]),
    ]
    states = dict.fromkeys(configuration.vm_names, VMState.RUNNING)
    states["d"] = VMState.SLEEPING
    return configuration, catalog, states, set()


def _dirty(states, frozen):
    """What the layers below the repair engine are handed for a frozen
    region: the VMs to run that are not frozen (``None``: nothing frozen)."""
    if not frozen:
        return None
    return {vm for vm, state in states.items() if state is VMState.RUNNING} - frozen


def _partitioned():
    return ParallelOptimizer(timeout=10.0, zone_executor="serial")


def _monolithic():
    return ContextSwitchOptimizer(timeout=10.0)


def _solve(instance, keep_in_place, make=_partitioned, whole=False):
    """One solve by a fresh optimizer (``make``), with the pass
    (``keep_in_place``) or declining it, handed the frozen region unless
    ``whole``; and what the round showed: whether each call of the pass
    answered, and the decompositions its partition spans report.  Every
    search is handed the domains :func:`vm_domains` computes over what it
    searches — a cut under its residual catalog too."""
    configuration, catalog, states, frozen = instance
    planned, calls = [], []
    real_pass = ContextSwitchOptimizer._keep_in_place
    real_finish = ContextSwitchOptimizer._finish
    real_search = ContextSwitchOptimizer._search

    def spy(self, *args):
        found = real_pass(self, *args) if keep_in_place else None
        calls.append(found is not None)
        return found

    def finish(self, current, completed, found, *args):
        if found[0] is not None:
            planned.append(dict(found[0]))
        return real_finish(self, current, completed, found, *args)

    def search(self, current, vms, domains, constraints, deadline):
        assert {vm: domains[vm] for vm in vms} == vm_domains(current, vms, constraints)
        return real_search(self, current, vms, domains, constraints, deadline)

    dirty = None if whole else _dirty(states, frozen)
    tracer = Tracer()
    with mock.patch.object(
        ContextSwitchOptimizer, "_keep_in_place", spy
    ), mock.patch.object(
        ContextSwitchOptimizer, "_finish", finish
    ), mock.patch.object(ContextSwitchOptimizer, "_search", search):
        try:
            with tracer.activate():
                result = make().optimize(
                    configuration, states, constraints=catalog, dirty=dirty
                )
        except PlanningError as error:
            result = error
    partitions = [
        (s.attributes["method"], s.attributes["exact"])
        for s in tracer.root.walk()
        if s.name == "partition"
    ]
    if isinstance(result, PlanningError):
        return {"error": type(result).__name__, "planned": planned}, calls, partitions
    return {
        "planned": planned,
        "placement": result.target.placement(),
        "states": result.target.states(),
        "pools": [[str(action) for action in pool] for pool in result.plan.pools],
        "cost": result.cost,
        "movement_cost": result.movement_cost,
        "method": result.partition_method,
    }, calls, partitions


def _assert_same_plans(kept, searched, calls):
    """The pass changes no plan: only the partition outcome may differ, and
    only where the pass answered."""
    assert {k: v for k, v in kept.items() if k != "method"} == {
        k: v for k, v in searched.items() if k != "method"
    }
    if not any(calls):
        assert kept == searched


@settings(max_examples=200, deadline=None)
@given(rounds())
@example(_a_warm_restart_between_full_and_freed_nodes())
@example(_an_overload_keeping_the_dearer_vm())
@example(_welded_fences())
@example(_a_host_overloaded_by_stayers())
@example(_a_host_freed_by_a_departure())
@example(_a_resume_onto_a_full_image_host())
@example(_a_vm_outside_its_fence_beside_stayers())
def test_the_keep_in_place_plans_what_the_zones_plan(instance):
    kept, calls, partitions = _solve(instance, keep_in_place=True)
    searched, _, _ = _solve(instance, keep_in_place=False)
    _assert_same_plans(kept, searched, calls)
    configuration, catalog, states, frozen = instance
    warm = _dirty(states, frozen) is not None
    relational = any(c.relational for c in catalog)
    placed = [vm for vm, state in states.items() if state is VMState.RUNNING]
    tight = all(
        is_tight(domain, len(configuration.node_names))
        for domain in vm_domains(configuration, placed, catalog).values()
    )
    # The round is offered to the pass once: a warm round's attempt always,
    # a cold round only when its every placed VM is tight.  It declines a
    # relational catalog.
    assert len(calls) == (1 if warm or tight else 0)
    if relational:
        assert not any(calls)
    # A round the pass answers, or a warm one, cuts no partition; a cold
    # unary round it declines cuts one, exact unless the fences weld into a
    # single component.
    if warm or any(calls):
        assert partitions == []
    elif calls and not relational:
        assert partitions in ([("interference", True)], [("monolithic", False)])
    if any(calls) and not warm and "error" not in kept:
        assert kept["method"] == "monolithic"


@settings(max_examples=200, deadline=None)
@given(rounds(kinds=CATALOGS + ("empty",)))
@example(_an_overload_keeping_the_dearer_vm())
@example(_welded_fences())
@example(_a_host_overloaded_by_stayers())
@example(_a_host_freed_by_a_departure())
@example(_a_resume_onto_a_full_image_host())
@example(_a_vm_outside_its_fence_beside_stayers())
def test_the_whole_fleet_keep_in_place_plans_what_the_search_plans(instance):
    # The monolithic optimizer's whole-fleet step, no zones: the pass stands
    # for the search's own incumbent, over the same VMs in the same order.
    kept, calls, partitions = _solve(instance, True, _monolithic, whole=True)
    searched, _, _ = _solve(instance, False, _monolithic, whole=True)
    _assert_same_plans(kept, searched, calls)
    # Every round is offered to the pass, once; a relational catalog
    # declined.
    assert len(calls) == 1
    if any(c.relational for c in instance[1]):
        assert calls == [False]
    assert partitions == []


@pytest.mark.parametrize(
    "instance, bound",
    [(build(), bound) for build, bound in NODE_LOAD_ROUNDS],
    ids=[build.__name__.strip("_") for build, _ in NODE_LOAD_ROUNDS],
)
def test_node_loads_decide_the_keep_in_place(instance, bound):
    # Declining is always safe, so the equivalence above cannot tell a pass
    # that declines too often: these rounds say which way each one goes.
    configuration, catalog, states, frozen = instance
    tracer = Tracer()
    with tracer.activate():
        ParallelOptimizer(timeout=10.0, zone_executor="serial").optimize(
            configuration, states, constraints=catalog, dirty=_dirty(states, frozen)
        )
    # The pass answered when its cp.solve span stopped on the incumbent
    # with no partition cut; it declined when a partition followed it.
    partitions = [s for s in tracer.root.walk() if s.name == "partition"]
    solves = [s for s in tracer.root.walk() if s.name == "cp.solve"]
    answered = partitions == []
    assert answered == (bound is not None)
    if answered:
        (solve,) = solves
        assert solve.attributes["stop"] == "incumbent"
        assert solve.attributes["root_bound"] == bound
