"""What an engine keeps between rounds never shows in its answers.

The warm engines retain the previous assignment and the unary domains
(:class:`repro.constraints.domains.RetainedDomains`), each reused only while
it is provably a function of inputs that did not change.  The property runs
streams of rounds — restarts, demand changes, arrivals, departures, node
crashes with the constraints' repair hook, catalog swaps, under every
catalog relation that shapes a domain or a zone — through one long-lived
engine and through an engine rebuilt before every round and handed nothing
but the previous assignment, which therefore recomputes everything.  Round
for round they must give the same target, the same pools action for action,
the same cost, the same ``repair`` telemetry and the same constraint
violations.

The dirty region itself is held against the rules stated over every running
VM (``_dirty_set_oracle``) on every warm round.  And the attempt the repair
engine hands its inner optimizer is held to what the layers below take on
trust: each frozen VM runs, on a node of the configuration, inside its unary
domain, is not leaving, and its host is not overloaded.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints import Ban, Fence, RunningCapacity, Spread
from repro.constraints.domains import RetainedDomains
from repro.core.optimizer import ContextSwitchOptimizer, complete_states
from repro.core.plan import apply_pool_effects
from repro.model.configuration import Configuration
from repro.model.errors import PlanningError
from repro.model.node import Node
from repro.model.vm import VirtualMachine, VMState
from repro.obs import Tracer
from repro.repair import RepairOptimizer
from repro.scale import ParallelOptimizer

from test_dirty_set_equivalence import _dirty_set_oracle, _overloaded

#: Restarts and demand changes leave the key alone — the rounds that reuse
#: what is kept — so they come up more often than the events that break it.
EVENTS = (
    ("restart",) * 5
    + ("demand",) * 3
    + ("quiet", "arrival", "departure", "crash", "swap")
)
RELATIONS = ("fence", "elastic", "ban", "pin", "capacity", "spread")
#: VMs the catalogs may already name before they arrive (as a control
#: loop's catalog names the VMs of every submitted vjob).
SPARES = ("a0", "a1", "a2")


def _assert_frozen_stays(current, target_states, constraints, frozen):
    """The precondition the dirty rule owns and nothing below re-checks."""
    states, _ = complete_states(current, target_states)
    domains = RetainedDomains().of(current, frozen, constraints)
    for vm in frozen:
        assert current.state_of(vm) is VMState.RUNNING
        host = current.location_of(vm)
        assert host in current.node_names
        assert domains[vm] is None or host in domains[vm]
        assert states[vm] is VMState.RUNNING
        assert not _overloaded(current, host)


def _engine(kind):
    if kind == "repair":
        inner = ContextSwitchOptimizer(timeout=5.0)
    else:
        inner = ParallelOptimizer(timeout=5.0, zone_executor="serial", shards=2)
    solve = inner.optimize

    def checked(current, target_states, *, constraints=(), dirty=None, **kw):
        if dirty is not None:
            states, _ = complete_states(current, target_states)
            frozen = {
                vm
                for vm in current.placement()
                if states[vm] is VMState.RUNNING and vm not in dirty
            }
            _assert_frozen_stays(current, target_states, constraints, frozen)
        return solve(
            current, target_states, constraints=constraints, dirty=dirty, **kw
        )

    inner.optimize = checked
    return RepairOptimizer(inner, timeout=5.0)


def _catalog(draw, vms, nodes, hosts):
    def some(items, min_size=1):
        return draw(
            st.lists(
                st.sampled_from(items),
                min_size=min_size,
                max_size=len(items),
                unique=True,
            )
        )

    half = len(nodes) // 2
    catalog = []
    relations = draw(st.lists(st.sampled_from(RELATIONS), max_size=3))
    if draw(st.booleans()) and relations[:1] not in (["fence"], ["elastic"]):
        # Half of the streams run on a fenced fleet: every VM tight, the
        # shape that makes an exact decomposition, the one the whole-fleet
        # keep-in-place pass may answer for.
        relations.insert(0, draw(st.sampled_from(("fence", "elastic"))))
    for relation in relations:
        if relation in ("fence", "elastic"):
            # Two fences over the two halves of the fleet.
            members = some(vms)
            rest = [vm for vm in vms if vm not in members]
            elastic = relation == "elastic"
            catalog.append(Fence(members, nodes[:half], elastic=elastic))
            if rest:
                catalog.append(Fence(rest, nodes[half:], elastic=elastic))
        elif relation == "ban":
            catalog.append(Ban(some(vms), [draw(st.sampled_from(nodes))]))
        elif relation == "pin":
            # One-node fences: each VM kept where it runs, if it runs.
            for vm in some(vms):
                host = hosts.get(vm) or draw(st.sampled_from(nodes))
                catalog.append(Fence([vm], [host]))
        elif relation == "capacity":
            catalog.append(
                RunningCapacity(nodes[:half], draw(st.integers(len(vms) // 2, len(vms))))
            )
        else:
            catalog.append(Spread(some(vms, min_size=2)[:3]))
    return catalog


def _digest(outcome):
    if isinstance(outcome, Exception):
        return type(outcome).__name__
    return {
        "placement": outcome.target.placement(),
        "states": outcome.target.states(),
        "pools": [[str(action) for action in pool] for pool in outcome.plan.pools],
        "cost": outcome.cost,
        "repair": outcome.repair,
        "violations": [str(v) for v in outcome.plan.constraint_violations],
    }


def _solve(engine, current, states, catalog, marks):
    engine.mark_dirty(marks)
    try:
        return engine.optimize(current.copy(), states, constraints=catalog)
    except PlanningError as error:
        return error


def _fleet(draw):
    """A fleet, its wanted states and a catalog drawn over it."""
    # Even fleets split into two tight halves; five nodes make the second
    # half loose.
    node_count = draw(st.sampled_from((4, 4, 6, 6, 5)))
    nodes = [f"n{i}" for i in range(node_count)]
    current = Configuration(
        nodes=[Node(name=name, cpu_capacity=3, memory_capacity=4096) for name in nodes]
    )
    vms = [f"v{i}" for i in range(draw(st.integers(min_value=4, max_value=9)))]
    for index, name in enumerate(vms):
        current.add_vm(
            VirtualMachine(
                name=name,
                memory=draw(st.sampled_from((256, 512, 1024))),
                cpu_demand=draw(st.integers(min_value=0, max_value=1)),
            )
        )
        current.set_running(name, nodes[index % node_count])
    states = {name: VMState.RUNNING for name in vms}
    catalog = _catalog(draw, [*vms, *SPARES], nodes, current.placement())
    return current, states, catalog


def _perturb(draw, current, states, catalog, arrivals):
    """One drawn event applied to ``current`` (in place): the round's
    wanted states, catalog and marks, the arrivals so far and the event."""
    vms = [name for name in current.vm_names if name not in SPARES]
    nodes = list(current.node_names)
    running = list(current.placement())
    marks: list[str] = []
    event = draw(st.sampled_from(EVENTS))
    if event == "restart" and running:
        marks = draw(
            st.lists(st.sampled_from(running), min_size=1, max_size=2, unique=True)
        )
        for vm in marks:
            current.set_waiting(vm)
    elif event == "demand" and running:
        vm = draw(st.sampled_from(running))
        current.replace_vm(current.vm(vm).with_cpu_demand(draw(st.integers(0, 3))))
        marks = draw(st.sampled_from(([], [vm])))
    elif event == "arrival" and arrivals < len(SPARES):
        name = SPARES[arrivals]
        arrivals += 1
        current.add_vm(VirtualMachine(name=name, memory=512, cpu_demand=1))
        states = {**states, name: VMState.RUNNING}
        marks = [name]
    elif event == "departure" and running:
        vm = draw(st.sampled_from(running))
        states = {
            **states,
            vm: draw(st.sampled_from((VMState.SLEEPING, VMState.TERMINATED))),
        }
    elif event == "crash" and len(nodes) > 3:
        node = draw(st.sampled_from(nodes))
        marks = [*current.vms_on(node), *current.images_on(node)]
        for vm in marks:
            current.set_waiting(vm)
        current.remove_node(node)
        catalog = [
            repaired
            for repaired in (c.on_node_failure(node) for c in catalog)
            if repaired is not None
        ]
    elif event == "swap":
        catalog = _catalog(draw, [*vms, *SPARES], nodes, current.placement())
    return states, catalog, marks, arrivals, event


def _settle(outcome, states):
    """The next round's fleet and wanted states after an accepted round (a
    VM that left for good is not wanted any more)."""
    current = outcome.target.copy()
    states = {
        name: state
        for name, state in states.items()
        if state is not VMState.TERMINATED
        or current.state_of(name) is not VMState.TERMINATED
    }
    return current, states


@pytest.mark.parametrize("kind", ["repair", "repair-partitioned"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_long_lived_engine_plans_what_a_rebuilt_one_plans(kind, data):
    draw = data.draw
    current, states, catalog = _fleet(draw)
    kept = _engine(kind)
    arrivals = 0
    for _ in range(draw(st.integers(min_value=3, max_value=8))):
        states, catalog, marks, arrivals, _ = _perturb(
            draw, current, states, catalog, arrivals
        )
        previous = kept.previous_assignment
        rebuilt = _engine(kind)
        if previous is not None:
            rebuilt._previous = dict(previous)
            running_vms = [
                name
                for name in current.vm_names
                if states.get(name, current.state_of(name)) is VMState.RUNNING
            ]
            # The warm region, read from what moved, against the rules
            # stated over every running VM.
            assert kept._dirty_region(
                current,
                set(running_vms),
                [
                    name
                    for name in current.vm_names
                    if states.get(name, current.state_of(name))
                    is not current.state_of(name)
                ],
                current.placement(),
                catalog,
                marks,
            ) == _dirty_set_oracle(
                current, states, running_vms, catalog, marks, previous, kept.halo
            )
        ours = _solve(kept, current, states, catalog, marks)
        theirs = _solve(rebuilt, current, states, catalog, marks)
        assert _digest(ours) == _digest(theirs)
        if isinstance(ours, Exception):
            # Nothing was accepted: the fleet stays as observed.
            continue
        current, states = _settle(ours, states)


def _rebuilt(configuration):
    """``configuration`` built again from nothing — the same nodes, VMs,
    states, hosts, images and orders, but descended from no mark."""
    rebuilt = Configuration(nodes=configuration.nodes, vms=configuration.vms)
    for vm, host in configuration.placement().items():
        rebuilt.set_running(vm, host)
    for vm in configuration.vm_names:
        state = configuration.state_of(vm)
        if state is VMState.SLEEPING:
            rebuilt.set_sleeping(vm, configuration.image_location_of(vm))
        elif state is VMState.TERMINATED:
            rebuilt.set_terminated(vm)
    rebuilt.viability_violations()
    return rebuilt


def _recorded(kind):
    """An engine whose dirty regions, completed states and journal answers
    are recorded, round by round: the journal answer is the ``source`` of
    the round's ``dirty-set`` span (``"journal"`` or ``"scan"``; ``None``
    for a cold round, which has no such span)."""
    engine = _engine(kind)
    seen: dict[str, list] = {"dirty": [], "completed": [], "journal": []}
    region, solve, whole = engine._dirty_region, engine.inner.optimize, engine.optimize

    def dirty_region(*args, **kwargs):
        dirty = region(*args, **kwargs)
        seen["dirty"].append(sorted(dirty))
        return dirty

    def optimize(*args, completed, **kwargs):
        states, changed = completed
        seen["completed"].append((list(states.items()), list(changed)))
        return solve(*args, completed=completed, **kwargs)

    def traced(*args, **kwargs):
        tracer = Tracer()
        try:
            with tracer.activate():
                return whole(*args, **kwargs)
        finally:
            seen["journal"].append(
                next(
                    (
                        node.attributes["source"]
                        for node in tracer.root.walk()
                        if node.name == "dirty-set"
                    ),
                    None,
                )
            )

    engine._dirty_region = dirty_region
    engine.inner.optimize = optimize
    engine.optimize = traced
    return engine, seen


@pytest.mark.parametrize("kind", ["repair", "repair-partitioned"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_journal_path_plans_what_the_scan_path_plans(kind, data):
    """Two long-lived engines: one handed the same lineage of configurations
    every round, so it reads the change journal, and one handed the fleet
    rebuilt every round, so it reads the fleet.  Same dirty regions, same
    completed states, same plans and violations, round for round.  A plan
    is carried out, dropped (the next round observes the last one's input
    again) or stopped after its first pool, as an executor that failed
    would leave it."""
    draw = data.draw
    current, states, catalog = _fleet(draw)
    journaled, on_journal = _recorded(kind)
    scanned, on_scan = _recorded(kind)
    arrivals = 0
    for index in range(draw(st.integers(min_value=3, max_value=8))):
        states, catalog, marks, arrivals, event = _perturb(
            draw, current, states, catalog, arrivals
        )
        journaled.mark_dirty(marks)
        try:
            ours = journaled.optimize(current, states, constraints=catalog)
        except PlanningError as error:
            ours = error
        journaled_answer = on_journal["journal"][-1]
        theirs = _solve(scanned, _rebuilt(current), states, catalog, marks)
        assert _digest(ours) == _digest(theirs)
        assert on_journal["dirty"] == on_scan["dirty"]
        assert on_journal["completed"] == on_scan["completed"]
        assert on_scan["journal"][-1] != "journal"
        if index and event not in ("crash", "swap") and not isinstance(
            previous_outcome, Exception
        ):
            # Same catalog, same nodes, a configuration descended from the
            # last round's input: the journal answers.
            assert journaled_answer == "journal"
        previous_outcome = ours
        if isinstance(ours, Exception):
            continue
        carried = draw(st.sampled_from(("out", "out", "dropped", "one pool")))
        if carried == "out":
            current, states = _settle(ours, states)
        elif carried == "one pool" and ours.plan.pools:
            apply_pool_effects(current, ours.plan.pools[0])
