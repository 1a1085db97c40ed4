"""What the selection and the domains keep between rounds never shows.

:class:`~repro.decision.consolidation.ConsolidationDecisionModule` keeps its
RJSP trial packing from one decision to the next
(:class:`~repro.decision.rjsp.RetainedSelection`) and re-packs only from the
first vjob whose observed VMs changed.  Its candidate filter reads the unary
domains the policy keeps (``ConstraintAwarePolicy.domains``, a
:class:`~repro.constraints.domains.RetainedDomains`), and the trial is kept
under the generation of that memory's one key: the constraint objects, the
node descriptions and every constraint reading no placement.  The property
runs streams of rounds — demand changes (written into the observed
configuration), arrivals, terminations, vjob state flips between running
and sleeping, node crashes with the constraints' repair hook, joins, a node
replaced by a new one (same count, other names), a capacity change in place
and catalog swaps, under catalogs of the four relations plus one whose
restriction reads the observed placement — through three modules: one
long-lived module with its private memory, one long-lived module whose
memory is the one a :class:`~repro.scale.parallel.ParallelOptimizer` reads
between its decisions (as in a control loop: the optimizer decomposes the
placed VMs after every decision), and a module built afresh every round.
Round for round, every field of the three selections (dict order included)
and the decisions' VM and vjob states must be equal, every domain a
long-lived module's filter or the optimizer reads must be what
:func:`~repro.constraints.domains.vm_domains` computes afresh, and the
decomposition :func:`~repro.scale.partition.partition` cuts over the
optimizer's domains must be the one it cuts computing its own.

The capacity event is the one only the node *descriptions* tell apart: a
key that compares node names instead must keep failing this property.
"""

from __future__ import annotations

from dataclasses import fields

from hypothesis import given, settings, strategies as st

from repro.constraints import Ban, Fence, PlacementConstraint, RunningCapacity, Spread
from repro.constraints.domains import vm_domains
from repro.core.optimizer import complete_states
from repro.decision import ConsolidationDecisionModule
from repro.model.configuration import Configuration
from repro.model.node import Node
from repro.model.queue import VJobQueue
from repro.model.vjob import VJob, VJobState
from repro.model.vm import VirtualMachine, VMState
from repro.scale.parallel import ParallelOptimizer
from repro.scale.partition import partition, placed_vms

#: Quiet rounds and demand changes keep the key — the rounds that reuse the
#: trial — so they come up more often than the events that break it.
EVENTS = (
    ("quiet",) * 2
    + ("demand",) * 4
    + ("arrival", "termination", "flip", "crash", "join", "replace", "replace")
    + ("capacity", "swap")
)
RELATIONS = ("fence", "elastic", "ban", "spread", "capacity", "stay", "halves")


class StayPut(PlacementConstraint):
    """A running member may only stay on the host it runs on: a unary
    restriction that reads the observed placement."""

    def __init__(self, vms):
        self.vms = tuple(vms)

    def allowed_nodes(self, vm_name, node_names, configuration=None):
        if vm_name not in self.vms or configuration is None:
            return None
        if not configuration.has_vm(vm_name):
            return None
        host = configuration.location_of(vm_name)
        return None if host is None else {host}

    def is_satisfied_by(self, configuration):
        return True


def _catalog(draw, vms, nodes):
    def some(items, min_size=1):
        return draw(
            st.lists(
                st.sampled_from(items),
                min_size=min_size,
                max_size=len(items),
                unique=True,
            )
        )

    catalog = []
    for relation in draw(st.lists(st.sampled_from(RELATIONS), max_size=3)):
        if relation in ("fence", "elastic"):
            catalog.append(
                Fence(some(vms), some(nodes), elastic=relation == "elastic")
            )
        elif relation == "ban":
            catalog.append(Ban(some(vms), some(nodes)))
        elif relation == "spread":
            catalog.append(Spread(some(vms, min_size=2)[:3]))
        elif relation == "capacity":
            catalog.append(RunningCapacity(some(nodes), draw(st.integers(0, 4))))
        elif relation == "halves":
            # Every VM fenced into one of two halves of the fleet: the
            # decomposition is exact while no VM outside them is placed.
            cut = len(nodes) // 2
            catalog.append(Fence(vms[::2], nodes[:cut]))
            catalog.append(Fence(vms[1::2], nodes[cut:]))
        else:
            catalog.append(StayPut(some(vms)))
    return catalog


def _rebuild(configuration, nodes):
    """``configuration`` over ``nodes``: every VM keeps its registration
    rank, its state and its host or image while that node is still there
    (a running VM of a dropped node waits)."""
    rebuilt = Configuration(nodes=nodes)
    for vm in configuration.vms:
        rebuilt.add_vm(vm)
        state = configuration.state_of(vm.name)
        host = configuration.location_of(vm.name)
        image = configuration.image_location_of(vm.name)
        if state is VMState.RUNNING and rebuilt.has_node(host):
            rebuilt.set_running(vm.name, host)
        elif state is VMState.SLEEPING:
            rebuilt.set_sleeping(
                vm.name, image if image and rebuilt.has_node(image) else None
            )
        elif state is VMState.TERMINATED:
            rebuilt.set_terminated(vm.name)
    return rebuilt


def _vjob(draw, name):
    return VJob(
        name=name,
        vms=[
            VirtualMachine(
                name=f"{name}.vm{i}",
                memory=draw(st.sampled_from((256, 512, 1024))),
                cpu_demand=draw(st.integers(0, 1)),
                vjob=name,
            )
            for i in range(draw(st.integers(1, 3)))
        ],
        priority=draw(st.integers(0, 2)),
    )


def _digest(decision):
    """The decision's states and every field of its selection, dicts as
    item lists so their order counts."""
    selection = decision.metadata["rjsp"]

    def ordered(value):
        return list(value.items()) if isinstance(value, dict) else value

    return (
        list(decision.vm_states.items()),
        list(decision.vjob_states.items()),
        {f.name: ordered(getattr(selection, f.name)) for f in fields(selection)},
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_long_lived_module_selects_what_a_fresh_one_selects(data):
    draw = data.draw
    nodes = [
        Node(name=f"n{i}", cpu_capacity=2, memory_capacity=2048)
        for i in range(draw(st.integers(3, 5)))
    ]
    configuration = Configuration(nodes=nodes)
    queue = VJobQueue()
    for index in range(draw(st.integers(2, 5))):
        vjob = _vjob(draw, f"j{index}")
        for vm in vjob.vms:
            configuration.add_vm(vm)
        queue.submit(vjob)
    vm_names = [vm.name for vjob in queue.ordered() for vm in vjob.vms]
    catalog = _catalog(draw, vm_names, list(configuration.node_names))

    kept = ConsolidationDecisionModule()
    optimizer = ParallelOptimizer()
    shared = ConsolidationDecisionModule()
    shared.domains = optimizer.domains
    arrivals = joins = 0
    for _ in range(draw(st.integers(2, 8))):
        event = draw(st.sampled_from(EVENTS))
        pending = queue.pending()
        node_names = list(configuration.node_names)
        observed = [
            vm.name for v in pending for vm in v.vms if configuration.has_vm(vm.name)
        ]
        if event == "demand" and observed:
            # Monitoring reports a demand by writing it into the configuration.
            name = draw(st.sampled_from(observed))
            configuration.replace_vm(
                configuration.vm(name).with_cpu_demand(draw(st.integers(0, 2)))
            )
        elif event == "arrival":
            vjob = _vjob(draw, f"a{arrivals}")
            arrivals += 1
            # Half of the arrivals are not observed yet.
            if draw(st.booleans()):
                for vm in vjob.vms:
                    configuration.add_vm(vm)
            queue.submit(vjob)
        elif event == "termination" and pending:
            vjob = draw(st.sampled_from(pending))
            vjob.state = VJobState.TERMINATED
            for vm in vjob.vms:
                if configuration.has_vm(vm.name):
                    configuration.set_terminated(vm.name)
        elif event == "flip" and pending:
            vjob = draw(st.sampled_from(pending))
            if vjob.state is VJobState.RUNNING:
                vjob.state = VJobState.SLEEPING
                for vm in vjob.vms:
                    if configuration.has_vm(vm.name):
                        configuration.set_sleeping(vm.name)
            else:
                vjob.state = VJobState.RUNNING
                for vm in vjob.vms:
                    if configuration.has_vm(vm.name):
                        configuration.set_running(
                            vm.name, draw(st.sampled_from(node_names))
                        )
        elif event == "crash" and len(node_names) > 2:
            dead = draw(st.sampled_from(node_names))
            configuration = _rebuild(
                configuration, [n for n in configuration.nodes if n.name != dead]
            )
            catalog = [
                repaired
                for repaired in (c.on_node_failure(dead) for c in catalog)
                if repaired is not None
            ]
        elif event == "join":
            configuration = _rebuild(
                configuration,
                [*configuration.nodes, Node(name=f"m{joins}", cpu_capacity=2)],
            )
            joins += 1
        elif event == "replace" and len(node_names) > 2:
            # The fleet keeps its size: only the names tell it apart.
            dead = draw(st.sampled_from(node_names))
            configuration = _rebuild(
                configuration,
                [
                    *(n for n in configuration.nodes if n.name != dead),
                    Node(name=f"m{joins}", cpu_capacity=2),
                ],
            )
            joins += 1
            catalog = [
                repaired
                for repaired in (c.on_node_failure(dead) for c in catalog)
                if repaired is not None
            ]
        elif event == "capacity":
            # Same names in the same order: only a capacity tells it apart.
            resized = draw(st.sampled_from(node_names))
            configuration = _rebuild(
                configuration,
                [
                    Node(
                        name=n.name,
                        cpu_capacity=draw(st.integers(0, 3)),
                        memory_capacity=n.memory_capacity,
                    )
                    if n.name == resized
                    else n
                    for n in configuration.nodes
                ],
            )
        elif event == "swap":
            catalog = _catalog(
                draw,
                [vm.name for vjob in queue.ordered() for vm in vjob.vms],
                node_names,
            )

        kept.use_constraints(catalog)
        ours = kept.decide(configuration, queue)
        shared.use_constraints(catalog)
        in_loop = shared.decide(configuration, queue)
        fresh_module = ConsolidationDecisionModule()
        fresh_module.use_constraints(catalog)
        theirs = fresh_module.decide(configuration, queue)
        assert _digest(ours) == _digest(theirs)
        assert _digest(in_loop) == _digest(theirs)

        # The engine's turn: it decomposes the placed VMs over the memory
        # the decision just read.
        states, _ = complete_states(configuration, in_loop.vm_states)
        placed = placed_vms(states)
        decomposition = partition(
            configuration, states, catalog, shards=optimizer.shards,
            domains=optimizer.domains.of(configuration, placed, catalog),
        )
        expected = partition(configuration, states, catalog, shards=optimizer.shards)
        for attribute in ("zones", "method", "exact"):
            assert getattr(decomposition, attribute) == getattr(
                expected, attribute
            )
        engine_domains = optimizer.domains.of(configuration, placed, catalog)
        assert {name: engine_domains[name] for name in placed} == vm_domains(
            configuration, placed, catalog
        )
        if catalog:
            names = [vm.name for vjob in queue.ordered() for vm in vjob.vms]
            fresh = vm_domains(configuration, names, catalog)
            for module in (kept, shared):
                kept_filter = module.node_filter(configuration)
                assert {name: kept_filter.domain(name) for name in names} == fresh
