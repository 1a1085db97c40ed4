"""The two repair engines make the same attempt.

``engine="repair"`` wraps a :class:`~repro.core.optimizer.ContextSwitchOptimizer`
and ``engine="repair-partitioned"`` a
:class:`~repro.scale.parallel.ParallelOptimizer`, which overrides the
whole-fleet step only: a solve handed the dirty region is the inherited one
(the keep-in-place pass, then one cut of the dirty VMs), so the two engines
differ only once a round goes to the full solve, which the partitioned one
decomposes.  Random fenced fleets, with and without a ``Spread`` pair inside
one fence, run the same stream of rounds — restarts, overloaded hosts,
departures and resumes — through both engines, each on its own lineage of
configurations; on every round before the first full solve of either the
target placement and states, the plan, its cost, the ``repair`` record and
the search counters are identical, and neither round was decomposed.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.constraints import Fence, Spread
from repro.core.optimizer import ContextSwitchOptimizer
from repro.model.configuration import Configuration
from repro.model.errors import PlanningError
from repro.model.node import Node
from repro.model.vm import VirtualMachine, VMState
from repro.repair import RepairOptimizer
from repro.scale import ParallelOptimizer

#: Overloads come twice as often: they are what makes a cut searched.
KINDS = ("restart", "overload", "overload", "depart", "resume")


@st.composite
def streams(draw):
    """A fenced fleet placed first-fit inside its fences, its catalog (a
    ``Spread`` pair inside the first fence, or not), and the rounds: each a
    list of ``(kind, vm index)`` perturbations."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    configuration = Configuration()
    fences, index = [], 0
    for size in sizes:
        fence = []
        for _ in range(size):
            name = f"n{index}"
            configuration.add_node(
                Node(
                    name=name,
                    cpu_capacity=draw(st.integers(2, 3)),
                    memory_capacity=4096,
                )
            )
            fence.append(name)
            index += 1
        fences.append(fence)
    groups = [[] for _ in fences]
    for i in range(draw(st.integers(4, 12))):
        group = draw(st.integers(0, len(fences) - 1))
        vm = VirtualMachine(
            name=f"v{i}",
            memory=draw(st.sampled_from((512, 1024))),
            cpu_demand=draw(st.sampled_from((0, 1, 1))),
        )
        configuration.add_vm(vm)
        host = next(
            (
                node
                for node in fences[group]
                if configuration.free_capacity(node).cpu >= vm.cpu_demand
                and configuration.free_capacity(node).memory >= vm.memory
            ),
            None,
        )
        if host is not None:
            configuration.set_running(vm.name, host)
        groups[group].append(vm.name)
    catalog = [Fence(vms, nodes) for vms, nodes in zip(groups, fences) if vms]
    if draw(st.booleans()) and len(groups[0]) >= 2:
        catalog.append(Spread(groups[0][:2]))
    rounds = draw(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(KINDS), st.integers(0, 11)),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        )
    )
    return configuration, catalog, rounds


def _perturb(current, states, perturbations):
    """Apply one round's perturbations, by VM index, to the wanted
    ``states`` and to each configuration of ``current`` (the same before
    the round on both lineages)."""
    names = current[0].vm_names
    for kind, index in perturbations:
        vm = names[index % len(names)]
        host = current[0].location_of(vm)
        if kind == "resume":
            states[vm] = VMState.RUNNING
        elif host is None:
            continue
        elif kind == "depart":
            states[vm] = VMState.SLEEPING
        for configuration in current:
            if kind == "restart":
                configuration.set_waiting(vm)
            elif kind == "overload":
                capacity = configuration.node(host).capacity.cpu
                configuration.replace_vm(
                    configuration.vm(vm).with_cpu_demand(capacity)
                )


def _digest(result):
    """Everything the two attempts must agree on, down to the search that
    found the assignment and the decomposition that did not."""
    statistics = result.statistics
    return {
        "placement": result.target.placement(),
        "states": result.target.states(),
        "pools": [[str(action) for action in pool] for pool in result.plan.pools],
        "cost": result.cost,
        "repair": result.repair,
        "search": (statistics.nodes, statistics.backtracks, statistics.solutions),
        "zones": (result.partition_method, result.zone_reports),
    }


def _round(engine, current, states, catalog):
    try:
        return engine.optimize(current, dict(states), constraints=catalog)
    except PlanningError:
        return None


def _a_searched_cut():
    """Two fences of two two-unit nodes; ``v0`` grows to fill its host, so
    ``v1`` must leave it: the keep-in-place misses the bound and the cut is
    searched."""
    configuration = Configuration()
    for i in range(4):
        configuration.add_node(Node(f"n{i}", cpu_capacity=2, memory_capacity=4096))
    for i, host in enumerate(("n0", "n0", "n2", "n3")):
        configuration.add_vm(VirtualMachine(f"v{i}", memory=512, cpu_demand=1))
        configuration.set_running(f"v{i}", host)
    catalog = [Fence(["v0", "v1"], ["n0", "n1"]), Fence(["v2", "v3"], ["n2", "n3"])]
    return configuration, catalog, [[("overload", 0)], [("restart", 2)]]


@settings(max_examples=100, deadline=None)
@given(streams())
@example(_a_searched_cut())
def test_both_repair_engines_make_the_same_attempt(stream):
    configuration, catalog, rounds = stream
    engines = (
        RepairOptimizer(ContextSwitchOptimizer(timeout=10.0), timeout=10.0),
        RepairOptimizer(
            ParallelOptimizer(timeout=10.0, zone_executor="serial"), timeout=10.0
        ),
    )
    currents = [configuration.copy(), configuration.copy()]
    states = {vm: VMState.RUNNING for vm in configuration.vm_names}
    for perturbations in [[], *rounds]:
        _perturb(currents, states, perturbations)
        results = [
            _round(engine, current, states, catalog)
            for engine, current in zip(engines, currents)
        ]
        if results[0] is None or results[1] is None:
            assert results[0] is results[1]
            continue
        if "full" in (results[0].repair["mode"], results[1].repair["mode"]):
            break
        assert _digest(results[0]) == _digest(results[1])
        currents = [result.target for result in results]
