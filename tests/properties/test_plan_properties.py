"""Property-based tests of the planner invariants (hypothesis).

For arbitrary small scenarios the planner must always produce a plan that
(a) reaches the requested target assignment, (b) is feasible pool after pool,
(c) never loses a VM, and (d) regroups the resumes of a vjob in a single pool.

The last section holds :func:`repro.constraints.check_plan` — one working
copy, a constraint no action touches asked once on the source — against the
stage-by-stage walk it replaced.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.constraints import (
    Ban,
    Fence,
    PlacementConstraint,
    RunningCapacity,
    Spread,
    check_configuration,
    check_plan,
    plan_stages,
)
from repro.core.actions import ActionKind, Migrate, Resume, Run, Stop, Suspend
from repro.core.cost import plan_cost
from repro.core.plan import apply_pool_effects, plan_from_pools
from repro.core.planner import build_plan
from repro.decision.ffd import ffd_target_configuration
from repro.model.configuration import Configuration
from repro.model.errors import NoPivotAvailableError, PlanningError
from repro.model.node import make_working_nodes
from repro.model.vm import VirtualMachine, VMState


MEMORY_SIZES = (256, 512, 1024, 2048)
STATES = (VMState.WAITING, VMState.RUNNING, VMState.SLEEPING)


@st.composite
def scenarios(draw):
    """A random (current configuration, target states) pair.

    The current placement is built first-fit so it is always viable; the
    target states are drawn independently per VM.
    """
    node_count = draw(st.integers(min_value=2, max_value=5))
    node_memory = draw(st.sampled_from((2048, 4096)))
    vm_count = draw(st.integers(min_value=1, max_value=8))

    nodes = make_working_nodes(node_count, cpu_capacity=2, memory_capacity=node_memory)
    configuration = Configuration(nodes=nodes)

    target_states: dict[str, VMState] = {}
    for index in range(vm_count):
        memory = draw(st.sampled_from(MEMORY_SIZES))
        cpu = draw(st.integers(min_value=0, max_value=1))
        vjob = f"job{index % 3}"
        vm = VirtualMachine(
            name=f"vm{index}", memory=memory, cpu_demand=cpu, vjob=vjob
        )
        configuration.add_vm(vm)

        current_state = draw(st.sampled_from(STATES))
        if current_state is VMState.RUNNING:
            host = next(
                (n for n in configuration.node_names if configuration.can_host(n, vm)),
                None,
            )
            if host is not None:
                configuration.set_running(vm.name, host)
            else:
                configuration.set_waiting(vm.name)
        elif current_state is VMState.SLEEPING:
            image = draw(st.sampled_from(configuration.node_names))
            configuration.set_sleeping(vm.name, image)

        # Only draw the transitions a decision module actually requests: a
        # running VM can keep running, be suspended or stopped; a sleeping VM
        # can be resumed or stay asleep; a waiting VM can be started or stay
        # in the queue (Figure 2).
        if configuration.state_of(vm.name) is VMState.RUNNING:
            allowed = (VMState.RUNNING, VMState.SLEEPING, VMState.TERMINATED)
        elif configuration.state_of(vm.name) is VMState.SLEEPING:
            allowed = (VMState.RUNNING, VMState.SLEEPING)
        else:  # waiting
            allowed = (VMState.RUNNING, VMState.WAITING)
        target_states[vm.name] = draw(st.sampled_from(allowed))

    return configuration, target_states


def vjob_mapping(configuration: Configuration) -> dict[str, str]:
    return {vm.name: vm.vjob for vm in configuration.vms if vm.vjob}


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_plan_reaches_a_viable_ffd_target(scenario):
    configuration, target_states = scenario
    target = ffd_target_configuration(configuration, target_states)
    if target is None:
        return  # the requested states do not fit on this cluster
    assert target.is_viable()
    try:
        plan = build_plan(configuration, target, vjob_mapping(configuration))
    except (NoPivotAvailableError, PlanningError):
        # legitimate failure: a migration cycle without any usable pivot
        return
    result = plan.apply()
    assert result.same_assignment(target)


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_plan_conserves_vms_and_costs_are_consistent(scenario):
    configuration, target_states = scenario
    target = ffd_target_configuration(configuration, target_states)
    if target is None:
        return
    try:
        plan = build_plan(configuration, target, vjob_mapping(configuration))
    except (NoPivotAvailableError, PlanningError):
        return
    result = plan.apply()
    assert set(result.vm_names) == set(configuration.vm_names)
    breakdown = plan_cost(plan)
    assert breakdown.total >= breakdown.local_total >= 0
    assert len(breakdown.pool_costs) == len(plan.pools)
    # every intermediate configuration stays viable
    running = configuration.copy()
    for pool in plan.pools:
        for action in pool:
            assert action.is_feasible(running)
        for action in pool:
            if not action.consumes_resources():
                action.apply(running)
        for action in pool:
            if action.consumes_resources():
                action.apply(running)
        assert running.is_viable()


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_vjob_resumes_are_grouped_in_one_pool(scenario):
    configuration, target_states = scenario
    target = ffd_target_configuration(configuration, target_states)
    if target is None:
        return
    mapping = vjob_mapping(configuration)
    try:
        plan = build_plan(configuration, target, mapping)
    except (NoPivotAvailableError, PlanningError):
        return
    pools_per_vjob: dict[str, set[int]] = {}
    for index, pool in enumerate(plan.pools):
        for action in pool:
            if action.kind is ActionKind.RESUME and action.vm in mapping:
                pools_per_vjob.setdefault(mapping[action.vm], set()).add(index)
    for pools in pools_per_vjob.values():
        assert len(pools) == 1


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_plan_touches_each_vm_at_most_twice(scenario):
    """A VM is moved at most twice: once as a bypass, once to its destination."""
    configuration, target_states = scenario
    target = ffd_target_configuration(configuration, target_states)
    if target is None:
        return
    try:
        plan = build_plan(configuration, target, vjob_mapping(configuration))
    except (NoPivotAvailableError, PlanningError):
        return
    touched: dict[str, int] = {}
    for action in plan.actions():
        touched[action.vm] = touched.get(action.vm, 0) + 1
    assert all(count <= 2 for count in touched.values())


# ---------------------------------------------------------------------- #
# the scoped checker walk                                                 #
# ---------------------------------------------------------------------- #


class Quarantine(PlacementConstraint):
    """A member-less custom relation: nothing may run on the node."""

    def __init__(self, node):
        self.node = node

    def is_satisfied_by(self, configuration):
        return not (
            configuration.has_node(self.node) and configuration.vms_on(self.node)
        )


def _stage_by_stage(plan, constraints, include_source=False):
    """``check_plan`` as it was: a copy per stage, every constraint asked of
    every stage."""
    violations = []
    stages = iter(plan_stages(plan))
    source = next(stages)
    if include_source:
        violations.extend(check_configuration(source, constraints, stage=0))
    for stage_index, state in enumerate(stages, start=1):
        violations.extend(check_configuration(state, constraints, stage=stage_index))
    return violations


@st.composite
def checked_plans(draw):
    """A configuration, up to three pools of applicable actions over it
    (feasibility is not the checker's business) and a catalog, some of it
    over VMs no action touches, some of it violated before the plan runs."""
    configuration, _ = draw(scenarios())
    nodes = list(configuration.node_names)
    working = configuration.copy()
    pools = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        pool = []
        for name in draw(
            st.lists(st.sampled_from(configuration.vm_names), max_size=4, unique=True)
        ):
            state = working.state_of(name)
            node = draw(st.sampled_from(nodes))
            if state is VMState.RUNNING:
                host = working.location_of(name)
                action = draw(
                    st.sampled_from(
                        (
                            Suspend(vm=name, node=host),
                            Stop(vm=name, node=host),
                            Migrate(vm=name, source_node=host, destination_node=node),
                        )
                    )
                )
                if action.kind is ActionKind.MIGRATE and node == host:
                    continue
            elif state is VMState.SLEEPING:
                action = Resume(
                    vm=name,
                    image_node=working.image_location_of(name),
                    destination_node=node,
                )
            elif state is VMState.WAITING:
                action = Run(vm=name, node=node)
            else:
                continue
            pool.append(action)
        if pool:
            apply_pool_effects(working, pool)
            pools.append(pool)
    plan = plan_from_pools(configuration, pools)

    vms = list(configuration.vm_names)

    def some(items, min_size=1):
        return draw(
            st.lists(
                st.sampled_from(items), min_size=min_size, max_size=len(items), unique=True
            )
        )

    catalog = []
    for relation in draw(
        st.lists(
            st.sampled_from(
                ("fence", "ban", "pin", "spread", "collocated_spread",
                 "running_capacity", "quarantine")
            ),
            max_size=5,
        )
    ):
        if relation == "fence":
            catalog.append(Fence(some(vms), some(nodes)))
        elif relation == "ban":
            catalog.append(Ban(some(vms), some(nodes)))
        elif relation == "pin":
            catalog.append(Fence(some(vms)[:1], some(nodes)[:1]))
        elif relation == "spread":
            catalog.append(Spread(some(vms)))
        elif relation == "collocated_spread":
            catalog.append(Spread(some(vms), collocation_nodes=some(nodes)))
        elif relation == "running_capacity":
            catalog.append(RunningCapacity(some(nodes), maximum=1))
        else:
            catalog.append(Quarantine(draw(st.sampled_from(nodes))))
    return plan, catalog, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(checked_plans())
def test_the_scoped_walk_reports_what_the_stage_by_stage_walk_reports(case):
    plan, catalog, include_source = case
    before = plan.source.copy()
    assert check_plan(plan, catalog, include_source) == _stage_by_stage(
        plan, catalog, include_source
    )
    assert plan.source == before and plan.source.placement() == before.placement()


def test_an_untouched_violation_and_a_root_transition_are_both_reported():
    """A fence already broken in the source that no action touches is
    reported for every stage, from one look at the source; a VM pinned to
    its host by a one-node fence, which the plan migrates, is reported from
    the stage it moved in."""
    configuration = Configuration(
        nodes=make_working_nodes(3, cpu_capacity=4, memory_capacity=4096)
    )
    for name, host in (("stray", "node-2"), ("pinned", "node-0"), ("other", "node-0")):
        configuration.add_vm(VirtualMachine(name=name, memory=256))
        configuration.set_running(name, host)
    broken = Fence(["stray"], ["node-0"])
    pin = Fence(["pinned"], ["node-0"])
    plan = plan_from_pools(
        configuration,
        [
            [Migrate(vm="other", source_node="node-0", destination_node="node-1")],
            [Migrate(vm="pinned", source_node="node-0", destination_node="node-1")],
        ],
    )
    looked_at = []
    satisfied = Fence.is_satisfied_by

    class Watched(Fence):
        def is_satisfied_by(self, state):
            looked_at.append(state)
            return satisfied(self, state)

    watched = Watched(["stray"], ["node-0"])
    violations = check_plan(plan, [watched, pin])
    assert violations == _stage_by_stage(plan, [broken, pin])
    assert [(v.stage, v.constraint) for v in violations] == [
        (1, broken.label),
        (2, broken.label),
        (2, pin.label),
    ]
    # One look, at the source — the explanation asks once more.
    assert all(state is plan.source for state in looked_at) and looked_at


def test_a_relation_that_watches_other_vms_is_asked_of_every_stage():
    """``RunningCapacity`` and a member-less custom relation read VMs they
    do not name: no action touches their members, every stage still has to
    ask them."""
    configuration = Configuration(
        nodes=make_working_nodes(3, cpu_capacity=4, memory_capacity=4096)
    )
    for name, host in (("solo", "node-1"), ("intruder", "node-0")):
        configuration.add_vm(VirtualMachine(name=name, memory=256))
        configuration.set_running(name, host)
    catalog = [RunningCapacity(["node-1"], maximum=1), Quarantine("node-2")]
    plan = plan_from_pools(
        configuration,
        [
            [Migrate(vm="intruder", source_node="node-0", destination_node="node-2")],
            [Migrate(vm="intruder", source_node="node-2", destination_node="node-1")],
        ],
    )
    violations = check_plan(plan, catalog)
    assert violations == _stage_by_stage(plan, catalog)
    assert [(v.stage, v.constraint) for v in violations] == [
        (1, catalog[1].label),
        (2, catalog[0].label),
    ]
