"""Property-based tests of the context-switch optimizer.

Invariants: the optimizer's target is always viable, the plan reaches it, and
its cost never exceeds the FFD baseline cost for the same requested states.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.cost import plan_cost
from repro.core.optimizer import ContextSwitchOptimizer
from repro.core.planner import build_plan
from repro.decision.ffd import ffd_target_configuration
from repro.model.configuration import Configuration
from repro.model.errors import NoPivotAvailableError, PlanningError
from repro.model.node import make_working_nodes
from repro.model.vm import VirtualMachine, VMState


MEMORY_SIZES = (256, 512, 1024)
STATES = (VMState.WAITING, VMState.RUNNING, VMState.SLEEPING)


@st.composite
def scenarios(draw):
    node_count = draw(st.integers(min_value=2, max_value=4))
    vm_count = draw(st.integers(min_value=1, max_value=6))
    nodes = make_working_nodes(node_count, cpu_capacity=2, memory_capacity=4096)
    configuration = Configuration(nodes=nodes)
    target_states = {}
    for index in range(vm_count):
        vm = VirtualMachine(
            name=f"vm{index}",
            memory=draw(st.sampled_from(MEMORY_SIZES)),
            cpu_demand=draw(st.integers(min_value=0, max_value=1)),
        )
        configuration.add_vm(vm)
        state = draw(st.sampled_from(STATES))
        if state is VMState.RUNNING:
            host = next(
                (n for n in configuration.node_names if configuration.can_host(n, vm)),
                None,
            )
            if host is None:
                state = VMState.WAITING
            else:
                configuration.set_running(vm.name, host)
        if state is VMState.SLEEPING:
            configuration.set_sleeping(vm.name, draw(st.sampled_from(configuration.node_names)))
        # Only legal life-cycle transitions (Figure 2) are requested.
        if configuration.state_of(vm.name) is VMState.WAITING:
            wanted = draw(st.sampled_from((VMState.RUNNING, VMState.WAITING)))
        else:
            wanted = draw(st.sampled_from((VMState.RUNNING, VMState.SLEEPING)))
        target_states[vm.name] = wanted
    return configuration, target_states


@settings(max_examples=25, deadline=None)
@given(scenarios())
def test_optimizer_target_is_viable_and_reachable(scenario):
    configuration, target_states = scenario
    fallback = ffd_target_configuration(configuration, target_states)
    optimizer = ContextSwitchOptimizer(timeout=1.0)
    try:
        result = optimizer.optimize(configuration, target_states)
    except PlanningError:
        # no viable assignment exists for the requested states
        assert fallback is None
        return
    assert result.target.is_viable()
    assert result.plan.apply().same_assignment(result.target)
    for name, state in target_states.items():
        if state is VMState.RUNNING:
            assert result.target.state_of(name) is VMState.RUNNING


@settings(max_examples=20, deadline=None)
@given(scenarios())
def test_optimizer_cost_never_exceeds_ffd_baseline(scenario):
    configuration, target_states = scenario
    fallback = ffd_target_configuration(configuration, target_states)
    if fallback is None:
        return
    try:
        ffd_plan = build_plan(configuration, fallback)
    except (NoPivotAvailableError, PlanningError):
        return
    ffd_cost = plan_cost(ffd_plan).total
    optimizer = ContextSwitchOptimizer(timeout=1.0)
    result = optimizer.optimize(configuration, target_states)
    assert result.cost <= ffd_cost
