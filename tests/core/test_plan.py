"""Tests of pools and reconfiguration plans."""

import pytest

from repro.core.actions import ActionKind, Migrate, Run, Suspend
from repro.core.plan import Pool, ReconfigurationPlan, plan_from_pools
from repro.model.configuration import Configuration
from repro.model.errors import PlanningError
from repro.model.node import make_working_nodes

from repro.testing import make_vm


@pytest.fixture
def configuration():
    nodes = make_working_nodes(2, cpu_capacity=1, memory_capacity=2048)
    configuration = Configuration(nodes=nodes)
    configuration.add_vm(make_vm("a", memory=1024, cpu=1))
    configuration.add_vm(make_vm("b", memory=1024, cpu=1))
    configuration.set_running("a", "node-0")
    configuration.set_running("b", "node-1")
    return configuration


class TestPool:
    def test_cost_is_most_expensive_action(self, configuration):
        pool = Pool(
            [
                Suspend(vm="a", node="node-0"),
                Migrate(vm="b", source_node="node-1", destination_node="node-0"),
            ]
        )
        assert pool.cost(configuration) == 1024

    def test_empty_pool_cost_is_zero(self, configuration):
        assert Pool().cost(configuration) == 0
        assert not Pool()

    def test_kinds_counter(self, configuration):
        pool = Pool([Suspend(vm="a", node="node-0"), Suspend(vm="b", node="node-1")])
        assert pool.kinds() == {ActionKind.SUSPEND: 2}


class TestPlanSemantics:
    def test_apply_runs_pools_in_order(self, configuration):
        # b can only move to node-0 after a has been suspended (Figure 7).
        plan = plan_from_pools(
            configuration,
            [
                [Suspend(vm="a", node="node-0")],
                [Migrate(vm="b", source_node="node-1", destination_node="node-0")],
            ],
        )
        result = plan.apply()
        assert result.location_of("b") == "node-0"
        assert result.state_of("a").value == "sleeping"

    def test_apply_rejects_infeasible_order(self, configuration):
        plan = plan_from_pools(
            configuration,
            [
                [Migrate(vm="b", source_node="node-1", destination_node="node-0")],
                [Suspend(vm="a", node="node-0")],
            ],
        )
        with pytest.raises(PlanningError):
            plan.apply()

    def test_apply_rejects_conflicting_parallel_consumers(self):
        nodes = make_working_nodes(2, cpu_capacity=2, memory_capacity=2048)
        configuration = Configuration(nodes=nodes)
        configuration.add_vm(make_vm("x", memory=1536, cpu=1))
        configuration.add_vm(make_vm("y", memory=1536, cpu=1))
        # both want to start on node-0, which can host only one of them
        plan = plan_from_pools(
            configuration,
            [[Run(vm="x", node="node-0"), Run(vm="y", node="node-0")]],
        )
        with pytest.raises(PlanningError):
            plan.apply()

    def test_check_reaches(self, configuration):
        target = configuration.copy()
        target.set_sleeping("a")
        plan = plan_from_pools(configuration, [[Suspend(vm="a", node="node-0")]])
        plan.check_reaches(target)
        other_target = configuration.copy()
        other_target.set_sleeping("b")
        with pytest.raises(PlanningError):
            plan.check_reaches(other_target)

    def test_apply_does_not_mutate_source(self, configuration):
        plan = plan_from_pools(configuration, [[Suspend(vm="a", node="node-0")]])
        plan.apply()
        assert configuration.state_of("a").value == "running"


class TestPlanQueries:
    def test_counts_and_summary(self, configuration):
        plan = plan_from_pools(
            configuration,
            [
                [Suspend(vm="a", node="node-0")],
                [Migrate(vm="b", source_node="node-1", destination_node="node-0")],
            ],
        )
        assert plan.action_count() == 2
        assert plan.count(ActionKind.SUSPEND) == 1
        assert plan.count(ActionKind.RUN) == 0
        summary = plan.summary()
        assert summary["pools"] == 2
        assert summary["suspend"] == 1
        assert summary["migrate"] == 1

    def test_empty_plan(self, configuration):
        plan = ReconfigurationPlan(source=configuration)
        assert plan.action_count() == 0
        assert plan.apply().same_assignment(configuration)

    def test_append_pool_skips_empty_pools(self, configuration):
        plan = ReconfigurationPlan(source=configuration)
        plan.append_pool(Pool())
        assert len(plan) == 0

    def test_str_output_lists_pools(self, configuration):
        plan = plan_from_pools(configuration, [[Suspend(vm="a", node="node-0")]])
        text = str(plan)
        assert "pool 0" in text and "suspend(a" in text
