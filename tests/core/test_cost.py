"""Tests of the cost model of Section 4.2 and Table 1."""

import pytest

from repro.core.actions import Migrate, Resume, Run, Stop, Suspend
from repro.core.cost import plan_cost, pool_cost
from repro.core.plan import Pool, plan_from_pools
from repro.model.configuration import Configuration
from repro.model.node import make_working_nodes

from repro.testing import make_vm


@pytest.fixture
def configuration():
    nodes = make_working_nodes(4, cpu_capacity=2, memory_capacity=8192)
    configuration = Configuration(nodes=nodes)
    configuration.add_vm(make_vm("m", memory=1024, cpu=1))     # to migrate
    configuration.add_vm(make_vm("s", memory=2048, cpu=1))     # to suspend
    configuration.add_vm(make_vm("z", memory=512, cpu=1))      # sleeping, to resume
    configuration.add_vm(make_vm("w", memory=256, cpu=1))      # waiting, to run
    configuration.set_running("m", "node-0")
    configuration.set_running("s", "node-1")
    configuration.set_sleeping("z", "node-2")
    return configuration


class TestTable1:
    """The local costs of Table 1."""

    def test_migrate_cost_is_memory(self, configuration):
        action = Migrate(vm="m", source_node="node-0", destination_node="node-1")
        assert action.cost(configuration) == 1024

    def test_suspend_cost_is_memory(self, configuration):
        assert Suspend(vm="s", node="node-1").cost(configuration) == 2048

    def test_local_resume_cost_is_memory(self, configuration):
        action = Resume(vm="z", image_node="node-2", destination_node="node-2")
        assert action.cost(configuration) == 512

    def test_remote_resume_cost_is_twice_memory(self, configuration):
        action = Resume(vm="z", image_node="node-2", destination_node="node-0")
        assert action.cost(configuration) == 1024

    def test_run_and_stop_costs_are_constant(self, configuration):
        assert Run(vm="w", node="node-3").cost(configuration) == 0
        assert Stop(vm="m", node="node-0").cost(configuration) == 0


class TestPlanCostModel:
    def test_pool_cost_is_max_of_action_costs(self, configuration):
        pool = Pool(
            [
                Suspend(vm="s", node="node-1"),
                Migrate(vm="m", source_node="node-0", destination_node="node-3"),
            ]
        )
        assert pool_cost(pool, configuration) == 2048

    def test_figure9_style_plan_cost(self, configuration):
        """Two pools: the delay of the first pool is charged to every action of
        the second pool."""
        plan = plan_from_pools(
            configuration,
            [
                [
                    Suspend(vm="s", node="node-1"),
                    Migrate(vm="m", source_node="node-0", destination_node="node-3"),
                ],
                [
                    Resume(vm="z", image_node="node-2", destination_node="node-2"),
                    Run(vm="w", node="node-1"),
                ],
            ],
        )
        breakdown = plan_cost(plan, configuration)
        assert breakdown.pool_costs == (2048, 512)
        # pool 0: suspend 2048 + migrate 1024 ; pool 1: (2048+512) + (2048+0)
        assert breakdown.total == 2048 + 1024 + (2048 + 512) + 2048

    def test_local_total_is_a_lower_bound(self, configuration):
        plan = plan_from_pools(
            configuration,
            [
                [Suspend(vm="s", node="node-1")],
                [Migrate(vm="m", source_node="node-0", destination_node="node-3")],
            ],
        )
        breakdown = plan_cost(plan, configuration)
        assert breakdown.local_total == 2048 + 1024
        assert breakdown.local_total <= breakdown.total

    def test_single_pool_plan_has_no_delay_cost(self, configuration):
        plan = plan_from_pools(
            configuration,
            [[Suspend(vm="s", node="node-1"), Suspend(vm="m", node="node-0")]],
        )
        breakdown = plan_cost(plan, configuration)
        assert all(item.delay_cost == 0 for item in breakdown.actions)
        assert breakdown.total == breakdown.local_total

    def test_empty_plan_costs_zero(self, configuration):
        plan = plan_from_pools(configuration, [])
        assert plan_cost(plan, configuration).total == 0

    def test_action_breakdown_records_pool_index(self, configuration):
        plan = plan_from_pools(
            configuration,
            [
                [Suspend(vm="s", node="node-1")],
                [Run(vm="w", node="node-1")],
            ],
        )
        breakdown = plan_cost(plan, configuration)
        assert [item.pool_index for item in breakdown.actions] == [0, 1]
        assert breakdown.actions[1].delay_cost == 2048
        assert int(breakdown) == breakdown.total
