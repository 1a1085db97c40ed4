"""Tests of the reconfiguration planner (Section 4.1).

The scenarios of Figures 7, 8 and 9 are reproduced explicitly, plus the vjob
consistency pass and the failure modes (unreachable targets, missing pivot).
"""

import pytest

from repro.constraints import Fence
from repro.core.actions import ActionKind, Migrate, Resume, Suspend
from repro.core.planner import PlannerOptions, ReconfigurationPlanner, build_plan
from repro.model.configuration import Configuration
from repro.model.errors import NoPivotAvailableError, PlanningError
from repro.model.node import make_working_nodes

from repro.testing import make_vm


def two_node_cluster(memory=2048, cpu=1, count=2):
    return Configuration(nodes=make_working_nodes(count, cpu_capacity=cpu, memory_capacity=memory))


class TestSequentialConstraints:
    def test_figure7_sequence(self):
        """migrate(VM1) can only start once suspend(VM2) has freed node N2."""
        configuration = two_node_cluster(memory=2048, count=2)
        configuration.add_vm(make_vm("vm1", memory=1536, cpu=0))
        configuration.add_vm(make_vm("vm2", memory=1024, cpu=0))
        configuration.set_running("vm1", "node-0")
        configuration.set_running("vm2", "node-1")

        target = configuration.copy()
        target.set_sleeping("vm2")
        target.set_running("vm1", "node-1")

        plan = build_plan(configuration, target)
        assert len(plan.pools) == 2
        assert plan.pools[0].kinds() == {ActionKind.SUSPEND: 1}
        assert plan.pools[1].kinds() == {ActionKind.MIGRATE: 1}
        plan.check_reaches(target)

    def test_independent_actions_share_a_pool(self):
        configuration = two_node_cluster(memory=4096, cpu=2, count=2)
        configuration.add_vm(make_vm("a", memory=512, cpu=1))
        configuration.add_vm(make_vm("b", memory=512, cpu=1))
        configuration.set_running("a", "node-0")
        configuration.set_running("b", "node-1")
        target = configuration.copy()
        target.set_running("a", "node-1")
        target.set_running("b", "node-0")
        # both nodes have room for both VMs: the swap needs a single pool
        plan = build_plan(configuration, target)
        assert len(plan.pools) == 1
        assert plan.action_count() == 2
        plan.check_reaches(target)

    def test_empty_plan_for_identical_configurations(self):
        configuration = two_node_cluster()
        configuration.add_vm(make_vm("a", memory=512))
        configuration.set_running("a", "node-0")
        plan = build_plan(configuration, configuration.copy())
        assert plan.action_count() == 0


class TestInterDependentConstraints:
    def _swap_scenario(self, extra_nodes=1, pivot_memory=2048):
        """Figure 8: two VMs that must swap hosts but each fills its node."""
        nodes = make_working_nodes(2, cpu_capacity=1, memory_capacity=2048)
        nodes += make_working_nodes(
            extra_nodes, cpu_capacity=1, memory_capacity=pivot_memory, prefix="pivot"
        )
        configuration = Configuration(nodes=nodes)
        configuration.add_vm(make_vm("vm1", memory=2048, cpu=0))
        configuration.add_vm(make_vm("vm2", memory=2048, cpu=0))
        configuration.set_running("vm1", "node-0")
        configuration.set_running("vm2", "node-1")
        target = configuration.copy()
        target.set_running("vm1", "node-1")
        target.set_running("vm2", "node-0")
        return configuration, target

    def test_figure8_cycle_broken_with_bypass_migration(self):
        configuration, target = self._swap_scenario()
        plan = build_plan(configuration, target)
        plan.check_reaches(target)
        # Three migrations: one bypass through the pivot plus the two final ones.
        assert plan.count(ActionKind.MIGRATE) == 3
        bypass = plan.pools[0].actions[0]
        assert isinstance(bypass, Migrate)
        assert bypass.destination_node.startswith("pivot")

    def test_cycle_without_pivot_raises(self):
        configuration, target = self._swap_scenario(extra_nodes=0)
        with pytest.raises(NoPivotAvailableError):
            build_plan(configuration, target)

    def test_pivot_too_small_raises(self):
        configuration, target = self._swap_scenario(extra_nodes=1, pivot_memory=512)
        with pytest.raises(NoPivotAvailableError):
            build_plan(configuration, target)

    def test_bypass_prefers_smallest_vm(self):
        """With two VMs of different sizes in the cycle, the cheaper one is
        parked on the pivot."""
        nodes = make_working_nodes(2, cpu_capacity=1, memory_capacity=2048)
        nodes += make_working_nodes(1, cpu_capacity=1, memory_capacity=2048, prefix="pivot")
        configuration = Configuration(nodes=nodes)
        configuration.add_vm(make_vm("small", memory=1536, cpu=1))
        configuration.add_vm(make_vm("large", memory=2048, cpu=1))
        configuration.set_running("small", "node-0")
        configuration.set_running("large", "node-1")
        target = configuration.copy()
        target.set_running("small", "node-1")
        target.set_running("large", "node-0")
        plan = build_plan(configuration, target)
        plan.check_reaches(target)
        bypass = plan.pools[0].actions[0]
        assert bypass.vm == "small"

    def test_three_way_rotation(self):
        """A -> B -> C -> A rotation with full nodes needs one bypass."""
        nodes = make_working_nodes(3, cpu_capacity=1, memory_capacity=1024)
        nodes += make_working_nodes(1, cpu_capacity=1, memory_capacity=1024, prefix="pivot")
        configuration = Configuration(nodes=nodes)
        for index in range(3):
            configuration.add_vm(make_vm(f"vm{index}", memory=1024, cpu=1))
            configuration.set_running(f"vm{index}", f"node-{index}")
        target = configuration.copy()
        for index in range(3):
            target.set_running(f"vm{index}", f"node-{(index + 1) % 3}")
        plan = build_plan(configuration, target)
        plan.check_reaches(target)
        assert plan.count(ActionKind.MIGRATE) == 4


class TestBypassHonoursUnaryConstraints:
    """The pivot of a bypass migration is chosen inside the parked VM's
    fence when a node there has room (ROADMAP 3iii: a cold 20-zone plan
    parked a VM outside its fence because the pivot was picked by capacity
    alone)."""

    @staticmethod
    def _fenced_swap(inside_memory):
        """Two fenced VMs swapping full hosts; the first node in node order
        is free but outside the fence, the last one is inside it."""
        nodes = make_working_nodes(1, cpu_capacity=1, memory_capacity=2048, prefix="outside")
        nodes += make_working_nodes(2, cpu_capacity=1, memory_capacity=2048)
        nodes += make_working_nodes(
            1, cpu_capacity=1, memory_capacity=inside_memory, prefix="inside"
        )
        configuration = Configuration(nodes=nodes)
        configuration.add_vm(make_vm("vm1", memory=2048, cpu=0))
        configuration.add_vm(make_vm("vm2", memory=2048, cpu=0))
        configuration.set_running("vm1", "node-0")
        configuration.set_running("vm2", "node-1")
        target = configuration.copy()
        target.set_running("vm1", "node-1")
        target.set_running("vm2", "node-0")
        fence = Fence(["vm1", "vm2"], ["node-0", "node-1", "inside-0"])
        return configuration, target, fence

    def test_the_pivot_is_taken_inside_the_fence(self):
        configuration, target, fence = self._fenced_swap(inside_memory=2048)
        plan = build_plan(configuration, target, constraints=[fence])
        assert plan.pools[0].actions == [
            Migrate(vm="vm1", source_node="node-0", destination_node="inside-0")
        ]
        assert plan.constraint_violations == []
        plan.check_reaches(target)

    def test_without_the_catalog_the_first_node_that_fits_is_the_pivot(self):
        configuration, target, _ = self._fenced_swap(inside_memory=2048)
        plan = build_plan(configuration, target)
        assert plan.pools[0].actions[0].destination_node == "outside-0"

    def test_no_room_inside_the_fence_parks_outside_and_records_it(self):
        configuration, target, fence = self._fenced_swap(inside_memory=1024)
        plan = build_plan(configuration, target, constraints=[fence])
        assert plan.pools[0].actions[0].destination_node == "outside-0"
        assert [v.stage for v in plan.constraint_violations] == [1, 2]
        plan.check_reaches(target)


class TestUnreachableTargets:
    def test_unviable_target_raises(self):
        configuration = two_node_cluster(memory=1024, count=2)
        configuration.add_vm(make_vm("a", memory=1024, cpu=1))
        configuration.add_vm(make_vm("b", memory=1024, cpu=1))
        configuration.set_sleeping("a", "node-0")
        configuration.set_sleeping("b", "node-0")
        target = configuration.copy()
        # Both VMs on node-0: not viable, no pending migration to blame.
        target.set_running("a", "node-0")
        target.set_running("b", "node-0")
        with pytest.raises(PlanningError):
            build_plan(configuration, target)


class TestVJobConsistency:
    def _staggered_resume_scenario(self):
        """Two sleeping VMs of the same vjob whose resumes would naturally land
        in different pools: v2's destination must first be freed by a suspend."""
        nodes = make_working_nodes(2, cpu_capacity=1, memory_capacity=2048)
        configuration = Configuration(nodes=nodes)
        configuration.add_vm(make_vm("v1", memory=512, cpu=1, vjob="job"))
        configuration.add_vm(make_vm("v2", memory=512, cpu=1, vjob="job"))
        configuration.add_vm(make_vm("blocker", memory=2048, cpu=1))
        configuration.set_sleeping("v1", "node-0")
        configuration.set_sleeping("v2", "node-1")
        configuration.set_running("blocker", "node-1")
        target = configuration.copy()
        target.set_sleeping("blocker")
        target.set_running("v1", "node-0")
        target.set_running("v2", "node-1")
        return configuration, target

    def test_resumes_of_a_vjob_are_regrouped(self):
        configuration, target = self._staggered_resume_scenario()
        vjob_of_vm = {"v1": "job", "v2": "job"}
        plan = build_plan(configuration, target, vjob_of_vm)
        plan.check_reaches(target)
        resume_pools = {
            index
            for index, pool in enumerate(plan.pools)
            for action in pool
            if isinstance(action, Resume)
        }
        assert len(resume_pools) == 1

    def test_without_vjob_mapping_resumes_stay_split(self):
        configuration, target = self._staggered_resume_scenario()
        plan = build_plan(configuration, target)
        resume_pools = {
            index
            for index, pool in enumerate(plan.pools)
            for action in pool
            if isinstance(action, Resume)
        }
        assert len(resume_pools) == 2

    def test_consistency_can_be_disabled(self):
        configuration, target = self._staggered_resume_scenario()
        planner = ReconfigurationPlanner(PlannerOptions(enforce_vjob_consistency=False))
        plan = planner.build(configuration, target, {"v1": "job", "v2": "job"})
        resume_pools = {
            index
            for index, pool in enumerate(plan.pools)
            for action in pool
            if isinstance(action, Resume)
        }
        assert len(resume_pools) == 2

    def test_suspends_land_in_the_first_pool(self):
        configuration, target = self._staggered_resume_scenario()
        plan = build_plan(configuration, target, {"v1": "job", "v2": "job"})
        suspends = [
            index
            for index, pool in enumerate(plan.pools)
            for action in pool
            if isinstance(action, Suspend)
        ]
        assert suspends == [0]


class TestGuards:
    def test_max_pools_guard(self):
        configuration = two_node_cluster(memory=2048, count=2)
        configuration.add_vm(make_vm("a", memory=512, cpu=0))
        configuration.set_running("a", "node-0")
        target = configuration.copy()
        target.set_running("a", "node-1")
        planner = ReconfigurationPlanner(PlannerOptions(max_pools=0))
        with pytest.raises(PlanningError):
            planner.build(configuration, target)
