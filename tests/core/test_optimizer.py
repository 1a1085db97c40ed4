"""Tests of the CP-based context-switch optimizer (Section 4.3)."""

import pytest

from repro.constraints import Fence, Spread, violated_constraints
from repro.core.optimizer import ContextSwitchOptimizer
from repro.decision.ffd import ffd_target_configuration
from repro.model.configuration import Configuration
from repro.model.errors import PlanningError
from repro.model.node import make_working_nodes
from repro.model.vm import VMState

from repro.testing import make_vm


@pytest.fixture
def cluster():
    nodes = make_working_nodes(4, cpu_capacity=2, memory_capacity=4096)
    configuration = Configuration(nodes=nodes)
    for name, memory, cpu, node in [
        ("a", 1024, 1, "node-0"),
        ("b", 512, 1, "node-1"),
        ("c", 2048, 0, "node-2"),
    ]:
        configuration.add_vm(make_vm(name, memory=memory, cpu=cpu))
        configuration.set_running(name, node)
    configuration.add_vm(make_vm("sleepy", memory=1024, cpu=1))
    configuration.set_sleeping("sleepy", "node-3")
    configuration.add_vm(make_vm("newcomer", memory=512, cpu=1))
    return configuration


class TestKeepInPlace:
    def test_running_vms_stay_put_when_nothing_changes(self, cluster):
        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(cluster, {})
        assert result.plan.is_empty
        assert result.cost == 0
        for name in ("a", "b", "c"):
            assert result.target.location_of(name) == cluster.location_of(name)

    def test_sleeping_vm_resumed_locally(self, cluster):
        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(cluster, {"sleepy": VMState.RUNNING})
        assert result.target.location_of("sleepy") == "node-3"
        assert result.cost == 1024  # a single local resume

    def test_waiting_vm_runs_without_cost(self, cluster):
        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(cluster, {"newcomer": VMState.RUNNING})
        assert result.target.state_of("newcomer") is VMState.RUNNING
        assert result.cost == 0

    def test_suspend_cost_is_fixed(self, cluster):
        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(cluster, {"c": VMState.SLEEPING})
        assert result.fixed_cost == 2048
        assert result.cost == 2048
        assert result.target.state_of("c") is VMState.SLEEPING
        assert result.target.image_location_of("c") == "node-2"


class TestOverloadResolution:
    def test_overloaded_node_is_fixed_with_a_migration(self):
        nodes = make_working_nodes(2, cpu_capacity=1, memory_capacity=4096)
        configuration = Configuration(nodes=nodes)
        configuration.add_vm(make_vm("x", memory=512, cpu=1))
        configuration.add_vm(make_vm("y", memory=1024, cpu=1))
        configuration.set_running("x", "node-0")
        configuration.set_running("y", "node-0")  # CPU overload on node-0
        assert not configuration.is_viable()

        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(configuration, {})
        assert result.target.is_viable()
        # The cheaper VM moves: x (512 MB) rather than y (1024 MB).
        assert result.target.location_of("x") == "node-1"
        assert result.target.location_of("y") == "node-0"
        assert result.cost == 512

    def test_result_better_or_equal_to_ffd(self, cluster):
        states = {"sleepy": VMState.RUNNING, "newcomer": VMState.RUNNING}
        ffd_target = ffd_target_configuration(cluster, states)
        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(cluster, states, fallback_target=ffd_target)
        from repro.core import build_plan, plan_cost

        ffd_cost = plan_cost(build_plan(cluster, ffd_target)).total
        assert result.cost <= ffd_cost


class TestFallbacks:
    def test_infeasible_demand_uses_fallback_error(self):
        nodes = make_working_nodes(1, cpu_capacity=1, memory_capacity=512)
        configuration = Configuration(nodes=nodes)
        configuration.add_vm(make_vm("big", memory=4096, cpu=1))
        optimizer = ContextSwitchOptimizer(timeout=2)
        with pytest.raises(PlanningError):
            optimizer.optimize(configuration, {"big": VMState.RUNNING})

    def test_statistics_are_reported(self, cluster):
        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(cluster, {"sleepy": VMState.RUNNING})
        assert result.statistics is not None
        assert result.statistics.elapsed >= 0.0

    def test_first_solution_only_mode(self, cluster):
        optimizer = ContextSwitchOptimizer(timeout=5, first_solution_only=True)
        result = optimizer.optimize(cluster, {"sleepy": VMState.RUNNING})
        assert result.target.state_of("sleepy") is VMState.RUNNING


class TestVJobConsistencyIntegration:
    def test_plan_regroups_vjob_resumes(self):
        nodes = make_working_nodes(3, cpu_capacity=2, memory_capacity=4096)
        configuration = Configuration(nodes=nodes)
        for index in range(2):
            configuration.add_vm(
                make_vm(f"j.vm{index}", memory=512, cpu=1, vjob="j")
            )
            configuration.set_sleeping(f"j.vm{index}", f"node-{index}")
        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(
            configuration,
            {"j.vm0": VMState.RUNNING, "j.vm1": VMState.RUNNING},
            vjob_of_vm={"j.vm0": "j", "j.vm1": "j"},
        )
        resume_pools = {
            index
            for index, pool in enumerate(result.plan.pools)
            for action in pool
            if action.kind.value == "resume"
        }
        assert len(resume_pools) == 1


_EVERY_VM_PINNED = {
    "a": "node-0",
    "b": "node-1",
    "c": "node-2",
    "sleepy": "node-3",
    "newcomer": "node-3",
}


class TestOneModelBuilder:
    """One builder serves the cold solve, the folded repair fast path and
    the pinned-variable path: each must honour pins, capacities and the
    catalog, and refuse unsatisfiable pins instead of unpinning."""

    @pytest.mark.parametrize(
        "pinned, constraints, solvable",
        [
            pytest.param(None, [], True, id="no-pins"),
            pytest.param(
                {"a": "node-0", "b": "node-1"}, [], True, id="pins-empty-catalog"
            ),
            pytest.param(
                {"a": "node-0", "b": "node-1"},
                [Fence(["newcomer", "sleepy"], ["node-1", "node-2"])],
                True,
                id="pins-fence",
            ),
            pytest.param(
                {"a": "node-0", "c": "node-2"},
                [Spread(["a", "newcomer", "sleepy"])],
                True,
                id="pins-spread",
            ),
            pytest.param(_EVERY_VM_PINNED, [], True, id="every-vm-pinned"),
            pytest.param({"a": "node-9"}, [], False, id="pin-to-removed-node"),
            pytest.param(
                {"a": "node-0"},
                [Fence(["a"], ["node-1", "node-2"])],
                False,
                id="pin-outside-its-fence",
            ),
        ],
    )
    def test_pins_capacities_and_catalog_are_honoured(
        self, cluster, pinned, constraints, solvable
    ):
        states = {name: VMState.RUNNING for name in cluster.vm_names}
        assignment, _, _ = ContextSwitchOptimizer(timeout=5).search_assignment(
            cluster, states, constraints, pinned=pinned
        )
        if not solvable:
            assert assignment is None
            return
        assert set(assignment) == set(cluster.vm_names)
        for vm, node in (pinned or {}).items():
            assert assignment[vm] == node
        target = cluster.copy()
        for vm, node in assignment.items():
            target.set_running(vm, node)
        assert target.is_viable()
        assert violated_constraints(target, constraints) == []
