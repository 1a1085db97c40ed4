"""Tests of the VM actions and their Table 1 costs."""

import pytest

from repro.core.actions import (
    ActionKind,
    Migrate,
    Resume,
    Run,
    Stop,
    Suspend,
)
from repro.model.configuration import Configuration
from repro.model.errors import ExecutionError
from repro.model.node import make_working_nodes
from repro.model.vm import VMState

from repro.testing import make_vm


@pytest.fixture
def configuration():
    nodes = make_working_nodes(3, cpu_capacity=2, memory_capacity=4096)
    configuration = Configuration(nodes=nodes)
    configuration.add_vm(make_vm("running", memory=1024, cpu=1))
    configuration.add_vm(make_vm("waiting", memory=512, cpu=1))
    configuration.add_vm(make_vm("sleeping", memory=2048, cpu=1))
    configuration.set_running("running", "node-0")
    configuration.set_sleeping("sleeping", "node-1")
    return configuration


class TestRun:
    def test_cost_is_constant_zero(self, configuration):
        assert Run(vm="waiting", node="node-2").cost(configuration) == 0

    def test_feasible_on_free_node(self, configuration):
        assert Run(vm="waiting", node="node-2").is_feasible(configuration)

    def test_infeasible_when_node_full(self, configuration):
        configuration.add_vm(make_vm("fat", memory=4096, cpu=2))
        configuration.set_running("fat", "node-2")
        assert not Run(vm="waiting", node="node-2").is_feasible(configuration)

    def test_infeasible_when_not_waiting(self, configuration):
        assert not Run(vm="running", node="node-2").is_feasible(configuration)

    def test_apply(self, configuration):
        Run(vm="waiting", node="node-2").apply(configuration)
        assert configuration.state_of("waiting") is VMState.RUNNING
        assert configuration.location_of("waiting") == "node-2"

    def test_apply_wrong_state_raises(self, configuration):
        with pytest.raises(ExecutionError):
            Run(vm="running", node="node-2").apply(configuration)

    def test_resource_effects(self, configuration):
        action = Run(vm="waiting", node="node-2")
        assert action.consumes_resources()
        assert action.source() is None
        assert action.destination() == "node-2"


class TestStop:
    def test_cost_is_constant_zero(self, configuration):
        assert Stop(vm="running", node="node-0").cost(configuration) == 0

    def test_always_feasible_on_running_vm(self, configuration):
        assert Stop(vm="running", node="node-0").is_feasible(configuration)
        assert not Stop(vm="waiting", node="node-0").is_feasible(configuration)

    def test_apply(self, configuration):
        Stop(vm="running", node="node-0").apply(configuration)
        assert configuration.state_of("running") is VMState.TERMINATED

    def test_liberates_resources(self, configuration):
        action = Stop(vm="running", node="node-0")
        assert action.source() == "node-0"
        assert not action.consumes_resources()


class TestMigrate:
    def test_cost_is_memory_demand(self, configuration):
        action = Migrate(vm="running", source_node="node-0", destination_node="node-2")
        assert action.cost(configuration) == 1024

    def test_feasibility_requires_room_on_destination(self, configuration):
        configuration.add_vm(make_vm("blocker", memory=4096, cpu=0))
        configuration.set_running("blocker", "node-2")
        action = Migrate(vm="running", source_node="node-0", destination_node="node-2")
        assert not action.is_feasible(configuration)

    def test_feasibility_requires_correct_source(self, configuration):
        action = Migrate(vm="running", source_node="node-1", destination_node="node-2")
        assert not action.is_feasible(configuration)

    def test_apply_moves_vm(self, configuration):
        Migrate(vm="running", source_node="node-0", destination_node="node-2").apply(
            configuration
        )
        assert configuration.location_of("running") == "node-2"

    def test_apply_from_wrong_node_raises(self, configuration):
        with pytest.raises(ExecutionError):
            Migrate(
                vm="running", source_node="node-1", destination_node="node-2"
            ).apply(configuration)

    def test_kind(self):
        assert Migrate(vm="x", source_node="a", destination_node="b").kind is ActionKind.MIGRATE


class TestSuspend:
    def test_cost_is_memory_demand(self, configuration):
        assert Suspend(vm="running", node="node-0").cost(configuration) == 1024

    def test_feasible_only_on_its_host(self, configuration):
        assert Suspend(vm="running", node="node-0").is_feasible(configuration)
        assert not Suspend(vm="running", node="node-1").is_feasible(configuration)

    def test_apply_keeps_image_on_host(self, configuration):
        Suspend(vm="running", node="node-0").apply(configuration)
        assert configuration.state_of("running") is VMState.SLEEPING
        assert configuration.image_location_of("running") == "node-0"


class TestResume:
    def test_local_resume_costs_memory(self, configuration):
        action = Resume(vm="sleeping", image_node="node-1", destination_node="node-1")
        assert action.is_local
        assert action.cost(configuration) == 2048

    def test_remote_resume_costs_twice_memory(self, configuration):
        action = Resume(vm="sleeping", image_node="node-1", destination_node="node-2")
        assert not action.is_local
        assert action.cost(configuration) == 4096

    def test_feasibility_requires_room(self, configuration):
        configuration.add_vm(make_vm("blocker", memory=3000, cpu=0))
        configuration.set_running("blocker", "node-1")
        action = Resume(vm="sleeping", image_node="node-1", destination_node="node-1")
        assert not action.is_feasible(configuration)

    def test_apply(self, configuration):
        Resume(vm="sleeping", image_node="node-1", destination_node="node-2").apply(
            configuration
        )
        assert configuration.state_of("sleeping") is VMState.RUNNING
        assert configuration.location_of("sleeping") == "node-2"

    def test_apply_on_running_vm_raises(self, configuration):
        with pytest.raises(ExecutionError):
            Resume(vm="running", image_node=None, destination_node="node-2").apply(
                configuration
            )

    def test_str_mentions_locality(self):
        local = Resume(vm="v", image_node="n", destination_node="n")
        remote = Resume(vm="v", image_node="n", destination_node="m")
        assert "local" in str(local)
        assert "remote" in str(remote)
