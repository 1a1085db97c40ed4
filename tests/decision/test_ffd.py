"""Tests of the First-Fit Decreasing heuristic."""

import pytest

from repro.decision.ffd import ffd_commit, ffd_order, ffd_target_configuration
from repro.model.configuration import Configuration
from repro.model.node import make_working_nodes
from repro.model.vm import VMState

from repro.testing import make_vm


@pytest.fixture
def configuration():
    return Configuration(nodes=make_working_nodes(3, cpu_capacity=2, memory_capacity=4096))


class TestFFDOrder:
    def test_sorts_by_cpu_then_memory_descending(self):
        vms = [
            make_vm("idle-small", memory=256, cpu=0),
            make_vm("busy-big", memory=2048, cpu=1),
            make_vm("busy-small", memory=512, cpu=1),
        ]
        assert [vm.name for vm in ffd_order(vms)] == [
            "busy-big",
            "busy-small",
            "idle-small",
        ]


class TestFFDPlace:
    def test_places_on_first_fitting_node(self, configuration):
        placement = ffd_commit(configuration, [make_vm("a", memory=1024, cpu=1)])
        assert placement == {"a": "node-0"}

    def test_accounts_for_vms_placed_in_same_call(self, configuration):
        vms = [make_vm(f"v{i}", memory=1024, cpu=1) for i in range(4)]
        placement = ffd_commit(configuration, vms)
        assert placement is not None
        per_node = {}
        for node in placement.values():
            per_node[node] = per_node.get(node, 0) + 1
        assert all(count <= 2 for count in per_node.values())

    def test_accounts_for_already_running_vms(self, configuration):
        configuration.add_vm(make_vm("resident", memory=4096, cpu=2))
        configuration.set_running("resident", "node-0")
        placement = ffd_commit(configuration, [make_vm("a", memory=1024, cpu=1)])
        assert placement == {"a": "node-1"}

    def test_returns_none_when_a_vm_does_not_fit(self, configuration):
        placement = ffd_commit(configuration, [make_vm("huge", memory=8192, cpu=1)])
        assert placement is None

    def test_a_placement_is_committed_to_the_trial(self, configuration):
        ffd_commit(configuration, [make_vm("a", memory=1024, cpu=1)])
        assert configuration.state_of("a") is VMState.RUNNING
        assert configuration.location_of("a") == "node-0"

    def test_a_failed_call_takes_back_the_vms_it_registered(self, configuration):
        vms = [make_vm("fits", memory=1024, cpu=1), make_vm("huge", memory=8192, cpu=1)]
        assert ffd_commit(configuration, vms) is None
        assert "fits" not in configuration.vm_names
        assert "huge" not in configuration.vm_names

    def test_respects_node_restriction(self, configuration):
        placement = ffd_commit(
            configuration, [make_vm("a", memory=1024, cpu=1)], nodes=["node-2"]
        )
        assert placement == {"a": "node-2"}

    def test_can_replace_existing_running_vm(self, configuration):
        configuration.add_vm(make_vm("mover", memory=1024, cpu=1))
        configuration.set_running("mover", "node-2")
        placement = ffd_commit(configuration, [configuration.vm("mover")])
        assert placement == {"mover": "node-0"}


class TestFFDTargetConfiguration:
    def test_repacks_running_vms_from_scratch(self, configuration):
        configuration.add_vm(make_vm("a", memory=1024, cpu=1))
        configuration.add_vm(make_vm("b", memory=1024, cpu=1))
        configuration.set_running("a", "node-2")
        configuration.set_running("b", "node-1")
        target = ffd_target_configuration(
            configuration, {"a": VMState.RUNNING, "b": VMState.RUNNING}
        )
        # FFD packs from scratch: both VMs land on node-0 regardless of their
        # current placement — this is what makes the baseline expensive.
        assert target.location_of("a") == "node-0"
        assert target.location_of("b") == "node-0"

    def test_suspended_vm_keeps_image_on_its_host(self, configuration):
        configuration.add_vm(make_vm("a", memory=1024, cpu=1))
        configuration.set_running("a", "node-1")
        target = ffd_target_configuration(configuration, {"a": VMState.SLEEPING})
        assert target.state_of("a") is VMState.SLEEPING
        assert target.image_location_of("a") == "node-1"

    def test_terminated_and_waiting_states_are_propagated(self, configuration):
        configuration.add_vm(make_vm("a", memory=1024, cpu=1))
        configuration.add_vm(make_vm("b", memory=1024, cpu=1))
        configuration.set_running("a", "node-1")
        target = ffd_target_configuration(
            configuration, {"a": VMState.TERMINATED, "b": VMState.WAITING}
        )
        assert target.state_of("a") is VMState.TERMINATED
        assert target.state_of("b") is VMState.WAITING

    def test_does_not_mutate_the_current_configuration(self, configuration):
        configuration.add_vm(make_vm("a", memory=1024, cpu=1))
        configuration.set_running("a", "node-2")
        before = configuration.copy()
        target = ffd_target_configuration(configuration, {"a": VMState.RUNNING})
        assert target.location_of("a") == "node-0"
        assert configuration.same_assignment(before)
        assert configuration.location_of("a") == "node-2"

    def test_returns_none_when_packing_fails(self, configuration):
        configuration.add_vm(make_vm("huge", memory=8192, cpu=1))
        target = ffd_target_configuration(configuration, {"huge": VMState.RUNNING})
        assert target is None

    def test_target_is_viable(self, configuration):
        for index in range(5):
            configuration.add_vm(make_vm(f"v{index}", memory=1024, cpu=1))
            if index < 3:
                configuration.set_running(f"v{index}", "node-0")  # overload
        states = {f"v{index}": VMState.RUNNING for index in range(5)}
        target = ffd_target_configuration(configuration, states)
        assert target is not None
        assert target.is_viable()
