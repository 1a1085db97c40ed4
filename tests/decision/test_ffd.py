"""Tests of the First-Fit Decreasing heuristic."""

import pytest

from repro.constraints import CandidateFilter, Spread
from repro.decision.ffd import (
    PackingTrial,
    ffd_commit,
    ffd_order,
    ffd_target_configuration,
)
from repro.model.configuration import Configuration
from repro.model.errors import DuplicateElementError
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


@pytest.fixture
def trial(configuration):
    return PackingTrial(configuration.nodes)


class TestFFDPlace:
    def test_places_on_first_fitting_node(self, trial):
        placement = ffd_commit(trial, [make_vm("a", memory=1024, cpu=1)])
        assert placement == {"a": "node-0"}

    def test_accounts_for_vms_placed_in_same_call(self, trial):
        vms = [make_vm(f"v{i}", memory=1024, cpu=1) for i in range(4)]
        placement = ffd_commit(trial, vms)
        assert placement is not None
        per_node = {}
        for node in placement.values():
            per_node[node] = per_node.get(node, 0) + 1
        assert all(count <= 2 for count in per_node.values())

    def test_accounts_for_already_running_vms(self, trial):
        trial.place(make_vm("resident", memory=4096, cpu=2), "node-0")
        placement = ffd_commit(trial, [make_vm("a", memory=1024, cpu=1)])
        assert placement == {"a": "node-1"}

    def test_returns_none_when_a_vm_does_not_fit(self, trial):
        placement = ffd_commit(trial, [make_vm("huge", memory=8192, cpu=1)])
        assert placement is None

    def test_a_placement_is_committed_to_the_trial(self, trial):
        ffd_commit(trial, [make_vm("a", memory=1024, cpu=1)])
        assert trial.has_vm("a")
        assert trial.location_of("a") == "node-0"
        assert (trial.free_cpu, trial.free_memory) == ([1, 2, 2], [3072, 4096, 4096])

    def test_a_failed_call_takes_back_the_vms_it_placed(self, trial):
        vms = [make_vm("fits", memory=1024, cpu=1), make_vm("huge", memory=8192, cpu=1)]
        assert ffd_commit(trial, vms) is None
        assert not trial.has_vm("fits") and not trial.has_vm("huge")
        assert trial.placement() == {}
        assert (trial.free_cpu, trial.free_memory) == ([2, 2, 2], [4096] * 3)

    def test_respects_node_restriction(self, trial):
        placement = ffd_commit(
            trial, [make_vm("a", memory=1024, cpu=1)], nodes=["node-2"]
        )
        assert placement == {"a": "node-2"}

    def test_a_vm_already_on_the_trial_is_refused(self, trial):
        mover = make_vm("mover", memory=1024, cpu=1)
        trial.place(mover, "node-2")
        with pytest.raises(DuplicateElementError):
            ffd_commit(trial, [mover])

    def test_a_failed_call_restores_the_cursors(self, trial):
        cursors = {}
        ffd_commit(trial, [make_vm("first", memory=1024, cpu=2)], cursors=cursors)
        before = dict(cursors)
        vms = [make_vm("second", memory=1024, cpu=2), make_vm("huge", memory=8192)]
        assert ffd_commit(trial, vms, cursors=cursors) is None
        assert cursors == before
        assert trial.placement() == {"first": "node-0"}
        assert (trial.free_cpu, trial.free_memory) == ([0, 2, 2], [3072, 4096, 4096])

    def test_the_cursors_skip_the_nodes_found_full(self, configuration):
        probed = []

        class CountingTrial(PackingTrial):
            def can_host(self, node_name, vm):
                probed.append(node_name)
                return super().can_host(node_name, vm)

        trial = CountingTrial(configuration.nodes)
        cursors = {}
        for name in ("a", "b"):
            ffd_commit(trial, [make_vm(name, memory=1024, cpu=2)], cursors=cursors)
        probed.clear()
        placement = ffd_commit(
            trial, [make_vm("c", memory=1024, cpu=2)], cursors=cursors
        )
        # node-0 was found full placing ``b``; node-1 filled up after.
        assert placement == {"c": "node-2"}
        assert probed == ["node-1", "node-2"]

    def test_a_vetoed_node_with_room_stays_in_the_scan(self, configuration, trial):
        vms = [make_vm(name, memory=512, cpu=1) for name in ("a", "b", "c")]
        for vm in vms:
            configuration.add_vm(vm)
        node_filter = CandidateFilter([Spread(["a", "b"])], reference=configuration)
        cursors = {}
        placed = [
            ffd_commit(trial, [vm], node_filter, cursors=cursors) for vm in vms
        ]
        # ``b`` may not share node-0 with ``a``; ``c`` still finds its room.
        assert placed == [{"a": "node-0"}, {"b": "node-1"}, {"c": "node-0"}]


class TestPackingTrial:
    def test_it_answers_as_a_configuration_running_the_same_vms(
        self, configuration, trial
    ):
        vms = [
            make_vm("small", memory=512, cpu=1),
            make_vm("big", memory=2048, cpu=1),
            make_vm("idle", memory=256, cpu=0),
        ]
        # Probed big first, entered as handed.
        placement = ffd_commit(trial, vms)
        assert list(placement) == ["big", "small", "idle"]
        for vm in vms:
            configuration.add_vm(vm)
            configuration.set_running(vm.name, placement[vm.name])
        assert list(trial.placement().items()) == list(
            configuration.placement().items()
        )
        for slot, node in enumerate(configuration.node_names):
            assert trial.vms_on(node) == configuration.vms_on(node)
            assert configuration.free_capacity(node).as_tuple() == (
                trial.free_cpu[slot],
                trial.free_memory[slot],
            )
            for vm in vms:
                assert trial.can_host(node, vm) == configuration.can_host(node, vm)
        assert trial.has_node("node-1") and not trial.has_node("ghost")
        assert trial.location_of("ghost") is None

    def test_a_fresh_trial_holds_every_node_empty(self, configuration, trial):
        assert trial.node_names == configuration.node_names
        assert (trial.free_cpu, trial.free_memory) == ([2, 2, 2], [4096] * 3)
        assert trial.placement() == {}
        assert not trial.has_vm("a")
        assert all(trial.vms_on(node) == () for node in trial.node_names)

    def test_a_place_takes_the_vm_whether_it_has_room_or_not(self, trial):
        trial.place(make_vm("huge", memory=8192, cpu=3), "node-1")
        assert trial.location_of("huge") == "node-1"
        assert (trial.free_cpu[1], trial.free_memory[1]) == (-1, -4096)
        assert not trial.can_host("node-1", make_vm("idle", memory=1, cpu=0))

    def test_a_place_refuses_a_vm_it_already_holds(self, trial):
        trial.place(make_vm("a", memory=1024, cpu=1), "node-0")
        with pytest.raises(DuplicateElementError):
            trial.place(make_vm("a", memory=1024, cpu=1), "node-1")
        assert trial.placement() == {"a": "node-0"}
        assert (trial.free_cpu, trial.free_memory) == ([1, 2, 2], [3072, 4096, 4096])

    def test_enter_in_order_makes_the_named_vms_the_latest_entries(self, trial):
        for name in ("a", "b", "c"):
            trial.place(make_vm(name, memory=256, cpu=0), "node-0")
        trial.enter_in_order(["b", "a"])
        assert list(trial.placement()) == ["c", "b", "a"]
        assert trial.vms_on("node-0") == ("c", "b", "a")

    def test_the_placement_handed_out_is_a_copy(self, trial):
        trial.place(make_vm("a", memory=1024, cpu=1), "node-0")
        trial.placement()["a"] = "node-2"
        assert trial.location_of("a") == "node-0"
        assert trial.vms_on("node-2") == ()

    def test_a_take_back_gives_the_load_back(self, trial):
        ffd_commit(trial, [make_vm("a", memory=1024, cpu=1)])
        ffd_commit(trial, [make_vm("b", memory=512, cpu=1)])
        trial.take_back("a")
        assert trial.placement() == {"b": "node-0"}
        assert trial.vms_on("node-0") == ("b",)
        assert (trial.free_cpu[0], trial.free_memory[0]) == (1, 3584)


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
