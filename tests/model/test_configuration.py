"""Tests of configurations and their viability (Section 3.2, Figure 5)."""

import pytest

import repro.model.configuration
from repro.model.configuration import Configuration
from repro.model.errors import (
    DuplicateElementError,
    NonViableConfigurationError,
    UnknownNodeError,
    UnknownVMError,
)
from repro.model.node import Node, make_working_nodes
from repro.model.resources import ResourceVector
from repro.model.vm import VirtualMachine, VMState

from repro.testing import make_vm


class TestPopulation:
    def test_duplicate_node_rejected(self, three_nodes):
        configuration = Configuration(nodes=three_nodes)
        with pytest.raises(DuplicateElementError):
            configuration.add_node(three_nodes[0])

    def test_duplicate_vm_rejected(self, empty_configuration):
        empty_configuration.add_vm(make_vm("vm1"))
        with pytest.raises(DuplicateElementError):
            empty_configuration.add_vm(make_vm("vm1"))

    def test_new_vm_starts_waiting(self, empty_configuration):
        empty_configuration.add_vm(make_vm("vm1"))
        assert empty_configuration.state_of("vm1") is VMState.WAITING

    def test_unknown_lookups_raise(self, empty_configuration):
        with pytest.raises(UnknownVMError):
            empty_configuration.vm("ghost")
        with pytest.raises(UnknownNodeError):
            empty_configuration.node("ghost")
        with pytest.raises(UnknownVMError):
            empty_configuration.state_of("ghost")

    def test_replace_vm_updates_demand_only(self, loaded_configuration):
        updated = loaded_configuration.vm("idle").with_cpu_demand(1)
        loaded_configuration.replace_vm(updated)
        assert loaded_configuration.vm("idle").cpu_demand == 1
        assert loaded_configuration.location_of("idle") == "node-1"


class TestStateChanges:
    def test_set_running_places_vm(self, empty_configuration):
        empty_configuration.add_vm(make_vm("vm1"))
        empty_configuration.set_running("vm1", "node-2")
        assert empty_configuration.state_of("vm1") is VMState.RUNNING
        assert empty_configuration.location_of("vm1") == "node-2"

    def test_set_sleeping_remembers_image_location(self, loaded_configuration):
        loaded_configuration.set_sleeping("busy")
        assert loaded_configuration.state_of("busy") is VMState.SLEEPING
        assert loaded_configuration.image_location_of("busy") == "node-0"
        assert loaded_configuration.location_of("busy") is None

    def test_set_sleeping_with_explicit_image_node(self, loaded_configuration):
        loaded_configuration.set_sleeping("busy", image_node="node-2")
        assert loaded_configuration.image_location_of("busy") == "node-2"

    def test_resume_clears_image(self, loaded_configuration):
        loaded_configuration.set_sleeping("busy")
        loaded_configuration.set_running("busy", "node-2")
        assert loaded_configuration.image_location_of("busy") is None

    def test_migrate_moves_running_vm(self, loaded_configuration):
        loaded_configuration.migrate("busy", "node-2")
        assert loaded_configuration.location_of("busy") == "node-2"
        assert loaded_configuration.state_of("busy") is VMState.RUNNING

    def test_migrate_requires_running_state(self, loaded_configuration):
        loaded_configuration.set_sleeping("busy")
        with pytest.raises(NonViableConfigurationError):
            loaded_configuration.migrate("busy", "node-2")

    def test_set_terminated_clears_everything(self, loaded_configuration):
        loaded_configuration.set_terminated("busy")
        assert loaded_configuration.state_of("busy") is VMState.TERMINATED
        assert loaded_configuration.location_of("busy") is None
        assert "busy" not in loaded_configuration.running_vms()


class TestResourceAccounting:
    def test_usage_of_node(self, loaded_configuration):
        assert loaded_configuration.usage_of("node-0") == ResourceVector(1, 1024)
        assert loaded_configuration.usage_of("node-2") == ResourceVector(0, 0)

    def test_free_capacity(self, loaded_configuration):
        assert loaded_configuration.free_capacity("node-0") == ResourceVector(0, 1024)

    def test_can_host_checks_both_dimensions(self, loaded_configuration):
        small = make_vm("small", memory=512, cpu=0)
        busy = make_vm("other", memory=512, cpu=1)
        assert loaded_configuration.can_host("node-0", small)
        assert not loaded_configuration.can_host("node-0", busy)  # CPU exhausted

    def test_total_usage_and_capacity(self, loaded_configuration):
        assert loaded_configuration.total_usage() == ResourceVector(1, 1536)
        assert loaded_configuration.total_capacity() == ResourceVector(3, 6144)


class TestViability:
    def test_viable_configuration(self, loaded_configuration):
        assert loaded_configuration.is_viable()

    def test_cpu_overload_detected(self, three_nodes):
        """Figure 5(a): two VMs requiring a full CPU on a uniprocessor node."""
        configuration = Configuration(nodes=three_nodes)
        configuration.add_vm(make_vm("vm2", memory=512, cpu=1))
        configuration.add_vm(make_vm("vm3", memory=512, cpu=1))
        configuration.set_running("vm2", "node-0")
        configuration.set_running("vm3", "node-0")
        assert not configuration.is_viable()
        violations = configuration.viability_violations()
        assert len(violations) == 1
        assert violations[0].node == "node-0"
        assert violations[0].usage.cpu - violations[0].capacity.cpu == 1
        assert violations[0].usage.memory <= violations[0].capacity.memory

    def test_memory_overload_detected(self, three_nodes):
        configuration = Configuration(nodes=three_nodes)
        configuration.add_vm(make_vm("big1", memory=1536))
        configuration.add_vm(make_vm("big2", memory=1024))
        configuration.set_running("big1", "node-0")
        configuration.set_running("big2", "node-0")
        assert not configuration.is_viable()
        violation = configuration.viability_violations()[0]
        assert violation.usage.memory - violation.capacity.memory == 512

    def test_sleeping_vms_do_not_consume_resources(self, three_nodes):
        configuration = Configuration(nodes=three_nodes)
        configuration.add_vm(make_vm("a", memory=2048, cpu=1))
        configuration.add_vm(make_vm("b", memory=2048, cpu=1))
        configuration.set_running("a", "node-0")
        configuration.set_sleeping("b", "node-0")
        assert configuration.is_viable()


class TestCopiesAndComparisons:
    def test_copy_is_independent(self, loaded_configuration):
        clone = loaded_configuration.copy()
        clone.set_sleeping("busy")
        assert loaded_configuration.state_of("busy") is VMState.RUNNING
        assert clone.state_of("busy") is VMState.SLEEPING

    def test_same_assignment(self, loaded_configuration):
        clone = loaded_configuration.copy()
        assert loaded_configuration.same_assignment(clone)
        clone.migrate("busy", "node-2")
        assert not loaded_configuration.same_assignment(clone)

    def test_equality(self, loaded_configuration):
        assert loaded_configuration == loaded_configuration.copy()
        other = loaded_configuration.copy()
        other.set_sleeping("idle")
        assert loaded_configuration != other

    def test_configurations_are_unhashable(self, loaded_configuration):
        with pytest.raises(TypeError):
            hash(loaded_configuration)

    def test_vms_on_and_placement(self, loaded_configuration):
        assert loaded_configuration.vms_on("node-0") == ("busy",)
        assert loaded_configuration.placement() == {"busy": "node-0", "idle": "node-1"}


def _forked_fleet() -> Configuration:
    """Running, sleeping and waiting VMs over four nodes, one of them empty
    (``spare``), so every mutator has something to change; every node
    still dirty."""
    configuration = Configuration(
        nodes=[
            *make_working_nodes(3, cpu_capacity=2, memory_capacity=2048),
            Node("spare", 2, 2048),
        ]
    )
    for name, memory, cpu in (
        ("busy", 1024, 1),
        ("other", 512, 1),
        ("idle", 512, 0),
        ("asleep", 512, 1),
        ("pending", 512, 1),
    ):
        configuration.add_vm(make_vm(name, memory=memory, cpu=cpu))
    configuration.set_running("busy", "node-0")
    configuration.set_running("other", "node-0")
    configuration.set_running("idle", "node-1")
    configuration.set_sleeping("asleep", "node-1")
    return configuration


#: One call of every mutator, each a write to the maps a copy shares.
MUTATORS = {
    "add_node": lambda c: c.add_node(Node("node-9", 2, 2048)),
    "remove_node": lambda c: c.remove_node("spare"),
    "add_vm": lambda c: c.add_vm(make_vm("new")),
    "replace_vm": lambda c: c.replace_vm(c.vm("busy").with_cpu_demand(2)),
    "set_running": lambda c: c.set_running("pending", "node-2"),
    "set_sleeping": lambda c: c.set_sleeping("busy"),
    "set_waiting": lambda c: c.set_waiting("asleep"),
    "set_terminated": lambda c: c.set_terminated("idle"),
    "migrate": lambda c: c.migrate("busy", "node-2"),
    "viability_violations": lambda c: c.viability_violations(only_dirty=True),
}


#: The VMs whose state, host or suspend image each mutator writes: what the
#: change journal must name after it.
JOURNALED = {
    "add_node": set(),
    "remove_node": set(),
    "add_vm": {"new"},
    "replace_vm": set(),
    "set_running": {"pending"},
    "set_sleeping": {"busy"},
    "set_waiting": {"asleep"},
    "set_terminated": {"idle"},
    "migrate": {"busy"},
    "viability_violations": set(),
}


def _reads(configuration: Configuration) -> tuple:
    """Everything the reads answer, without a write (no viability scan)."""
    nodes = configuration.node_names
    return (
        configuration.placement(),
        configuration.states(),
        {name: configuration.vm(name) for name in configuration.vm_names},
        nodes,
        {node: configuration.vms_on(node) for node in nodes},
        {node: configuration.images_on(node) for node in nodes},
        {node: configuration.usage_of(node) for node in nodes},
        configuration.dirty_nodes(),
    )


@pytest.mark.parametrize("written", ["original", "copy"])
@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_a_write_after_a_copy_leaves_the_other_side_as_it_was(mutator, written):
    # A copy shares every map with its original until one of the two writes
    # it: whichever side writes first must take its own copy, never change
    # what the other reads.
    original = _forked_fleet()
    clone = original.copy()
    target, other = (original, clone) if written == "original" else (clone, original)
    MUTATORS[mutator](target)
    untouched = _reads(_forked_fleet())
    assert _reads(target) != untouched
    assert _reads(other) == untouched
    # And the other side's next write is its own too.
    MUTATORS[mutator](other)
    assert _reads(other) == _reads(target)


@pytest.mark.parametrize("written", ["original", "copy"])
@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_the_journal_names_what_one_side_writes_on_that_side(mutator, written):
    # The journal belongs to the assignment maps: after a copy both sides
    # read the same one until one of them writes, and a write is recorded
    # on the side that made it.
    original = _forked_fleet()
    mark = original.mark()
    clone = original.copy()
    target, other = (original, clone) if written == "original" else (clone, original)
    MUTATORS[mutator](target)
    assert target.written_since(mark) == JOURNALED[mutator]
    assert other.written_since(mark) == frozenset()
    # A copy made now carries what was written so far.
    assert target.copy().written_since(mark) == JOURNALED[mutator]
    # A configuration that does not descend from the mark, or that was
    # marked again since, does not answer for it.
    assert _forked_fleet().written_since(mark) is None
    target.mark()
    assert target.written_since(mark) is None


def test_a_journal_past_its_cap_stops(monkeypatch):
    monkeypatch.setattr(repro.model.configuration, "JOURNAL_CAP", 1)
    configuration = _forked_fleet()
    mark = configuration.mark()
    configuration.set_waiting("busy")
    assert configuration.written_since(mark) == {"busy"}
    configuration.set_waiting("idle")
    # Past the cap it answers nothing, and the first write after a copy
    # drops it: the configuration journals nothing from there on.
    assert configuration.written_since(mark) is None
    clone = configuration.copy()
    clone.set_waiting("other")
    assert clone._journal is None
    assert clone.written_since(mark) is None
