"""Tests of the reconfiguration graph derivation."""

import pytest

from repro.core.actions import Migrate, Resume, Run, Stop, Suspend
from repro.core.graph import ReconfigurationGraph
from repro.model.configuration import Configuration
from repro.model.errors import PlanningError
from repro.model.node import make_working_nodes

from repro.testing import make_vm


@pytest.fixture
def current():
    nodes = make_working_nodes(3, cpu_capacity=2, memory_capacity=4096)
    configuration = Configuration(nodes=nodes)
    for name, memory, cpu in [
        ("r1", 1024, 1),
        ("r2", 512, 0),
        ("s1", 2048, 1),
        ("w1", 512, 1),
    ]:
        configuration.add_vm(make_vm(name, memory=memory, cpu=cpu))
    configuration.set_running("r1", "node-0")
    configuration.set_running("r2", "node-1")
    configuration.set_sleeping("s1", "node-2")
    return configuration


def test_identical_configurations_produce_empty_graph(current):
    graph = ReconfigurationGraph(current.copy(), current.copy())
    assert graph.is_empty()
    assert len(graph) == 0


def test_each_transition_produces_the_expected_action(current):
    target = current.copy()
    target.set_running("r1", "node-2")        # migrate
    target.set_sleeping("r2")                 # suspend
    target.set_running("s1", "node-2")        # local resume
    target.set_running("w1", "node-1")        # run
    graph = ReconfigurationGraph(current, target)
    actions = {type(a) for a in graph.actions}
    assert actions == {Migrate, Suspend, Resume, Run}
    assert len(graph) == 4


def test_resume_locality_comes_from_the_image_location(current):
    target = current.copy()
    target.set_running("s1", "node-0")
    graph = ReconfigurationGraph(current, target)
    resume = next(a for a in graph.actions if isinstance(a, Resume))
    assert resume.image_node == "node-2"
    assert not resume.is_local


def test_stop_generated_for_terminated_running_vm(current):
    target = current.copy()
    target.set_terminated("r1")
    graph = ReconfigurationGraph(current, target)
    assert len(graph) == 1
    assert isinstance(graph.actions[0], Stop)


def test_terminating_non_running_vms_needs_no_action(current):
    target = current.copy()
    target.set_terminated("s1")
    target.set_terminated("w1")
    graph = ReconfigurationGraph(current, target)
    assert graph.is_empty()


def test_running_vm_staying_in_place_needs_no_action(current):
    target = current.copy()
    target.set_running("w1", "node-1")
    graph = ReconfigurationGraph(current, target)
    assert len(graph) == 1  # only the run action for w1


def test_running_vm_cannot_return_to_waiting(current):
    """The life cycle of Figure 2 has no Running -> Waiting transition."""
    target = current.copy()
    target.set_waiting("r1")
    with pytest.raises(PlanningError):
        ReconfigurationGraph(current, target)


def test_waiting_and_sleeping_vms_staying_put_need_no_action(current):
    target = current.copy()
    graph = ReconfigurationGraph(current, target)
    assert graph.is_empty()


def test_mismatched_vm_sets_raise(current):
    other = Configuration(nodes=make_working_nodes(3))
    other.add_vm(make_vm("different"))
    with pytest.raises(PlanningError):
        ReconfigurationGraph(current, other)


def test_terminated_vm_cannot_run_again(current):
    current.set_terminated("r1")
    target = current.copy()
    # Forge a target that wants the terminated VM running again.
    target.set_running("r1", "node-0")
    with pytest.raises(PlanningError):
        ReconfigurationGraph(current, target)


def test_edges_carry_vm_demand(current):
    target = current.copy()
    target.set_running("r1", "node-2")
    graph = ReconfigurationGraph(current, target)
    edge = graph.edges[0]
    assert edge.demand.memory == 1024
    assert edge.demand.cpu == 1


def test_an_explicitly_empty_remainder_is_empty(current):
    """``edges=None`` derives the graph; a list, even an empty one, is the
    remaining work as given."""
    target = current.copy()
    target.set_running("r1", "node-2")
    assert len(ReconfigurationGraph(current, target)) == 1
    assert ReconfigurationGraph(current, target, edges=[]).is_empty()


def test_advance_drops_applied_edges_and_reroutes_a_parked_vm(current):
    target = current.copy()
    target.set_running("r1", "node-2")        # migrate
    target.set_sleeping("r2")                 # suspend
    target.set_running("w1", "node-1")        # run
    working = current.copy()
    graph = ReconfigurationGraph(working, target)
    migrate, suspend, run = graph.actions
    demand = graph.edges[0].demand

    # The suspend ran as planned; r1 was parked on node-1 instead of going
    # to node-2: its edge stays, first in line, and leaves from node-1 now.
    parked = Migrate(vm="r1", source_node="node-0", destination_node="node-1")
    for action in (suspend, parked):
        action.apply(working)
    graph.advance([suspend, parked])
    assert graph.actions == [
        Migrate(vm="r1", source_node="node-1", destination_node="node-2"),
        run,
    ]
    assert graph.edges[0].demand == demand
    assert graph.actions == ReconfigurationGraph(working.copy(), target).actions

    # A migration that lands on the destination is the edge itself.
    graph.advance([Migrate(vm="r1", source_node="node-1", destination_node="node-2"), run])
    assert graph.is_empty()
