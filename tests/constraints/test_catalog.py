"""Semantics of the nine catalog relations: checker face, unary compile
face, greedy filter face and repair hooks."""

from __future__ import annotations

import pytest

from repro.constraints import (
    Among,
    Ban,
    CATALOG,
    CandidateFilter,
    Fence,
    Gather,
    Lonely,
    MaxOnline,
    Root,
    RunningCapacity,
    Spread,
)
from repro.model.configuration import Configuration
from repro.model.node import make_working_nodes
from repro.testing import make_vm


@pytest.fixture
def configuration():
    configuration = Configuration(
        nodes=make_working_nodes(4, cpu_capacity=2, memory_capacity=4096)
    )
    for name in ("a", "b", "c", "d"):
        configuration.add_vm(make_vm(name, memory=512, cpu=1))
    configuration.set_running("a", "node-0")
    configuration.set_running("b", "node-0")
    configuration.set_running("c", "node-1")
    configuration.set_waiting("d")
    return configuration


class TestCatalogShape:
    def test_catalog_lists_all_nine_relations(self):
        names = [constraint.__name__ for constraint in CATALOG]
        assert names == [
            "Spread",
            "Gather",
            "Ban",
            "Fence",
            "Among",
            "Root",
            "MaxOnline",
            "RunningCapacity",
            "Lonely",
        ]

    def test_labels_are_stable_and_informative(self):
        assert Spread(["a", "b"]).label == "Spread(a, b)"
        assert "node-1" in Fence(["a"], ["node-1"]).label
        assert "<= 2" in MaxOnline(["node-0", "node-1"], 2).label
        assert "<= 3" in RunningCapacity(["node-0"], 3).label

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Spread([])
        with pytest.raises(ValueError):
            Ban(["a"], [])
        with pytest.raises(ValueError):
            Fence(["a"], [])
        with pytest.raises(ValueError):
            Among(["a"], [])
        with pytest.raises(ValueError):
            Among(["a"], [[]])
        with pytest.raises(ValueError):
            MaxOnline([], 1)
        with pytest.raises(ValueError):
            MaxOnline(["node-0"], -1)
        with pytest.raises(ValueError):
            RunningCapacity(["node-0"], -2)


class TestSpread:
    def test_satisfaction_and_explanation(self, configuration):
        violated = Spread(["a", "b"])
        assert not violated.is_satisfied_by(configuration)
        assert "node-0" in violated.explain(configuration)
        satisfied = Spread(["a", "c"])
        assert satisfied.is_satisfied_by(configuration)
        assert satisfied.explain(configuration) is None

    def test_collocation_nodes_tolerate_sharing(self, configuration):
        tolerant = Spread(["a", "b"], collocation_nodes=["node-0"])
        assert tolerant.is_satisfied_by(configuration)

    def test_greedy_filter(self, configuration):
        spread = Spread(["a", "b"])
        assert not spread.allows("b", "node-0", configuration)
        assert spread.allows("b", "node-2", configuration)
        # VMs outside the group are never filtered
        assert spread.allows("zzz", "node-0", configuration)


class TestGather:
    def test_satisfaction(self, configuration):
        assert Gather(["a", "b"]).is_satisfied_by(configuration)
        assert not Gather(["a", "c"]).is_satisfied_by(configuration)
        assert "scattered" in Gather(["a", "c"]).explain(configuration)

    def test_greedy_filter(self, configuration):
        gather = Gather(["a", "d"])
        assert gather.allows("d", "node-0", configuration)
        assert not gather.allows("d", "node-2", configuration)


class TestBanAndFence:
    def test_ban(self, configuration):
        assert Ban(["a"], ["node-2"]).is_satisfied_by(configuration)
        offending = Ban(["a"], ["node-0"])
        assert not offending.is_satisfied_by(configuration)
        assert "node-0" in offending.explain(configuration)
        nodes = configuration.node_names
        assert Ban(["a"], ["node-0"]).allowed_nodes("a", nodes) == {
            "node-1",
            "node-2",
            "node-3",
        }
        assert Ban(["a"], ["node-0"]).allowed_nodes("other", nodes) is None

    def test_fence(self, configuration):
        assert Fence(["a", "b"], ["node-0"]).is_satisfied_by(configuration)
        escaped = Fence(["c"], ["node-0"])
        assert not escaped.is_satisfied_by(configuration)
        assert "node-1" in escaped.explain(configuration)
        nodes = configuration.node_names
        assert Fence(["a"], ["node-1"]).allowed_nodes("a", nodes) == {"node-1"}

    def test_strict_fence_survives_node_failure_unchanged(self):
        fence = Fence(["a"], ["node-0", "node-1"])
        assert fence.on_node_failure("node-0") is fence

    def test_elastic_fence_drops_dead_nodes_then_retires(self):
        fence = Fence(["a"], ["node-0", "node-1"], elastic=True)
        shrunk = fence.on_node_failure("node-0")
        assert isinstance(shrunk, Fence)
        assert shrunk.nodes == frozenset({"node-1"})
        assert shrunk.elastic
        assert shrunk.on_node_failure("node-1") is None

    def test_elastic_fence_ignores_foreign_node_failure(self):
        fence = Fence(["a"], ["node-0"], elastic=True)
        assert fence.on_node_failure("node-9") is fence


class TestAmong:
    def test_satisfaction(self, configuration):
        groups = [["node-0", "node-1"], ["node-2", "node-3"]]
        assert Among(["a", "c"], groups).is_satisfied_by(configuration)
        straddling = Among(["a", "c"], [["node-0"], ["node-1"]])
        assert not straddling.is_satisfied_by(configuration)
        assert "straddle" in straddling.explain(configuration)

    def test_unary_restriction_is_the_union(self, configuration):
        among = Among(["a"], [["node-0"], ["node-2"]])
        nodes = configuration.node_names
        assert among.allowed_nodes("a", nodes) == {"node-0", "node-2"}
        assert among.allowed_nodes("other", nodes) is None

    def test_greedy_filter_commits_to_a_group(self, configuration):
        among = Among(["a", "d"], [["node-0", "node-1"], ["node-2", "node-3"]])
        # "a" runs on node-0, so "d" must stay in the first group
        assert among.allows("d", "node-1", configuration)
        assert not among.allows("d", "node-2", configuration)


class TestRoot:
    def test_static_check_is_vacuous(self, configuration):
        assert Root(["a"]).is_satisfied_by(configuration)

    def test_transition_detects_migration(self, configuration):
        moved = configuration.copy()
        moved.migrate("a", "node-2")
        root = Root(["a"])
        assert not root.is_transition_satisfied(configuration, moved)
        assert "a" in root.explain_transition(configuration, moved)
        assert root.is_transition_satisfied(configuration, configuration.copy())

    def test_stop_and_restart_elsewhere_still_counts_as_relocation(
        self, configuration
    ):
        # within one plan window, a pinned VM running at both ends must be on
        # the same host — a stop/restart detour does not launder the move
        rebooted = configuration.copy()
        rebooted.set_waiting("a")
        rebooted.set_running("a", "node-3")
        assert not Root(["a"]).is_transition_satisfied(configuration, rebooted)

    def test_a_vm_waiting_in_the_reference_may_boot_anywhere(
        self, configuration
    ):
        # the crash-repair semantics: an evicted (Waiting) VM is unpinned
        booted = configuration.copy()
        booted.set_running("d", "node-3")
        assert Root(["d"]).is_transition_satisfied(configuration, booted)

    def test_unary_restriction_pins_running_vms(self, configuration):
        root = Root(["a", "d"])
        nodes = configuration.node_names
        assert root.allowed_nodes("a", nodes, configuration) == {"node-0"}
        # a waiting VM is free, and without a configuration nothing is known
        assert root.allowed_nodes("d", nodes, configuration) is None
        assert root.allowed_nodes("a", nodes) is None

    def test_greedy_filter_uses_the_reference(self, configuration):
        # the packers read the pin through the same face as the compiler
        root = Root(["a"])
        nodes = configuration.node_names
        assert root.allowed_nodes("a", nodes, configuration) == {"node-0"}
        greedy = CandidateFilter([root], configuration)
        assert greedy.candidates("a", nodes) == ["node-0"]
        assert greedy.candidates("b", nodes) == nodes


class TestMaxOnline:
    def test_satisfaction(self, configuration):
        assert MaxOnline(["node-0", "node-1"], 2).is_satisfied_by(configuration)
        capped = MaxOnline(["node-0", "node-1"], 1)
        assert not capped.is_satisfied_by(configuration)
        assert "maximum is 1" in capped.explain(configuration)

    def test_greedy_filter(self, configuration):
        capped = MaxOnline(["node-2", "node-3"], 1)
        trial = configuration.copy()
        trial.set_running("d", "node-2")
        assert capped.allows("zzz", "node-2", trial)  # already-used node is free
        assert not capped.allows("zzz", "node-3", trial)
        assert capped.allows("zzz", "node-1", trial)  # outside the watched set

    def test_greedy_filter_ignores_the_probed_vms_own_placement(
        self, configuration
    ):
        # the sole occupant of a watched node may be re-placed onto the
        # other watched node: moving it frees its current one
        capped = MaxOnline(["node-2", "node-3"], 1)
        trial = configuration.copy()
        trial.set_running("d", "node-2")
        assert capped.allows("d", "node-3", trial)


class TestRunningCapacity:
    def test_satisfaction(self, configuration):
        assert RunningCapacity(["node-0"], 2).is_satisfied_by(configuration)
        capped = RunningCapacity(["node-0"], 1)
        assert not capped.is_satisfied_by(configuration)
        assert "2 VMs" in capped.explain(configuration)

    def test_greedy_filter(self, configuration):
        capped = RunningCapacity(["node-0", "node-1"], 3)
        assert not capped.allows("d", "node-0", configuration)
        assert capped.allows("d", "node-2", configuration)

    def test_greedy_filter_allows_replacement_within_the_set(
        self, configuration
    ):
        # a, b, c already run on the watched pair (cap 3): probing one of
        # them onto the other watched node must not count it twice
        capped = RunningCapacity(["node-0", "node-1"], 3)
        assert capped.allows("a", "node-1", configuration)
        # ...but a fourth VM is still rejected
        assert not capped.allows("d", "node-1", configuration)


class TestLonely:
    def test_satisfaction(self, configuration):
        assert Lonely(["a", "b"]).is_satisfied_by(configuration)
        mixed = Lonely(["a"])
        assert not mixed.is_satisfied_by(configuration)  # b shares node-0
        assert "node-0" in mixed.explain(configuration)

    def test_greedy_filter_blocks_both_directions(self, configuration):
        lonely = Lonely(["a", "b", "d"])
        # outsider may not join the group's node
        assert not lonely.allows("c", "node-0", configuration)
        # group member may not join an outsider's node
        assert not lonely.allows("d", "node-1", configuration)
        assert lonely.allows("d", "node-0", configuration)
        assert lonely.allows("c", "node-2", configuration)


class TestRepairHookDefaults:
    def test_default_repair_keeps_the_constraint(self):
        for constraint in (
            Spread(["a", "b"]),
            Gather(["a", "b"]),
            Ban(["a"], ["node-0"]),
            Among(["a"], [["node-0"]]),
            Root(["a"]),
            MaxOnline(["node-0"], 1),
            RunningCapacity(["node-0"], 1),
            Lonely(["a"]),
        ):
            assert constraint.on_node_failure("node-0") is constraint
