"""Semantics of the four catalog relations: checker face, unary compile
face, greedy filter face and repair hooks."""

from __future__ import annotations

import pytest
from reference_propagation import is_satisfied

from repro.constraints import CATALOG, Ban, Fence, RunningCapacity, Spread
from repro.cp import (
    AllDifferent,
    CountInValuesAtMost,
    IntVar,
    NotEqual,
)
from repro.model.configuration import Configuration
from repro.model.node import make_working_nodes
from repro.testing import make_vm

NODE_INDEX = {f"node-{i}": i for i in range(4)}


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
    def test_catalog_lists_all_four_relations(self):
        names = [constraint.__name__ for constraint in CATALOG]
        assert names == ["Spread", "Ban", "Fence", "RunningCapacity"]

    def test_labels_are_stable_and_informative(self):
        assert Spread(["a", "b"]).label == "Spread(a, b)"
        assert "node-1" in Fence(["a"], ["node-1"]).label
        assert "<= 3" in RunningCapacity(["node-0"], 3).label

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Spread([])
        with pytest.raises(ValueError):
            Ban(["a"], [])
        with pytest.raises(ValueError):
            Fence(["a"], [])
        with pytest.raises(ValueError):
            RunningCapacity([], 1)
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

    def test_waiting_members_are_not_checked(self, configuration):
        # d waits: it has no host to share
        assert Spread(["a", "d"]).is_satisfied_by(configuration)

    def test_collocation_nodes_leave_nothing_to_explain(self, configuration):
        tolerant = Spread(["a", "b", "c"], collocation_nodes=["node-0"])
        assert tolerant.explain(configuration) is None

    def test_greedy_filter_accepts_collocation_nodes(self, configuration):
        tolerant = Spread(["a", "b"], collocation_nodes=["node-0"])
        assert tolerant.allows("b", "node-0", configuration)

    def test_two_placed_members_compile_to_not_equal(self):
        variables = {"a": IntVar("a", [0, 1]), "b": IntVar("b", [0, 1])}
        compiled = Spread(["a", "b"]).cp_constraints(variables, NODE_INDEX)
        assert [type(c) for c in compiled] == [NotEqual]

    def test_larger_groups_compile_to_all_different(self):
        variables = {vm: IntVar(vm, [0, 1, 2]) for vm in ("a", "b", "c")}
        compiled = Spread(["a", "b", "c"]).cp_constraints(variables, NODE_INDEX)
        assert [type(c) for c in compiled] == [AllDifferent]

    def test_collocation_compiles_to_all_different_with_exceptions(self):
        # both members on node-0 (index 0), which tolerates sharing
        variables = {"a": IntVar("a", [0]), "b": IntVar("b", [0])}
        compiled = Spread(["a", "b"], collocation_nodes=["node-0"]).cp_constraints(
            variables, NODE_INDEX
        )
        assert [type(c) for c in compiled] == [AllDifferent]
        assert is_satisfied(compiled[0])

    def test_a_lone_placed_member_compiles_to_nothing(self):
        variables = {"a": IntVar("a", [0, 1])}
        assert Spread(["a", "b"]).cp_constraints(variables, NODE_INDEX) == []


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

    def test_non_members_and_waiting_vms_are_unrestricted(self, configuration):
        nodes = configuration.node_names
        assert Fence(["a"], ["node-1"]).allowed_nodes("other", nodes) is None
        # d waits, so neither relation sees a host for it
        assert Fence(["d"], ["node-3"]).is_satisfied_by(configuration)
        assert Ban(["d"], ["node-0"]).is_satisfied_by(configuration)

    def test_satisfied_relations_explain_nothing(self, configuration):
        assert Ban(["a"], ["node-2"]).explain(configuration) is None
        assert Fence(["a", "b"], ["node-0"]).explain(configuration) is None

    def test_unary_relations_compile_no_propagator(self):
        variables = {"a": IntVar("a", [0, 1])}
        assert Ban(["a"], ["node-0"]).cp_constraints(variables, NODE_INDEX) == []
        assert Fence(["a"], ["node-0"]).cp_constraints(variables, NODE_INDEX) == []

    def test_repr_keeps_vm_order_and_sorts_nodes(self):
        assert repr(Ban(["b", "a"], ["node-1", "node-0"])) == (
            "Ban(b, a | node-0, node-1)"
        )
        assert repr(Fence(["b", "a"], ["node-1", "node-0"])) == (
            "Fence(b, a | node-0, node-1)"
        )

    def test_flags_split_unary_from_relational(self):
        for unary in (Ban(["a"], ["node-0"]), Fence(["a"], ["node-0"])):
            assert unary.uniform_restriction and not unary.relational
        for relational in (Spread(["a", "b"]), RunningCapacity(["node-0"], 1)):
            assert relational.relational and not relational.uniform_restriction


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

    def test_greedy_filter_ignores_nodes_outside_the_set(self, configuration):
        # already over its cap, yet a node it does not watch stays open
        capped = RunningCapacity(["node-0"], 1)
        assert capped.allows("d", "node-3", configuration)

    def test_nodes_the_configuration_lacks_host_nobody(self, configuration):
        assert RunningCapacity(["node-9"], 0).is_satisfied_by(configuration)
        assert not RunningCapacity(["node-0", "node-9"], 1).is_satisfied_by(
            configuration
        )

    def test_zero_maximum_keeps_the_set_empty(self, configuration):
        closed = RunningCapacity(["node-2"], 0)
        assert closed.is_satisfied_by(configuration)
        assert not closed.allows("d", "node-2", configuration)

    def test_satisfied_capacity_explains_nothing_and_labels_itself(
        self, configuration
    ):
        capped = RunningCapacity(["node-1", "node-0"], 3)
        assert capped.explain(configuration) is None
        assert repr(capped) == "RunningCapacity(node-0, node-1 <= 3)"

    def test_compiles_one_count_over_every_variable(self):
        # three VMs on node-0 or node-1 (indices 0, 1) against a cap of 2
        variables = {
            "a": IntVar("a", [0]),
            "b": IntVar("b", [1]),
            "c": IntVar("c", [1]),
        }
        compiled = RunningCapacity(["node-0", "node-1"], 2).cp_constraints(
            variables, NODE_INDEX
        )
        assert [type(c) for c in compiled] == [CountInValuesAtMost]
        assert not is_satisfied(compiled[0])

    def test_compiles_nothing_without_a_watched_node_or_a_variable(self):
        variables = {"a": IntVar("a", [0, 1])}
        foreign = RunningCapacity(["node-9"], 1)
        assert foreign.cp_constraints(variables, NODE_INDEX) == []
        assert RunningCapacity(["node-0"], 1).cp_constraints({}, NODE_INDEX) == []


class TestResidual:
    """What a relation asks of the VMs a repair solve places when every
    running VM not ``moving`` keeps its host (``a``, ``b`` on node-0, ``c``
    on node-1, ``d`` waiting)."""

    def test_unary_relations_are_their_own_residual(self, configuration):
        for constraint in (Ban(["a"], ["node-1"]), Fence(["a", "d"], ["node-0"])):
            assert constraint.residual(configuration, set()) is constraint
            assert constraint.residual(configuration, {"a"}) is constraint

    def test_capacity_lowers_its_bound_by_the_stayers(self, configuration):
        residual = RunningCapacity(["node-0", "node-1"], 4).residual(
            configuration, {"a", "d"}
        )
        assert residual.nodes == frozenset({"node-0", "node-1"})
        assert residual.maximum == 2

    def test_capacity_keeps_its_bound_when_every_resident_moves(self, configuration):
        capped = RunningCapacity(["node-0", "node-1"], 4)
        residual = capped.residual(configuration, {"a", "b", "c"})
        assert (residual.nodes, residual.maximum) == (capped.nodes, 4)

    def test_capacity_the_stayers_fill_leaves_no_seat(self, configuration):
        # node-9 is not a node of the configuration: nobody runs there
        residual = RunningCapacity(["node-1", "node-9"], 1).residual(
            configuration, {"a"}
        )
        assert residual.maximum == 0

    def test_capacity_the_stayers_break_has_no_residual(self, configuration):
        assert RunningCapacity(["node-0"], 1).residual(configuration, set()) is None
        assert RunningCapacity(["node-0"], 1).residual(configuration, {"c"}) is None

    def test_spread_with_spread_stayers_is_unchanged(self, configuration):
        spread = Spread(["a", "c", "d"])
        assert spread.residual(configuration, set()) is spread
        # moved whole, the group asks nothing of its stayers
        pair = Spread(["a", "b"])
        assert pair.residual(configuration, {"a", "b"}) is pair

    def test_spread_two_stayers_on_one_node_break(self, configuration):
        assert Spread(["a", "b"]).residual(configuration, set()) is None
        assert Spread(["a", "b", "c"]).residual(configuration, {"c"}) is None

    def test_spread_stayers_may_share_a_collocation_node(self, configuration):
        chassis = Spread(["a", "b"], collocation_nodes=["node-0"])
        assert chassis.residual(configuration, set()) is chassis


class TestRepairHookDefaults:
    def test_default_repair_keeps_the_constraint(self):
        for constraint in (
            Spread(["a", "b"]),
            Ban(["a"], ["node-0"]),
            RunningCapacity(["node-0"], 1),
        ):
            assert constraint.on_node_failure("node-0") is constraint
