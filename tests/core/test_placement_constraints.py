"""Tests of the placement constraints (Spread/Ban/Fence).

These relations are the "additional low level relations between the VMs"
announced in the paper's conclusion (high-availability spreading was already
available in Entropy); the optimizer must honour them when it computes the
target configuration.
"""

import pytest

from repro.constraints import Ban, Fence, Spread, violated_constraints
from repro.core import ContextSwitchOptimizer
from repro.cp import AllDifferent
from repro.model.configuration import Configuration
from repro.model.errors import PlanningError
from repro.model.node import make_working_nodes
from repro.model.vm import VMState

from repro.testing import make_vm


@pytest.fixture
def configuration():
    configuration = Configuration(
        nodes=make_working_nodes(3, cpu_capacity=2, memory_capacity=4096)
    )
    for name in ("a", "b", "c"):
        configuration.add_vm(make_vm(name, memory=512, cpu=1))
    configuration.set_running("a", "node-0")
    configuration.set_running("b", "node-0")
    configuration.set_running("c", "node-1")
    return configuration


class TestConstraintSemantics:
    def test_spread_satisfaction(self, configuration):
        assert not Spread(["a", "b"]).is_satisfied_by(configuration)
        assert Spread(["a", "c"]).is_satisfied_by(configuration)

    def test_spread_ignores_non_running_vms(self, configuration):
        configuration.set_sleeping("b")
        assert Spread(["a", "b"]).is_satisfied_by(configuration)

    def test_ban_satisfaction(self, configuration):
        assert Ban(["a"], ["node-2"]).is_satisfied_by(configuration)
        assert not Ban(["a"], ["node-0"]).is_satisfied_by(configuration)

    def test_fence_satisfaction(self, configuration):
        assert Fence(["a", "b"], ["node-0", "node-2"]).is_satisfied_by(configuration)
        assert not Fence(["c"], ["node-0"]).is_satisfied_by(configuration)

    def test_check_constraints_lists_violations(self, configuration):
        violated = violated_constraints(
            configuration, [Spread(["a", "b"]), Ban(["c"], ["node-2"])]
        )
        assert len(violated) == 1
        assert isinstance(violated[0], Spread)

    def test_empty_vm_list_rejected(self):
        with pytest.raises(ValueError):
            Spread([])
        with pytest.raises(ValueError):
            Ban(["a"], [])
        with pytest.raises(ValueError):
            Fence(["a"], [])

    def test_unary_restrictions(self, configuration):
        nodes = configuration.node_names
        assert Ban(["a"], ["node-0"]).allowed_nodes("a", nodes) == {"node-1", "node-2"}
        assert Ban(["a"], ["node-0"]).allowed_nodes("other", nodes) is None
        assert Fence(["a"], ["node-1"]).allowed_nodes("a", nodes) == {"node-1"}
        assert Spread(["a", "b"]).allowed_nodes("a", nodes) is None

    def test_spread_produces_cp_constraints(self, configuration):
        from repro.cp import NotEqual
        from repro.cp.variables import IntVar

        # a two-VM spread compiles to the cheap pairwise disequality, larger
        # groups to the n-ary all-different
        variables = {name: IntVar(name, [0, 1, 2]) for name in ("a", "b", "c")}
        pair = Spread(["a", "b"]).cp_constraints(variables, {})
        assert len(pair) == 1 and isinstance(pair[0], NotEqual)
        spread = Spread(["a", "b", "c"]).cp_constraints(variables, {})
        assert len(spread) == 1 and isinstance(spread[0], AllDifferent)
        # a single involved running VM needs no relational constraint
        assert Spread(["a", "zzz"]).cp_constraints({"a": variables["a"]}, {}) == []


class TestOptimizerIntegration:
    def test_spread_forces_vms_apart(self, configuration):
        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(
            configuration, {}, constraints=[Spread(["a", "b"])]
        )
        assert result.target.location_of("a") != result.target.location_of("b")
        assert result.plan.apply().same_assignment(result.target)
        # spreading has a cost: one of the two VMs had to move
        assert result.cost >= 512

    def test_ban_evicts_a_node(self, configuration):
        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(
            configuration, {}, constraints=[Ban(["a", "b", "c"], ["node-0"])]
        )
        for name in ("a", "b", "c"):
            assert result.target.location_of(name) != "node-0"

    def test_fence_restricts_where_a_vm_may_resume(self, configuration):
        configuration.add_vm(make_vm("sleepy", memory=512, cpu=1))
        configuration.set_sleeping("sleepy", "node-0")
        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(
            configuration,
            {"sleepy": VMState.RUNNING},
            constraints=[Fence(["sleepy"], ["node-2"])],
        )
        assert result.target.location_of("sleepy") == "node-2"
        # the fence made the resume remote, hence more expensive
        assert result.cost == 1024

    def test_unsatisfiable_constraints_raise(self, configuration):
        optimizer = ContextSwitchOptimizer(timeout=2)
        with pytest.raises(PlanningError):
            optimizer.optimize(
                configuration,
                {},
                constraints=[Fence(["a"], ["node-1"]), Ban(["a"], ["node-1"])],
            )

    def test_constraints_through_the_facade(self, configuration):
        from repro.core import ClusterContextSwitch

        switcher = ClusterContextSwitch(optimizer_timeout=5)
        report = switcher.compute(
            configuration, {}, constraints=[Spread(["a", "b"])]
        )
        assert not violated_constraints(report.target, [Spread(["a", "b"])])
