"""Every catalog relation compiled into the CP optimizer and honoured
end to end: the produced target (and plan) must pass the independent
checker, for each of the four constraints."""

from __future__ import annotations

import pytest

from repro.constraints import (
    Ban,
    Fence,
    RunningCapacity,
    Spread,
    check_configuration,
    check_plan,
)
from repro.core import ClusterContextSwitch, ContextSwitchOptimizer
from repro.model.configuration import Configuration
from repro.model.errors import PlanningError
from repro.model.node import make_working_nodes
from repro.model.vm import VMState
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
    configuration.set_running("d", "node-1")
    return configuration


def optimize(configuration, constraints, states=None):
    optimizer = ContextSwitchOptimizer(timeout=10)
    result = optimizer.optimize(configuration, states or {}, constraints=constraints)
    # solver/checker agreement on the target and continuous satisfaction of
    # the produced plan (intermediate states included)
    assert check_configuration(result.target, constraints) == []
    assert result.plan.apply().same_assignment(result.target)
    return result


class TestEachRelationIsCompiledAndHonoured:
    def test_spread(self, configuration):
        result = optimize(configuration, [Spread(["a", "b"])])
        assert result.target.location_of("a") != result.target.location_of("b")

    def test_spread_with_collocation_nodes(self, configuration):
        # node-2 tolerates collocation: packing both VMs there stays legal
        # and is cheaper than migrating to two distinct empty nodes... the
        # optimizer may also simply split them; either way the checker must
        # agree with the compiled semantics.
        result = optimize(
            configuration, [Spread(["a", "b"], collocation_nodes=["node-0"])]
        )
        assert result.cost == 0  # staying put is legal thanks to the exception

    def test_ban(self, configuration):
        result = optimize(configuration, [Ban(["a", "b"], ["node-0"])])
        assert result.target.location_of("a") != "node-0"
        assert result.target.location_of("b") != "node-0"

    def test_fence(self, configuration):
        result = optimize(configuration, [Fence(["c", "d"], ["node-2", "node-3"])])
        assert result.target.location_of("c") in {"node-2", "node-3"}
        assert result.target.location_of("d") in {"node-2", "node-3"}

    def test_running_capacity(self, configuration):
        constraint = RunningCapacity(["node-0", "node-1"], 2)
        result = optimize(configuration, [constraint])
        on_watched = sum(
            1
            for name in ("a", "b", "c", "d")
            if result.target.location_of(name) in {"node-0", "node-1"}
        )
        assert on_watched <= 2

class TestEdgesAndFallbacks:
    def test_constraints_apply_to_vms_entering_the_running_state(
        self, configuration
    ):
        configuration.add_vm(make_vm("fresh", memory=512, cpu=1))
        result = optimize(
            configuration,
            [Fence(["fresh"], ["node-3"])],
            states={"fresh": VMState.RUNNING},
        )
        assert result.target.location_of("fresh") == "node-3"

    def test_unsatisfiable_catalog_raises(self, configuration):
        optimizer = ContextSwitchOptimizer(timeout=2)
        with pytest.raises(PlanningError):
            optimizer.optimize(
                configuration,
                {},
                constraints=[
                    Fence(["a"], ["node-1"]),
                    Ban(["a"], ["node-1"]),
                ],
            )

    def test_facade_carries_constraints(self, configuration):
        switcher = ClusterContextSwitch(optimizer_timeout=10)
        report = switcher.compute(
            configuration, {}, constraints=[Spread(["a", "b"])]
        )
        assert check_configuration(report.target, [Spread(["a", "b"])]) == []

    def test_all_four_together(self, configuration):
        catalog = [
            Spread(["a", "b"]),
            Ban(["a"], ["node-3"]),
            Fence(["b"], ["node-0", "node-1", "node-2"]),
            RunningCapacity(["node-0", "node-1"], 3),
        ]
        result = optimize(configuration, catalog)
        assert check_plan(result.plan, catalog) == []
