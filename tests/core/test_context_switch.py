"""Tests of the high-level ClusterContextSwitch facade."""

import pytest

from repro.constraints import Spread
from repro.core.context_switch import ClusterContextSwitch
from repro.decision.ffd import ffd_target_configuration
from repro.model.configuration import Configuration
from repro.model.errors import PlanningError
from repro.model.node import make_working_nodes
from repro.model.vm import VMState

from repro.testing import make_vm


@pytest.fixture
def configuration():
    nodes = make_working_nodes(3, cpu_capacity=2, memory_capacity=4096)
    configuration = Configuration(nodes=nodes)
    configuration.add_vm(make_vm("r", memory=1024, cpu=1))
    configuration.add_vm(make_vm("s", memory=512, cpu=1))
    configuration.set_running("r", "node-0")
    configuration.set_sleeping("s", "node-1")
    return configuration


class TestCompute:
    def test_with_optimizer(self, configuration):
        switcher = ClusterContextSwitch(optimizer_timeout=5)
        report = switcher.compute(configuration, {"s": VMState.RUNNING})
        assert report.target.state_of("s") is VMState.RUNNING
        assert report.total_cost == 512  # local resume
        assert not report.used_fallback
        assert report.plan.apply().same_assignment(report.target)

    def test_without_optimizer_requires_fallback(self, configuration):
        switcher = ClusterContextSwitch(use_optimizer=False)
        with pytest.raises(ValueError):
            switcher.compute(configuration, {"s": VMState.RUNNING})

    def test_without_optimizer_uses_fallback_target(self, configuration):
        states = {"s": VMState.RUNNING}
        fallback = ffd_target_configuration(configuration, states)
        switcher = ClusterContextSwitch(use_optimizer=False)
        report = switcher.compute(configuration, states, fallback_target=fallback)
        assert report.target is fallback
        assert report.plan.apply().same_assignment(fallback)

    def test_summary_contains_cost_and_counts(self, configuration):
        switcher = ClusterContextSwitch(optimizer_timeout=5)
        report = switcher.compute(configuration, {"r": VMState.SLEEPING})
        summary = report.summary()
        assert summary["cost"] == report.total_cost == 1024
        assert summary["suspend"] == 1


class _Raising:
    """An optimizer whose every solve raises ``error``."""

    def __init__(self, error):
        self.error = error

    def optimize(self, *args, **kwargs):
        raise self.error


class TestDegrade:
    """``compute`` is the one place a failed solve falls back."""

    SPREAD = [Spread(["r", "s"])]

    def _fallback(self, configuration, node):
        fallback = configuration.copy()
        fallback.set_running("s", node)
        return fallback

    def _switcher(self, error):
        switcher = ClusterContextSwitch()
        switcher.optimizer = _Raising(error)
        return switcher

    def test_any_failed_solve_goes_to_a_fallback_honouring_the_catalog(
        self, configuration
    ):
        fallback = self._fallback(configuration, "node-1")
        report = self._switcher(MemoryError()).compute(
            configuration,
            {"s": VMState.RUNNING},
            fallback_target=fallback,
            constraints=self.SPREAD,
        )
        assert report.used_fallback and report.target is fallback
        assert report.statistics is None and report.repair is None
        assert report.total_cost == 512  # the local resume

    def test_a_fallback_breaking_the_catalog_is_refused(self, configuration):
        error = RuntimeError("propagator bug")
        with pytest.raises(PlanningError, match="violates") as refused:
            self._switcher(error).compute(
                configuration,
                {"s": VMState.RUNNING},
                fallback_target=self._fallback(configuration, "node-0"),
                constraints=self.SPREAD,
            )
        assert refused.value.__cause__ is error

    def test_without_a_fallback_the_solve_error_propagates(self, configuration):
        with pytest.raises(RuntimeError, match="propagator bug"):
            self._switcher(RuntimeError("propagator bug")).compute(
                configuration, {"s": VMState.RUNNING}
            )


class TestPlanTo:
    def test_plans_towards_explicit_target(self, configuration):
        target = configuration.copy()
        target.set_running("r", "node-2")
        switcher = ClusterContextSwitch()
        report = switcher.plan_to(configuration, target)
        assert report.total_cost == 1024
        report.plan.check_reaches(target)

    def test_noop_plan(self, configuration):
        switcher = ClusterContextSwitch()
        report = switcher.plan_to(configuration, configuration.copy())
        assert report.plan.is_empty
        assert report.total_cost == 0
