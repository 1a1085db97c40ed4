"""Tests of the high-level ClusterContextSwitch facade."""

import pytest

from repro.api import ControlLoop, Scenario
from repro.constraints import Spread
from repro.core.context_switch import ClusterContextSwitch
from repro.model.configuration import Configuration
from repro.model.errors import PlanningError, SolverError
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


ENGINES = ["event", "partitioned", "repair", "repair-partitioned"]


@pytest.mark.parametrize("engine", ["partition", "", "Event", "fixpoint"])
def test_an_unknown_engine_name_lists_all_four(engine):
    # "fixpoint" named the reference propagation engine, which now lives
    # under tests/ only: it is refused like any other unknown name.
    with pytest.raises(SolverError) as raised:
        ClusterContextSwitch(engine=engine)
    message = str(raised.value)
    assert repr(engine) in message
    menu = message.split("expected one of", 1)[1]
    assert "fixpoint" not in menu
    for name in ENGINES:
        assert repr(name) in menu


@pytest.mark.parametrize("entry", ["Scenario", "ControlLoop"])
def test_the_loop_entry_points_refuse_the_retired_engine(entry):
    nodes = make_working_nodes(2, cpu_capacity=2, memory_capacity=4096)
    with pytest.raises(SolverError, match="'fixpoint'"):
        if entry == "Scenario":
            Scenario(nodes=nodes, workloads=[], engine="fixpoint").build()
        else:
            ControlLoop(nodes, [], engine="fixpoint")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("executor", ["bogus", "auto", "process"])
def test_an_unknown_zone_executor_is_refused_under_every_engine(engine, executor):
    # Only the partitioned engines use the executor, but a typo is a typo
    # whichever engine it is handed to; "auto" and "process" are refused
    # like any other name that is not "serial".
    with pytest.raises(SolverError) as raised:
        ClusterContextSwitch(engine=engine, zone_executor=executor)
    message = str(raised.value)
    assert repr(executor) in message
    assert "('serial',)" in message


@pytest.mark.parametrize("engine", ENGINES)
def test_every_listed_engine_name_is_accepted(engine, configuration):
    switcher = ClusterContextSwitch(engine=engine, optimizer_timeout=5)
    report = switcher.compute(configuration, {"r": VMState.SLEEPING})
    assert report.total_cost == 1024
    assert report.plan.apply().same_assignment(report.target)


class TestCompute:
    def test_with_optimizer(self, configuration):
        switcher = ClusterContextSwitch(optimizer_timeout=5)
        report = switcher.compute(configuration, {"s": VMState.RUNNING})
        assert report.target.state_of("s") is VMState.RUNNING
        assert report.total_cost == 512  # local resume
        assert not report.used_fallback
        assert report.plan.apply().same_assignment(report.target)

    def test_summary_contains_cost_and_counts(self, configuration):
        switcher = ClusterContextSwitch(optimizer_timeout=5)
        report = switcher.compute(configuration, {"r": VMState.SLEEPING})
        summary = report.plan.summary()
        assert report.total_cost == 1024
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

    def test_a_builder_is_called_only_when_the_solve_raises(self, configuration):
        built = []

        def build():
            built.append(self._fallback(configuration, "node-1"))
            return built[-1]

        solved = ClusterContextSwitch(optimizer_timeout=5).compute(
            configuration,
            {"s": VMState.RUNNING},
            fallback_target=build,
            constraints=self.SPREAD,
        )
        assert not solved.used_fallback and built == []
        degraded = self._switcher(MemoryError()).compute(
            configuration,
            {"s": VMState.RUNNING},
            fallback_target=build,
            constraints=self.SPREAD,
        )
        assert degraded.used_fallback and len(built) == 1
        assert degraded.target is built[0]

    def test_a_builder_with_no_fallback_lets_the_error_propagate(
        self, configuration
    ):
        with pytest.raises(RuntimeError, match="propagator bug"):
            self._switcher(RuntimeError("propagator bug")).compute(
                configuration, {"s": VMState.RUNNING}, fallback_target=lambda: None
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
        assert report.plan.action_count() == 0
        assert report.total_cost == 0
