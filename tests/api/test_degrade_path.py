"""The one degrade path: whatever a round's decide or plan raises, the loop
records the round and keeps going; ``ClusterContextSwitch.compute`` is the
one place a failed solve falls back to the decision's placement.

Every case runs a whole scenario through ``Scenario(...).run()`` and reads
the outcome off the ``RunResult``: the failed round's cause (metadata and
span), the switch that ran instead, and the rounds that planned normally
afterwards.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import logging
import os
from pathlib import Path

import pytest

from repro import Scenario
from repro.api import loop as loop_module
from repro.constraints import Fence, Spread, violated_constraints
from repro.core.context_switch import ClusterContextSwitch
from repro.core.planner import ReconfigurationPlanner
from repro.cp import VectorPacking
from repro.decision.consolidation import ConsolidationDecisionModule
from repro.decision.ffd import ffd_target_configuration
from repro.model import make_working_nodes
from repro.model.errors import NoPivotAvailableError, PlanningError
from repro.obs import load_trace
from repro.scale import parallel as parallel_module
from repro.service import ServiceObserver
from repro.testing import make_workload

SPREAD = Spread(["a.vm0", "a.vm1"])


def _workloads(late: bool = False):
    """Vjobs ``a`` and ``b`` (two 1-cpu VMs each) at time 0; with ``late``,
    a third, ``c``, arrives a few rounds later and needs a new solve."""
    workloads = [
        make_workload("a", duration=60.0),
        make_workload("b", duration=60.0),
    ]
    if late:
        workloads.append(make_workload("c", duration=60.0))
        workloads[-1].vjob.submitted_at = 90.0
    return workloads


def _scenario(policy="consolidation", constraints=(SPREAD,), **options):
    return Scenario(
        nodes=make_working_nodes(4, cpu_capacity=2, memory_capacity=4096),
        workloads=options.pop("workloads", None) or _workloads(),
        policy=policy,
        optimizer_timeout=5.0,
        constraints=list(constraints),
        trace=True,
        **options,
    )


def _spans(result, name):
    return [s for s in load_trace(result.to_dict()).walk() if s.name == name]


def _once(exception):
    """Wrap a method so that its first call raises ``exception`` and the
    later ones behave as before."""

    def wrap(original):
        calls = []

        @functools.wraps(original)
        def method(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise exception
            return original(*args, **kwargs)

        return method

    return wrap


def _assert_recovered(result):
    """Later rounds plan normally: every vjob ran to completion."""
    assert result.unfinished_vjobs == []
    assert set(result.completion_times) >= {"a", "b"}
    assert result.metadata["final_viable"]
    assert result.constraint_violations == []


class _FailsOnce:
    """The consolidation policy, except that its second decision raises."""

    name = "fails-once"

    def __init__(self):
        self.inner = ConsolidationDecisionModule()
        self.calls = 0

    def use_constraints(self, constraints):
        self.inner.use_constraints(constraints)

    def decide(self, configuration, queue):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("decision module crashed")
        return self.inner.decide(configuration, queue)


class TestFaultInjection:
    def test_a_raising_decision_is_a_recorded_round(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.api.loop"):
            result = _scenario(policy=_FailsOnce()).run()
        assert result.metadata["planning_failures"] == 1
        assert result.metadata["failure_causes"] == {"RuntimeError": 1}
        [failed] = [s for s in _spans(result, "decide") if s.attributes]
        assert failed.attributes == {"failed": True, "error": "RuntimeError"}
        [warning, traceback] = caplog.records
        # One line at WARNING; the traceback only for whoever asks for DEBUG.
        assert warning.levelno == logging.WARNING and warning.exc_info is None
        assert warning.getMessage() == (
            "round 1 at simulated time 30s: decide failed "
            "(RuntimeError: decision module crashed); configuration kept"
        )
        assert traceback.levelno == logging.DEBUG
        assert traceback.exc_info[0] is RuntimeError
        assert traceback.getMessage() == "round 1: decide traceback"
        _assert_recovered(result)

    @pytest.mark.parametrize(
        "method, error",
        [
            pytest.param(
                "propagate_events",
                RuntimeError("propagator bug"),
                id="propagator-raises-in-cp-solve",
            ),
            pytest.param("__init__", MemoryError(), id="memory-error-in-model-build"),
        ],
    )
    def test_a_raising_solve_degrades_to_the_fallback(self, monkeypatch, method, error):
        # The Spread makes the catalog relational: no incumbent answers the
        # first solve, so it builds a model and searches it.
        original = getattr(VectorPacking, method)
        monkeypatch.setattr(VectorPacking, method, _once(error)(original))
        result = _scenario().run()
        cause = type(error).__name__
        first = result.switches[0]
        assert first.used_fallback
        assert not any(s.used_fallback for s in result.switches[1:])
        assert result.metadata["planning_failures"] == 0
        assert "failure_causes" not in result.metadata
        solve = _spans(result, "solve")[0]
        assert solve.attributes["used_fallback"] is True
        assert solve.attributes["cause"] == cause
        assert "error" not in solve.attributes
        _assert_recovered(result)

    def test_a_killed_zone_worker_degrades_and_the_pool_respawns(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            loop_module,
            "ClusterContextSwitch",
            functools.partial(ClusterContextSwitch, zone_executor="process"),
        )
        monkeypatch.setattr(_KillOnce, "marker", str(tmp_path / "killed"))
        monkeypatch.setattr(parallel_module, "solve_zone", _KillOnce.solve_zone)
        pools = []
        original = parallel_module.ProcessPoolExecutor

        def spawn(*args, **kwargs):
            pools.append(original(*args, **kwargs))
            return pools[-1]

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", spawn)
        fences = [
            Fence(["a.vm0", "a.vm1", "c.vm0"], ["node-0", "node-1"]),
            Fence(["b.vm0", "b.vm1", "c.vm1"], ["node-2", "node-3"]),
        ]
        # ``SPREAD`` couples two VMs of the first zone: under a relational
        # constraint no keep-in-place answers a round before its zones, so
        # every solve ships its zones to the pool.
        result = _scenario(
            constraints=[*fences, SPREAD],
            engine="partitioned",
            workloads=_workloads(True),
        ).run()
        assert os.path.exists(_KillOnce.marker)
        solves = _spans(result, "solve")
        assert solves[0].attributes["cause"] == "BrokenProcessPool"
        assert result.switches[0].used_fallback
        assert result.metadata["planning_failures"] == 0
        # The broken pool was closed: a later solve forked a new one and
        # its zones answered from the workers.
        assert len(pools) >= 2
        assert any(
            span.attributes.get("remote")
            for solve in solves[1:]
            for span in solve.walk()
            if span.name == "zone"
        )
        _assert_recovered(result)
        assert set(result.completion_times) == {"a", "b", "c"}


class _KillOnce:
    """``solve_zone`` whose first caller across every worker dies."""

    marker = ""

    @staticmethod
    def solve_zone(task):
        try:
            os.close(os.open(_KillOnce.marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return _SOLVE_ZONE(task)
        os._exit(1)


_SOLVE_ZONE = parallel_module.solve_zone


class _BreaksTheSpread:
    """The consolidation policy, with a fallback that co-hosts ``a``'s VMs."""

    name = "breaks-the-spread"

    def __init__(self):
        self.inner = ConsolidationDecisionModule()

    def decide(self, configuration, queue):
        decision = self.inner.decide(configuration, queue)
        if decision.fallback_target is not None:
            fallback = decision.fallback_target.copy()
            for vm in SPREAD.vms:
                fallback.set_running(vm, "node-0")
            decision.fallback_builder = lambda: fallback
        return decision


class _KeepsDecisions:
    """The consolidation policy, keeping each decision with the FFD fallback
    an eager ``decide`` builds on the same inputs, and counting the calls of
    the decision's fallback builder.  With ``eager``, the decision's builder
    hands over that fallback, built already."""

    name = "keeps-decisions"

    def __init__(self, eager=False):
        self.inner = ConsolidationDecisionModule()
        self.eager = eager
        self.rounds = []
        self.builds = 0

    def use_constraints(self, constraints):
        self.inner.use_constraints(constraints)

    def decide(self, configuration, queue):
        decision = self.inner.decide(configuration, queue)
        eager = ffd_target_configuration(
            configuration,
            decision.vm_states,
            node_filter=self.inner.node_filter(configuration),
        )
        build = decision.fallback_builder

        def counted():
            self.builds += 1
            return build()

        decision.fallback_builder = counted
        if self.eager:
            decision.fallback_builder = lambda: eager
        self.rounds.append((decision, eager))
        return decision


def _same_bytes(configuration, other):
    """Registration order, states, placement and each node's ``vms_on``
    order (the order the planner walks)."""
    return (
        configuration.vm_names == other.vm_names
        and list(configuration.states().items()) == list(other.states().items())
        and list(configuration.placement().items())
        == list(other.placement().items())
        and all(
            configuration.vms_on(node) == other.vms_on(node)
            for node in configuration.node_names
        )
    )


class TestTheFallbackIsBuiltOnDemand:
    def _run(self, monkeypatch, policy):
        original = VectorPacking.propagate_events
        error = _once(RuntimeError("propagator bug"))(original)
        monkeypatch.setattr(VectorPacking, "propagate_events", error)
        observer = ServiceObserver()
        # ``c`` arrives later: its round solves and must not build.
        result = _scenario(
            policy=policy, observers=[observer], workloads=_workloads(late=True)
        ).run()
        monkeypatch.setattr(VectorPacking, "propagate_events", original)
        return result, observer.audit.of_kind("plan")

    def test_only_a_failed_round_builds_it_and_it_is_the_eager_one(
        self, monkeypatch
    ):
        lazy = _KeepsDecisions()
        result, audit = self._run(monkeypatch, lazy)
        assert result.switches[0].used_fallback
        assert len(result.switches) >= 2
        assert not any(s.used_fallback for s in result.switches[1:])
        # One solve raised: one build, none on the rounds that solved.
        assert lazy.builds == 1
        [(decision, eager)] = [
            (decision, eager)
            for decision, eager in lazy.rounds
            if decision.fallback_builder is None
        ]
        assert _same_bytes(decision.fallback_target, eager)
        assert lazy.builds == 1  # the read above returned the kept one
        solve = _spans(result, "solve")[0]
        assert solve.attributes["used_fallback"] is True
        assert solve.attributes["cause"] == "RuntimeError"

        built = _KeepsDecisions(eager=True)
        expected, expected_audit = self._run(monkeypatch, built)
        assert built.builds == 0
        assert json.dumps(audit, sort_keys=True) == json.dumps(
            expected_audit, sort_keys=True
        )
        assert _untraced(result) == _untraced(expected)


def _untraced(result):
    document = result.to_dict()
    document.pop("trace")
    return json.dumps(document, sort_keys=True)


class TestTheRuleExistsOnce:
    def test_a_fallback_that_breaks_the_catalog_never_runs(self, monkeypatch):
        original = ReconfigurationPlanner.build
        optimized = []

        def build(self, current, target, *args, **kwargs):
            # Only the optimizer's own target is planned from its changes.
            if kwargs.get("changed") is not None and not optimized:
                optimized.append(target)
                raise NoPivotAvailableError("no pivot for the optimized target")
            return original(self, current, target, *args, **kwargs)

        monkeypatch.setattr(ReconfigurationPlanner, "build", build)
        result = _scenario(policy=_BreaksTheSpread()).run()
        assert optimized and violated_constraints(optimized[0], [SPREAD]) == []
        assert not any(s.used_fallback for s in result.switches)
        assert result.metadata["planning_failures"] == 1
        assert result.metadata["failure_causes"] == {"PlanningError": 1}
        [failed] = [s for s in _spans(result, "plan") if s.attributes]
        assert failed.attributes == {"failed": True, "error": "PlanningError"}
        _assert_recovered(result)

    def test_an_unplannable_baseline_is_planned_once_a_round(self, monkeypatch):
        builds = []

        def build(self, current, target, *args, **kwargs):
            builds.append(target)
            raise NoPivotAvailableError("no pivot")

        monkeypatch.setattr(ReconfigurationPlanner, "build", build)
        scenario = _scenario(policy="ffd", constraints=())
        with pytest.raises(PlanningError, match="25 consecutive"):
            scenario.run()
        assert len(builds) == 25

    def test_the_quickstart_degrades_three_times(self):
        # Its CP target and its FFD fallback both need a migration-cycle
        # pivot no node can host: three rounds keep their configuration.
        path = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
        spec = importlib.util.spec_from_file_location("quickstart", path)
        quickstart = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(quickstart)
        result = Scenario(
            nodes=make_working_nodes(2, cpu_capacity=2, memory_capacity=3584),
            workloads=quickstart.build_workloads(),
            policy="consolidation",
            optimizer_timeout=2.0,
        ).run()
        assert result.metadata["planning_failures"] == 3
        assert result.metadata["failure_causes"] == {"NoPivotAvailableError": 3}
        assert not any(s.used_fallback for s in result.switches)
