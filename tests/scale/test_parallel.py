"""Unit tests of the parallel zone optimizer (``repro.scale.parallel``)."""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.api import ControlLoop, Scenario
from repro.constraints import Ban, Fence, Spread
from repro.constraints.checker import check_plan, violated_constraints
from repro.core.context_switch import ClusterContextSwitch
from repro.core.optimizer import ContextSwitchOptimizer
from repro.core.planner import PlannerOptions
from repro.decision.consolidation import ConsolidationDecisionModule
from repro.decision.static import StaticAllocationSimulator
from repro.model.configuration import Configuration
from repro.model.errors import NoPivotAvailableError, SolverError
from repro.model.node import Node, make_working_nodes
from repro.model.vm import VMState
from repro.obs import Tracer
from repro.repair import RepairOptimizer
from repro.scale import (
    ParallelOptimizer,
    Zone,
    build_zone_configuration,
    merge_statistics,
    partition,
    solve_zone,
)
from repro.scale import parallel as parallel_module
from repro.scale.parallel import ZoneOutcome
from repro.cp import ActivityLastConflict, Model, SearchStatistics, Solver
from repro.service import OperatorDaemon
from repro.sim import MonitoringService, PlanExecutor
from repro.testing import fence_groups, make_large_fleet, make_vm

FENCE_A = ("node-0", "node-1", "node-2")
FENCE_B = ("node-3", "node-4", "node-5")


def _configuration(node_count=6, vm_count=6, memory=1024, cpu=1):
    configuration = Configuration(
        nodes=make_working_nodes(node_count, cpu_capacity=2, memory_capacity=4096)
    )
    for index in range(vm_count):
        configuration.add_vm(make_vm(f"vm{index}", memory=memory, cpu=cpu))
        configuration.set_running(f"vm{index}", f"node-{index % node_count}")
    return configuration


def _overloaded():
    """``_configuration()`` with ``vm1`` moved next to a ``vm0`` that asks
    for all of ``node-0``'s processing units: ``node-0`` must shed ``vm1``,
    so the round's keep-in-place misses the lower bound and the zones are
    solved (the second zone by its own incumbent)."""
    configuration = _configuration()
    configuration.replace_vm(make_vm("vm0", memory=1024, cpu=2))
    configuration.migrate("vm1", "node-0")
    return configuration


def _one_cpu_short():
    """Two fenced zones of 125 VMs; ``node-0``, in the first, is a cpu
    short, and its keep-in-place repair moves a 2 GB VM where moving a 1 GB
    one would do — so only a search finds the optimum."""
    configuration = make_large_fleet(250, groups=2, cached=False)
    configuration.replace_vm(make_vm("vm-124", memory=1024, cpu=6))
    configuration.replace_vm(make_vm("vm-248", memory=2048, cpu=1))
    return configuration, fence_groups(configuration, groups=2)


def _states(configuration):
    return {name: VMState.RUNNING for name in configuration.vm_names}


def _fenced_constraints():
    return [
        Fence(["vm0", "vm1", "vm2"], FENCE_A),
        Fence(["vm3", "vm4", "vm5"], FENCE_B),
    ]


class TestParallelOptimizer:
    def test_partitioned_result_matches_monolithic_objective(self):
        # An overloaded host: the keep-in-place pass declines and the zones
        # answer.
        configuration = _overloaded()
        states = _states(configuration)
        constraints = _fenced_constraints()
        partitioned = ParallelOptimizer(timeout=5.0).optimize(
            configuration, states, constraints=constraints
        )
        monolithic = ContextSwitchOptimizer(timeout=5.0).optimize(
            configuration, states, constraints=constraints
        )
        assert partitioned.partition_method == "interference"
        assert partitioned.statistics.proven_optimal
        assert monolithic.statistics.proven_optimal
        assert partitioned.movement_cost == monolithic.movement_cost
        assert partitioned.cost == monolithic.cost

    def test_merged_plan_is_checker_clean_and_reaches_target(self):
        configuration = _configuration()
        constraints = _fenced_constraints()
        result = ParallelOptimizer(timeout=5.0).optimize(
            configuration, _states(configuration), constraints=constraints
        )
        assert check_plan(result.plan, constraints) == []
        result.plan.check_reaches(result.target)
        assert result.target.is_viable()

    def test_zone_reports_cover_every_zone(self):
        configuration = _configuration()
        # ``vm2`` is left unfenced: its loose domain is anchored to the zone
        # of its host, so the decomposition is not exact and no round-wide
        # keep-in-place stands for the zones.
        result = ParallelOptimizer(timeout=5.0).optimize(
            configuration,
            _states(configuration),
            constraints=[Fence(["vm0", "vm1"], FENCE_A), _fenced_constraints()[1]],
        )
        assert len(result.zone_reports) == 2
        assert [report.vm_count for report in result.zone_reports] == [3, 3]
        # Nobody has to move: each zone is answered by its keep-in-place
        # incumbent, which still counts as one solution, proved.
        for report in result.zone_reports:
            assert report.statistics.solutions == 1
            assert report.statistics.nodes == 0
            assert report.statistics.proven_optimal

    def test_monolithic_fallback_when_no_partition(self):
        configuration = _configuration()
        result = ParallelOptimizer(timeout=5.0, shards=None).optimize(
            configuration, _states(configuration)
        )
        assert result.partition_method == "monolithic"
        assert result.zone_reports == []
        assert result.target.is_viable()

    def test_relational_spanning_zones_falls_back(self):
        configuration = _configuration()
        constraints = [*_fenced_constraints(), Spread(["vm0", "vm3"])]
        result = ParallelOptimizer(timeout=5.0).optimize(
            configuration, _states(configuration), constraints=constraints
        )
        assert result.partition_method == "monolithic"
        # the monolithic solve still honours the whole catalog
        assert (
            result.target.location_of("vm0")
            != result.target.location_of("vm3")
        )

    @pytest.mark.parametrize("shards", ["eight", 0, -2, 2.0, True])
    def test_a_shard_count_that_is_not_a_count_is_rejected_at_construction(
        self, shards
    ):
        # Not when the k-way fallback is first reached, rounds later.
        with pytest.raises(SolverError, match="shards"):
            ParallelOptimizer(shards=shards)

    @pytest.mark.parametrize("shards, kept", [("auto", 4), (None, None), (1, 1), (3, 3)])
    def test_every_shard_count_is_accepted(self, shards, kept):
        assert ParallelOptimizer(shards=shards).shards == kept

    def test_sharded_solve_composes(self):
        configuration = _configuration(node_count=4, vm_count=4)
        result = ParallelOptimizer(timeout=5.0, shards=2).optimize(
            configuration, _states(configuration)
        )
        assert result.partition_method == "sharded"
        result.plan.check_reaches(result.target)
        assert result.target.is_viable()

    def test_sharded_solve_enforces_loose_ban(self):
        # vm0 currently runs on a node banned for it: the sharded engine
        # must move it off — the zone sub-model carries the scoped Ban, it
        # is not merely recorded as a violation by the planner.
        configuration = _configuration()
        ban = Ban(["vm0"], ["node-0"])
        result = ParallelOptimizer(timeout=5.0, shards=2).optimize(
            configuration, _states(configuration), constraints=[ban]
        )
        assert result.target.location_of("vm0") != "node-0"
        assert check_plan(result.plan, [ban]) == []
        if result.partition_method == "sharded":
            # a heuristic restriction must never claim global optimality
            assert not result.statistics.proven_optimal

    def test_sharded_solve_never_claims_optimality(self):
        configuration = _configuration(node_count=4, vm_count=4)
        result = ParallelOptimizer(timeout=5.0, shards=2).optimize(
            configuration, _states(configuration)
        )
        assert result.partition_method == "sharded"
        assert not result.statistics.proven_optimal

    def test_infeasible_zone_falls_back_to_monolithic(self):
        # vm0..vm3 fenced onto a single node that cannot host them all; the
        # zone solve fails, the global solve (without the zone restriction
        # heuristics) must also respect the fence and answer on its own.
        configuration = _configuration(node_count=4, vm_count=4, cpu=2)
        result = ParallelOptimizer(timeout=5.0).optimize(
            configuration, _states(configuration), constraints=()
        )
        assert result.target.is_viable()


class TestZoneMachinery:
    def test_build_zone_configuration_keeps_in_zone_state(self):
        configuration = _configuration()
        zone = Zone(index=0, nodes=FENCE_A, vms=("vm0", "vm1", "vm2"))
        sub = build_zone_configuration(configuration, zone)
        assert set(sub.node_names) == set(FENCE_A)
        assert set(sub.vm_names) == {"vm0", "vm1", "vm2"}
        assert sub.location_of("vm0") == "node-0"

    def test_build_zone_configuration_degrades_outside_host_to_waiting(self):
        configuration = _configuration()
        # vm3 currently runs on node-3, outside this zone
        zone = Zone(index=0, nodes=FENCE_A, vms=("vm0", "vm3"))
        sub = build_zone_configuration(configuration, zone)
        assert sub.state_of("vm3") is VMState.WAITING

    def test_solve_zone_returns_assignment_inside_zone(self):
        configuration = _configuration()
        zone = Zone(index=0, nodes=FENCE_A, vms=("vm0", "vm1", "vm2"))
        outcome = solve_zone(
            zone,
            build_zone_configuration(configuration, zone),
            time.monotonic() + 5.0,
        )
        assert outcome.assignment is not None
        assert set(outcome.assignment) == {"vm0", "vm1", "vm2"}
        assert set(outcome.assignment.values()) <= set(FENCE_A)

    def test_merge_statistics_composes_conservatively(self):
        fast = ZoneOutcome(
            index=0,
            assignment={},
            statistics=SearchStatistics(
                nodes=10, backtracks=1, proven_optimal=True, elapsed=0.1
            ),
        )
        slow = ZoneOutcome(
            index=1,
            assignment={},
            statistics=SearchStatistics(
                nodes=20, backtracks=4, proven_optimal=False, elapsed=0.5,
                timed_out=True,
            ),
        )
        merged = merge_statistics([fast, slow])
        assert merged.nodes == 30
        assert merged.backtracks == 5
        assert not merged.proven_optimal
        assert merged.timed_out

    def test_merge_statistics_empty(self):
        merged = merge_statistics([])
        assert not merged.proven_optimal
        assert merged.elapsed == 0.0

    def test_merge_statistics_adds_up_the_zones_time(self):
        """Zones run one after another: the merged search took the sum of
        their times, not the slowest one's."""
        outcomes = [
            ZoneOutcome(
                index=index,
                assignment={},
                statistics=SearchStatistics(elapsed=elapsed),
            )
            for index, elapsed in enumerate((0.25, 0.5, 0.125))
        ]
        assert merge_statistics(outcomes).elapsed == 0.875

    def test_merge_statistics_inexact_partition_clears_optimality(self):
        proven = ZoneOutcome(
            index=0,
            assignment={},
            statistics=SearchStatistics(proven_optimal=True, elapsed=0.1),
        )
        # every zone proved its local optimum, but the decomposition was a
        # domain restriction (sharded / heuristic anchoring): the merged
        # result must not claim global optimality
        merged = merge_statistics([proven, proven], exact=False)
        assert not merged.proven_optimal
        # the default fails safe: no exactness vouched, no optimality claim
        assert not merge_statistics([proven, proven]).proven_optimal
        # an exact partition with every zone proved may claim the optimum
        assert merge_statistics([proven, proven], exact=True).proven_optimal

    def test_serial_zones_share_the_wall_clock_budget(self, monkeypatch, clock):
        configuration = _configuration()
        constraints = _fenced_constraints()
        states = _states(configuration)
        decomposition = partition(configuration, states, constraints)
        assert len(decomposition.zones) == 2

        recorded = []

        def slow_zone(zone, configuration, deadline):
            recorded.append(deadline - clock.now)
            clock.advance(0.2)
            return _failed(zone)

        monkeypatch.setattr(parallel_module, "solve_zone", slow_zone)
        optimizer = ParallelOptimizer()
        optimizer._solve_zones(configuration, decomposition, clock.now + 0.3)
        # the first zone gets the whole budget, the second only what the
        # first left over — not another full timeout
        assert recorded == [pytest.approx(0.3), pytest.approx(0.1)]

    def test_zone_failure_fallback_gets_the_leftover_budget(
        self, monkeypatch, clock
    ):
        configuration = _overloaded()
        states = _states(configuration)

        def failing_zone(zone, configuration, deadline):
            clock.advance(0.15)
            return _failed(zone)

        monkeypatch.setattr(parallel_module, "solve_zone", failing_zone)
        optimizer = ParallelOptimizer(timeout=0.5)
        seen = _record_deadlines(monkeypatch, optimizer)
        started = clock.now
        result = optimizer.optimize(
            configuration, states, constraints=_fenced_constraints()
        )
        assert result.partition_method == "monolithic"
        # the fallback ran on what the two failed zones left over of the
        # round's deadline, not on a second full budget; the optimizer's own
        # timeout was never touched
        assert seen == [started + 0.5]
        assert seen[0] - clock.now == pytest.approx(0.2)
        assert optimizer.timeout == 0.5

    def test_a_starved_round_is_granted_nothing_past_its_deadline(
        self, monkeypatch, clock
    ):
        """The first zone burns the whole budget: the second zone and the
        monolithic re-solve get nothing more, and the round still answers,
        with the re-solve's keep-in-place incumbent."""
        configuration, catalog = _one_cpu_short()
        recorded = []
        real = parallel_module.solve_zone

        def burning_zone(zone, configuration, deadline):
            recorded.append(deadline - clock.now)
            if len(recorded) > 1:
                return real(zone, configuration, deadline)
            clock.advance(0.6)
            return _failed(zone)

        monkeypatch.setattr(parallel_module, "solve_zone", burning_zone)
        optimizer = ParallelOptimizer(timeout=0.5)
        seen = _record_deadlines(monkeypatch, optimizer)
        started = clock.now
        result = optimizer.optimize(
            configuration, configuration.states(), constraints=catalog
        )
        assert len(recorded) == 2
        assert recorded[0] == pytest.approx(0.5)
        assert recorded[1] <= 0.0
        assert seen == [started + 0.5]
        assert result.partition_method == "monolithic"
        # keep-in-place sends the 2 GB VM next door; with any time left the
        # search would find the 1 GB move
        assert result.statistics.timed_out
        assert result.cost == 2048 and result.plan.action_count() == 1
        assert result.target.is_viable()
        assert violated_constraints(result.target, catalog) == []

    def test_an_unplannable_merge_goes_to_the_monolithic_solve(
        self, monkeypatch, clock
    ):
        # An overloaded host: the zones solve and their assignments merge,
        # but the planner cannot reach the merged target.
        configuration = _overloaded()
        states = _states(configuration)
        constraints = _fenced_constraints()
        optimizer = ParallelOptimizer(timeout=5.0)
        original = optimizer.planner.build
        merged = []

        def build(current, target, *args, **kwargs):
            # The first target planned is the zones' merged one; planning
            # it takes a second.
            if not merged:
                merged.append(target)
                clock.advance(1.0)
                raise NoPivotAvailableError("no pivot for the merged target")
            return original(current, target, *args, **kwargs)

        monkeypatch.setattr(optimizer.planner, "build", build)
        seen = _record_deadlines(monkeypatch, optimizer)
        started = clock.now
        result = optimizer.optimize(configuration, states, constraints=constraints)
        monolithic = ContextSwitchOptimizer(timeout=5.0).optimize(
            configuration, states, constraints=constraints
        )
        assert len(merged) == 1
        assert result.partition_method == "monolithic"
        assert result.zone_reports == []
        assert result.target.same_assignment(monolithic.target)
        assert result.cost == monolithic.cost
        # the re-solve ran on what the zones and the failed plan left over of
        # the round's deadline, as after a failed zone
        assert seen == [started + 5.0]
        assert seen[0] - clock.now == pytest.approx(4.0)

    def test_an_unplannable_keep_in_place_raises(self):
        # Two one-VM nodes whose VMs are each fenced onto the other: the
        # keep-in-place answers the swap at the lower bound before any
        # partition, and no node can take a VM of the migration cycle.  Any
        # search answers the same swap, so the error surfaces and no second
        # solve follows.
        configuration = Configuration(
            nodes=[Node(f"n{i}", cpu_capacity=1, memory_capacity=1024) for i in (0, 1)]
        )
        for name, host in (("x", "n0"), ("y", "n1")):
            configuration.add_vm(make_vm(name, memory=1024, cpu=1))
            configuration.set_running(name, host)
        catalog = [Fence(["x"], ["n1"]), Fence(["y"], ["n0"])]
        tracer = Tracer()
        with tracer.activate(), pytest.raises(NoPivotAvailableError):
            ParallelOptimizer(timeout=5.0).optimize(
                configuration, _states(configuration), constraints=catalog
            )
        spans = [s for s in tracer.root.walk() if s.name in ("cp.solve", "partition")]
        assert [(s.name, s.attributes["stop"]) for s in spans] == [
            ("cp.solve", "incumbent")
        ]

    def test_the_budget_covers_the_partition(self, monkeypatch, clock):
        """The deadline is taken before the partition, and the serial zones
        run against it — not against a second full budget started after the
        partition and the extraction of every zone."""
        real = parallel_module.partition

        def slow_partition(*args, **kwargs):
            clock.advance(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(parallel_module, "partition", slow_partition)
        recorded = _record_time_left(monkeypatch, clock)
        configuration = _overloaded()
        result = ParallelOptimizer(timeout=0.5).optimize(
            configuration, _states(configuration), constraints=_fenced_constraints()
        )
        assert result.partition_method == "interference"
        assert recorded == [pytest.approx(0.3)] * 2


def _failed(zone):
    """The outcome of a zone that found nothing."""
    return ZoneOutcome(index=zone.index, assignment=None, statistics=SearchStatistics())


def _record_deadlines(monkeypatch, optimizer):
    """Every ``deadline`` the monolithic search of ``optimizer`` is handed."""
    seen = []
    search = optimizer._search

    def spy(current, vms, domains, constraints, deadline):
        seen.append(deadline)
        return search(current, vms, domains, constraints, deadline)

    monkeypatch.setattr(optimizer, "_search", spy)
    return seen


def _record_time_left(monkeypatch, clock):
    """The time left to its deadline when each zone starts, in order."""
    recorded = []
    real = parallel_module.solve_zone

    def spy(zone, configuration, deadline):
        recorded.append(deadline - clock.now)
        return real(zone, configuration, deadline)

    monkeypatch.setattr(parallel_module, "solve_zone", spy)
    return recorded


class TestPartitionedEngineWiring:
    def test_cluster_context_switch_accepts_partitioned_engine(self):
        from repro.core.context_switch import ClusterContextSwitch
        from repro.scale.parallel import ParallelOptimizer as PO

        switch = ClusterContextSwitch(engine="partitioned")
        assert isinstance(switch.optimizer, PO)
        assert switch.engine == "partitioned"

    @pytest.mark.parametrize(
        "engine", ["event", "partitioned", "repair", "repair-partitioned"]
    )
    def test_cluster_context_switch_close_is_a_noop(self, engine):
        # The round benchmark's loop drivers close the switch a loop built
        # before swapping in their own: any engine takes it, and still solves.
        configuration = _overloaded()
        switch = ClusterContextSwitch(engine=engine, optimizer_timeout=5.0)
        switch.close()
        switch.close()
        report = switch.compute(
            configuration,
            _states(configuration),
            constraints=_fenced_constraints(),
        )
        assert report.target.is_viable()

    def test_scenario_engine_knob_reaches_the_switcher(self):
        from repro.scale.parallel import ParallelOptimizer as PO
        from repro.testing import make_workload

        scenario = Scenario(
            nodes=make_working_nodes(4, cpu_capacity=2, memory_capacity=4096),
            workloads=[make_workload("job")],
            engine="partitioned",
        )
        loop = scenario.build()
        assert isinstance(loop.switcher.optimizer, PO)

    def test_experiment_builder_engine_method(self):
        loop = Scenario(
            nodes=make_working_nodes(2, cpu_capacity=2, memory_capacity=4096),
            workloads=[],
            engine="partitioned",
        ).build()
        assert loop.switcher.engine == "partitioned"
        assert isinstance(loop.switcher.optimizer, ParallelOptimizer)


_FORK_FREE = """
import sys

import repro
from repro.core.context_switch import ClusterContextSwitch
from repro.obs import Tracer
from repro.testing import fence_groups, make_large_fleet, make_vm

configuration = make_large_fleet(512, groups=2, cached=False)
# vm-254 fills its node: the keep-in-place pass declines and both zones
# are solved.
configuration.replace_vm(make_vm("vm-254", memory=1024, cpu=12))
switch = ClusterContextSwitch(engine="partitioned", optimizer_timeout=20)
tracer = Tracer()
with tracer.activate():
    switch.compute(
        configuration,
        configuration.states(),
        constraints=fence_groups(configuration, groups=2),
    )
zones = [s.attributes["vms"] for s in tracer.root.walk() if s.name == "zone"]
assert zones == [256, 256], zones
assert "concurrent.futures.process" not in sys.modules
import multiprocessing

assert multiprocessing.active_children() == []
"""


def test_a_partitioned_round_of_big_zones_forks_nothing():
    """Zones of 256 VMs and more run in-process too: in a fresh
    interpreter, ``import repro`` and a ``partitioned`` round over two
    such zones load no process pool and leave no child process."""
    source = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", _FORK_FREE],
        env={**os.environ, "PYTHONPATH": source},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def _zone_solve(**options):
    zone = Zone(index=0, nodes=FENCE_A, vms=("vm0", "vm1", "vm2"))
    configuration = build_zone_configuration(_configuration(), zone)
    return solve_zone(zone, configuration, time.monotonic() + 5.0, **options)


@pytest.mark.parametrize(
    "build, option",
    [
        (ContextSwitchOptimizer, "use_greedy_bound"),
        (ContextSwitchOptimizer, "node_limit"),
        (ParallelOptimizer, "use_greedy_bound"),
        (ParallelOptimizer, "node_limit"),
        (ParallelOptimizer, "first_solution_only"),
        (ParallelOptimizer, "engine"),
        (_zone_solve, "engine"),
        (_zone_solve, "trace"),
        (_zone_solve, "use_greedy_bound"),
        (_zone_solve, "node_limit"),
        (_zone_solve, "first_solution_only"),
        pytest.param(
            functools.partial(Solver, Model()), "engine", id="Solver-engine"
        ),
        (Solver(Model()).solve, "assumptions"),
        (Solver(Model()).solve, "solution_limit"),
        (Scenario, "repair_halo"),
        (Scenario, "monitoring_delay"),
        (Scenario, "max_consecutive_planning_failures"),
        (ControlLoop, "repair_halo"),
        (ControlLoop, "monitoring_delay"),
        (ControlLoop, "max_consecutive_planning_failures"),
        (ClusterContextSwitch, "repair_halo"),
        pytest.param(
            functools.partial(RepairOptimizer, None),
            "lns_steps",
            id="RepairOptimizer-lns_steps",
        ),
        (PlannerOptions, "bypass_smallest_vm"),
        (PlannerOptions, "strict_constraints"),
        (ClusterContextSwitch, "planner_options"),
        (ContextSwitchOptimizer, "planner_options"),
        (ParallelOptimizer, "planner_options"),
        (Scenario, "max_workers"),
        (ControlLoop, "max_workers"),
        (ClusterContextSwitch, "max_workers"),
        (ParallelOptimizer, "max_workers"),
        (ParallelOptimizer, "zone_executor"),
        (ConsolidationDecisionModule, "period"),
        pytest.param(
            MonitoringService,
            "refresh_delay",
            id="MonitoringService-refresh_delay",
        ),
        (PlanExecutor, "pipeline_delay"),
        pytest.param(
            functools.partial(StaticAllocationSimulator, [], []),
            "sample_period",
            id="StaticAllocationSimulator-sample_period",
        ),
        pytest.param(
            functools.partial(OperatorDaemon, None),
            "request_trace_capacity",
            id="OperatorDaemon-request_trace_capacity",
        ),
        pytest.param(
            lambda primary: ActivityLastConflict(),
            "primary",
            id="ActivityLastConflict-primary",
        ),
    ],
)
def test_retired_solver_option_is_rejected(build, option):
    """One way to bound a search (``timeout``; ``Solver.solve(node_limit=)``
    below the optimizers) and one way to pin a VM (a singleton domain, what
    a one-node ``Fence`` compiles to; a repair solve leaves its frozen VMs
    out of the model):
    the options only the deleted perf sweeps set are gone, not ignored —
    and so are the loop, repair and planner knobs nothing ever set, the
    worker count and the zone executor of the partitioned engines (their
    zones run in-process, one after another), the
    decision period only the loop ever stepped by, the planner options no
    caller passed down, the strict mode only its own test turned on, and the
    delays, periods and capacities only tests set (constants now).  The
    last-conflict selector's primary order is required: the activity
    fallback that ran without one is gone.  The solver has one propagation
    path: its first-generation reference lives under ``tests/``
    (``reference_propagation.py``) and needs no option."""
    with pytest.raises(TypeError, match=option):
        build(**{option: None})
