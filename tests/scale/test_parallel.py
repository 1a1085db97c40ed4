"""Unit tests of the parallel zone optimizer (``repro.scale.parallel``)."""

from __future__ import annotations

import functools
import multiprocessing

import pytest

from repro.api import ControlLoop, Scenario
from repro.constraints import Ban, Fence, Spread
from repro.constraints.checker import check_plan
from repro.core.context_switch import ClusterContextSwitch
from repro.core.optimizer import ContextSwitchOptimizer
from repro.core.planner import PlannerOptions
from repro.decision.consolidation import ConsolidationDecisionModule
from repro.model.configuration import Configuration
from repro.model.errors import SolverError
from repro.model.node import make_working_nodes
from repro.model.vm import VMState
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
from repro.scale.parallel import ZoneOutcome, ZoneTask
from repro.cp import Model, SearchStatistics, Solver
from repro.testing import make_vm

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


def _states(configuration):
    return {name: VMState.RUNNING for name in configuration.vm_names}


def _fenced_constraints():
    return [
        Fence(["vm0", "vm1", "vm2"], FENCE_A),
        Fence(["vm3", "vm4", "vm5"], FENCE_B),
    ]


class TestParallelOptimizer:
    def test_partitioned_result_matches_monolithic_objective(self):
        configuration = _configuration()
        states = _states(configuration)
        constraints = _fenced_constraints()
        partitioned = ParallelOptimizer(
            timeout=5.0, zone_executor="serial"
        ).optimize(configuration, states, constraints=constraints)
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
        result = ParallelOptimizer(
            timeout=5.0, zone_executor="serial"
        ).optimize(configuration, _states(configuration), constraints=constraints)
        assert check_plan(result.plan, constraints) == []
        result.plan.check_reaches(result.target)
        assert result.target.is_viable()

    def test_zone_reports_cover_every_zone(self):
        configuration = _configuration()
        result = ParallelOptimizer(
            timeout=5.0, zone_executor="serial"
        ).optimize(
            configuration,
            _states(configuration),
            constraints=_fenced_constraints(),
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
        result = ParallelOptimizer(
            timeout=5.0, zone_executor="serial", shards=None
        ).optimize(configuration, _states(configuration))
        assert result.partition_method == "monolithic"
        assert result.zone_reports == []
        assert result.partition_reason
        assert result.target.is_viable()

    def test_relational_spanning_zones_falls_back(self):
        configuration = _configuration()
        constraints = [*_fenced_constraints(), Spread(["vm0", "vm3"])]
        result = ParallelOptimizer(
            timeout=5.0, zone_executor="serial"
        ).optimize(configuration, _states(configuration), constraints=constraints)
        assert result.partition_method == "monolithic"
        # the monolithic solve still honours the whole catalog
        assert (
            result.target.location_of("vm0")
            != result.target.location_of("vm3")
        )

    def test_process_executor_agrees_with_serial(self):
        configuration = _configuration()
        constraints = _fenced_constraints()
        states = _states(configuration)
        with ParallelOptimizer(
            timeout=5.0, zone_executor="process"
        ) as optimizer:
            via_process = optimizer.optimize(
                configuration, states, constraints=constraints
            )
        via_serial = ParallelOptimizer(
            timeout=5.0, zone_executor="serial"
        ).optimize(configuration, states, constraints=constraints)
        assert via_process.cost == via_serial.cost
        assert via_process.target.same_assignment(via_serial.target)

    def test_unknown_zone_executor_rejected(self):
        with pytest.raises(SolverError):
            ParallelOptimizer(zone_executor="threads")

    def test_sharded_solve_composes(self):
        configuration = _configuration(node_count=4, vm_count=4)
        result = ParallelOptimizer(
            timeout=5.0, zone_executor="serial", shards=2
        ).optimize(configuration, _states(configuration))
        assert result.partition_method == "sharded"
        result.plan.check_reaches(result.target)
        assert result.target.is_viable()

    def test_sharded_solve_enforces_loose_ban(self):
        # vm0 currently runs on a node banned for it: the sharded engine
        # must move it off — the zone sub-model carries the scoped Ban, it
        # is not merely recorded as a violation by the planner.
        configuration = _configuration()
        ban = Ban(["vm0"], ["node-0"])
        result = ParallelOptimizer(
            timeout=5.0, zone_executor="serial", shards=2
        ).optimize(configuration, _states(configuration), constraints=[ban])
        assert result.target.location_of("vm0") != "node-0"
        assert check_plan(result.plan, [ban]) == []
        if result.partition_method == "sharded":
            # a heuristic restriction must never claim global optimality
            assert not result.statistics.proven_optimal

    def test_sharded_solve_never_claims_optimality(self):
        configuration = _configuration(node_count=4, vm_count=4)
        result = ParallelOptimizer(
            timeout=5.0, zone_executor="serial", shards=2
        ).optimize(configuration, _states(configuration))
        assert result.partition_method == "sharded"
        assert not result.statistics.proven_optimal

    def test_infeasible_zone_falls_back_to_monolithic(self):
        # vm0..vm3 fenced onto a single node that cannot host them all; the
        # zone solve fails, the global solve (without the zone restriction
        # heuristics) must also respect the fence and answer on its own.
        configuration = _configuration(node_count=4, vm_count=4, cpu=2)
        result = ParallelOptimizer(
            timeout=5.0, zone_executor="serial"
        ).optimize(configuration, _states(configuration), constraints=())
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
            ZoneTask(
                zone=zone,
                configuration=build_zone_configuration(configuration, zone),
                timeout=5.0,
            )
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
            elapsed=0.1,
        )
        slow = ZoneOutcome(
            index=1,
            assignment={},
            statistics=SearchStatistics(
                nodes=20, backtracks=4, proven_optimal=False, elapsed=0.5,
                timed_out=True,
            ),
            elapsed=0.5,
        )
        merged = merge_statistics([fast, slow])
        assert merged.nodes == 30
        assert merged.backtracks == 5
        assert not merged.proven_optimal
        assert merged.timed_out
        assert merged.elapsed == 0.5

    def test_merge_statistics_empty(self):
        merged = merge_statistics([])
        assert not merged.proven_optimal
        assert merged.elapsed == 0.0

    def test_merge_statistics_inexact_partition_clears_optimality(self):
        proven = ZoneOutcome(
            index=0,
            assignment={},
            statistics=SearchStatistics(proven_optimal=True, elapsed=0.1),
            elapsed=0.1,
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

    def test_serial_zones_share_the_wall_clock_budget(self, monkeypatch):
        import time as time_module

        from repro.scale import parallel as parallel_module

        configuration = _configuration()
        constraints = _fenced_constraints()
        states = _states(configuration)
        decomposition = partition(configuration, states, constraints)
        assert len(decomposition.zones) == 2

        recorded = []

        def slow_zone(task):
            recorded.append(task.timeout)
            time_module.sleep(0.2)
            return ZoneOutcome(
                index=task.zone.index,
                assignment=None,
                statistics=SearchStatistics(),
                elapsed=0.2,
            )

        monkeypatch.setattr(parallel_module, "solve_zone", slow_zone)
        optimizer = ParallelOptimizer(zone_executor="serial")
        optimizer._solve_zones(
            configuration, decomposition, time_module.monotonic() + 0.3
        )
        assert len(recorded) == 2
        # the first zone gets (about) the whole budget, the second only
        # what the first left over — not another full timeout
        assert 0.25 < recorded[0] <= 0.3 + 1e-6
        assert recorded[1] < 0.15

    def test_zone_failure_fallback_gets_the_leftover_budget(self, monkeypatch):
        import time as time_module

        from repro.scale import parallel as parallel_module

        configuration = _configuration()
        states = _states(configuration)

        def failing_zone(task):
            time_module.sleep(0.15)
            return ZoneOutcome(
                index=task.zone.index,
                assignment=None,
                statistics=SearchStatistics(),
                elapsed=0.15,
            )

        monkeypatch.setattr(parallel_module, "solve_zone", failing_zone)
        optimizer = ParallelOptimizer(timeout=0.5, zone_executor="serial")
        seen = []
        original = optimizer.search_assignment

        def spy(*args, **kwargs):
            seen.append(kwargs["timeout"])
            return original(*args, **kwargs)

        monkeypatch.setattr(optimizer, "search_assignment", spy)
        result = optimizer.optimize(
            configuration, states, constraints=_fenced_constraints()
        )
        assert result.partition_method == "monolithic"
        assert "found no viable assignment" in result.partition_reason
        # the fallback ran on what the failed zones left over, not on a
        # second full budget; the optimizer's own timeout was never touched
        assert seen and seen[0] < 0.5
        assert optimizer.timeout == 0.5

    def test_queued_waves_carve_the_timeout(self, monkeypatch):
        configuration = _configuration()
        pairs = [("node-0", "node-1"), ("node-2", "node-3"), ("node-4", "node-5")]
        constraints = [
            Fence([f"vm{2 * i}", f"vm{2 * i + 1}"], pair)
            for i, pair in enumerate(pairs)
        ]
        recorded = _record_zone_timeouts(monkeypatch)
        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", _InProcessPool)
        _host(monkeypatch, cores=2, pool_zone_vms=1)
        with ParallelOptimizer(timeout=8.0) as optimizer:
            result = optimizer.optimize(
                configuration, _states(configuration), constraints=constraints
            )
        assert len(result.zone_reports) == 3
        # three zones on two workers queue in two waves: each gets half of
        # what is left of the call's wall-clock budget, keeping the round
        # inside the budget
        assert len(set(recorded)) == 1 and 3.9 < recorded[0] <= 4.0
        recorded.clear()
        _host(monkeypatch, cores=4, pool_zone_vms=1)
        with ParallelOptimizer(timeout=8.0) as optimizer:
            optimizer.optimize(
                configuration, _states(configuration), constraints=constraints
            )
        # a worker per zone: they overlap, each gets the whole of it
        assert len(set(recorded)) == 1 and 7.9 < recorded[0] <= 8.0

    def test_the_budget_covers_the_partition(self, monkeypatch):
        """The deadline is taken before the partition, and the serial zones
        run against it — not against a second full budget started after the
        partition and the extraction of every zone."""
        import time as time_module

        real = parallel_module.partition

        def slow_partition(*args, **kwargs):
            time_module.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(parallel_module, "partition", slow_partition)
        recorded = _record_zone_timeouts(monkeypatch)
        configuration = _configuration()
        result = ParallelOptimizer(timeout=0.5, zone_executor="serial").optimize(
            configuration, _states(configuration), constraints=_fenced_constraints()
        )
        assert result.partition_method == "interference"
        assert len(recorded) == 2
        assert recorded[0] <= 0.3 + 1e-6


class _InProcessPool:
    """A worker pool that runs its tasks where it stands."""

    def __init__(self, max_workers):
        self.workers = max_workers

    def map(self, function, tasks):
        return [function(task) for task in tasks]

    def shutdown(self):
        pass


def _record_zone_timeouts(monkeypatch):
    """Every ``ZoneTask.timeout`` handed to ``solve_zone``, in order."""
    recorded = []
    real = parallel_module.solve_zone

    def spy(task):
        recorded.append(task.timeout)
        return real(task)

    monkeypatch.setattr(parallel_module, "solve_zone", spy)
    return recorded


def _sizes(pools):
    return [pool.workers for pool in pools]


def _host(monkeypatch, cores, pool_zone_vms):
    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(parallel_module, "_POOL_ZONE_VMS", pool_zone_vms)


class TestExecutorIsDecidedPerSolve:
    """``zone_executor="auto"``: the pool only for two or more pending
    zones worth a worker each, on a host with the cores to overlap them."""

    def _solve(self, frozen=frozenset(), constraints=None, **options):
        configuration = _configuration()
        with ParallelOptimizer(timeout=5.0, **options) as optimizer:
            return optimizer.optimize(
                configuration,
                _states(configuration),
                constraints=constraints or _fenced_constraints(),
                frozen=frozen,
            )

    def test_small_zones_fork_nothing_by_default(self, pools):
        before = multiprocessing.active_children()
        result = self._solve()
        assert result.partition_method == "interference"
        assert pools == []
        assert multiprocessing.active_children() == before

    def test_zones_worth_a_worker_share_one_pool(self, monkeypatch, pools):
        _host(monkeypatch, cores=4, pool_zone_vms=1)
        pooled = self._solve()
        assert _sizes(pools) == [2]  # min(4 cores, 2 zones)
        serial = self._solve(zone_executor="serial")
        assert len(pools) == 1
        assert [o.assignment for o in pooled.zone_reports] == [
            o.assignment for o in serial.zone_reports
        ]
        assert pooled.cost == serial.cost

    def test_pool_is_no_wider_than_the_host(self, monkeypatch, pools):
        _host(monkeypatch, cores=1, pool_zone_vms=1)
        self._solve()
        assert pools == []

    @pytest.mark.parametrize(
        "frozen, constraints",
        [
            # 3 + 3 VMs, one of the second zone's frozen by the repair engine
            ({"vm3"}, None),
            # 4 + 2 VMs
            (
                frozenset(),
                [
                    Fence(["vm0", "vm1", "vm2", "vm3"], FENCE_A),
                    Fence(["vm4", "vm5"], FENCE_B),
                ],
            ),
        ],
        ids=["pins-do-not-count", "one-big-zone"],
    )
    def test_one_zone_worth_a_worker_stays_serial(
        self, monkeypatch, pools, frozen, constraints
    ):
        _host(monkeypatch, cores=4, pool_zone_vms=3)
        result = self._solve(frozen=frozen, constraints=constraints)
        assert len(result.zone_reports) == 2
        assert pools == []

    def test_fully_pinned_round_never_reaches_the_rule(self, monkeypatch, pools):
        def unreachable():
            raise AssertionError("nothing is pending: nothing to decide")

        monkeypatch.setattr(parallel_module.os, "cpu_count", unreachable)
        configuration = _configuration()
        result = self._solve(frozen=set(configuration.placement()))
        assert [o.reused for o in result.zone_reports] == [True, True]
        assert pools == []

    def test_explicit_executors_override_the_rule(self, monkeypatch, pools):
        _host(monkeypatch, cores=4, pool_zone_vms=1)
        self._solve(zone_executor="serial")
        assert pools == []
        _host(monkeypatch, cores=1, pool_zone_vms=256)
        self._solve(zone_executor="process")
        assert _sizes(pools) == [2]  # one worker per pending zone


class _FakePool:
    def __init__(self):
        self.shut_down = False

    def shutdown(self):
        self.shut_down = True


class TestPartitionedEngineWiring:
    def test_cluster_context_switch_accepts_partitioned_engine(self):
        from repro.core.context_switch import ClusterContextSwitch
        from repro.scale.parallel import ParallelOptimizer as PO

        switch = ClusterContextSwitch(engine="partitioned")
        assert isinstance(switch.optimizer, PO)
        assert switch.engine == "partitioned"

    def test_cluster_context_switch_close_shuts_the_pool(self):
        from repro.core.context_switch import ClusterContextSwitch

        pool = _FakePool()
        with ClusterContextSwitch(engine="partitioned") as switch:
            switch.optimizer._pool = pool
        assert pool.shut_down
        assert switch.optimizer._pool is None
        switch.close()  # idempotent

    def test_cluster_context_switch_close_is_a_noop_for_monolithic(self):
        from repro.core.context_switch import ClusterContextSwitch

        switch = ClusterContextSwitch(engine="event")
        switch.close()

    def test_control_loop_close_releases_the_partitioned_pool(self):
        from repro.testing import make_workload

        loop = Scenario(
            nodes=make_working_nodes(4, cpu_capacity=2, memory_capacity=4096),
            workloads=[make_workload("job")],
            engine="partitioned",
        ).build()
        pool = _FakePool()
        loop.switcher.optimizer._pool = pool
        loop.close()
        assert pool.shut_down
        assert loop.switcher.optimizer._pool is None

    def test_control_loop_run_closes_the_switcher(self, monkeypatch):
        from repro.testing import make_workload

        loop = Scenario(
            nodes=make_working_nodes(4, cpu_capacity=2, memory_capacity=4096),
            workloads=[make_workload("job")],
        ).build()
        closed = []
        monkeypatch.setattr(loop, "close", lambda: closed.append(True))
        loop.run()
        assert closed

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


def _zone_task(**options):
    configuration = _configuration()
    zone = Zone(index=0, nodes=FENCE_A, vms=("vm0", "vm1", "vm2"))
    return ZoneTask(zone=zone, configuration=configuration, **options)


@pytest.mark.parametrize(
    "build, option",
    [
        (ContextSwitchOptimizer, "use_greedy_bound"),
        (ContextSwitchOptimizer, "node_limit"),
        (ParallelOptimizer, "use_greedy_bound"),
        (ParallelOptimizer, "node_limit"),
        (ParallelOptimizer, "first_solution_only"),
        (_zone_task, "use_greedy_bound"),
        (_zone_task, "node_limit"),
        (_zone_task, "first_solution_only"),
        (Solver(Model()).solve, "assumptions"),
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
        (Scenario, "max_workers"),
        (ControlLoop, "max_workers"),
        (ClusterContextSwitch, "max_workers"),
        (ParallelOptimizer, "max_workers"),
        (ConsolidationDecisionModule, "period"),
    ],
)
def test_retired_solver_option_is_rejected(build, option):
    """One way to bound a search (``timeout``; ``Solver.solve(node_limit=)``
    below the optimizers) and one way to pin a VM (``Model.pinned_var``):
    the options only the deleted perf sweeps set are gone, not ignored —
    and so are the loop, repair and planner knobs nothing ever set, the
    worker count the partitioned engines now work out from their zones and
    the decision period only the loop ever stepped by."""
    with pytest.raises(TypeError, match=option):
        build(**{option: None})
