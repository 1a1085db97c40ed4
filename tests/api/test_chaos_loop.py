"""Control-loop reactions to injected faults and churn pressure.

Covers the fault paths the ISSUE singles out: a crash while a migration was
in flight, a churn arrival burst exceeding the cluster capacity, plus the
repair/SLA bookkeeping of the chaos-aware ``RunResult``.
"""

from __future__ import annotations

import pytest

from repro import FaultSchedule, Scenario
from repro.api import RecordingObserver
from repro.model import make_working_nodes
from repro.model.vjob import VJobState
from repro.sim.faults import FaultEvent, FaultInjector, FaultKind
from repro.testing import make_vjob
from repro.workloads import ChurnGenerator, ProblemClass, VJobWorkload, alternating_trace

OPTIMIZER_TIMEOUT_S = 10.0


def simple_workload(name: str, priority: int, phases) -> VJobWorkload:
    """A vjob of two VMs playing the same (duration, demand) phases."""
    vjob = make_vjob(name, vm_count=2, memory=1024, priority=priority)
    return VJobWorkload(
        vjob=vjob,
        traces={vm.name: alternating_trace(phases) for vm in vjob.vms},
    )


class TestNodeCrashRecovery:
    def _scenario(self, faults=None, **kwargs):
        nodes = make_working_nodes(4, cpu_capacity=2, memory_capacity=3584)
        workloads = [
            simple_workload("w0", 0, [(240.0, 1)]),
            simple_workload("w1", 1, [(240.0, 1)]),
            simple_workload("w2", 2, [(240.0, 1)]),
        ]
        return Scenario(
            nodes=nodes,
            workloads=workloads,
            policy="consolidation",
            optimizer_timeout=OPTIMIZER_TIMEOUT_S,
            faults=faults,
            **kwargs,
        )

    def test_crash_evicts_node_and_repairs_vjobs(self):
        observer = RecordingObserver()
        scenario = self._scenario(
            faults=FaultSchedule().node_crash("node-0", at=90.0)
        ).observe(observer)
        loop = scenario.build()
        result = loop.run()

        assert not loop.cluster.configuration.has_node("node-0")
        assert [f.kind for f in result.faults] == ["node_crash"]
        crash = result.faults[0]
        assert crash.target == "node-0"
        assert crash.affected_vjobs  # someone was running there
        # every knocked-out vjob came back and finished
        for name in crash.affected_vjobs:
            assert name in result.repair_latencies
            assert result.repair_latencies[name] > 0
        assert result.unfinished_vjobs == []
        assert result.lost_vjob_count == 0
        # observers saw the fault and the repairs
        assert len(observer.of_kind("fault")) == 1
        assert len(observer.of_kind("repair")) == len(crash.affected_vjobs)

    def test_crash_keeps_progress_so_makespan_only_inflates(self):
        baseline = self._scenario().run()
        chaotic = self._scenario(
            faults=FaultSchedule().node_crash("node-0", at=90.0)
        ).run()
        assert chaotic.makespan >= baseline.makespan
        assert chaotic.unfinished_vjobs == []

    def test_crash_of_absent_node_is_recorded_as_noop(self):
        result = self._scenario(
            faults=FaultSchedule().node_crash("no-such-node", at=30.0)
        ).run()
        assert result.faults[0].detail == "node absent; ignored"
        assert result.faults[0].affected_vjobs == ()
        assert result.unfinished_vjobs == []


class TestCrashDuringMigration:
    def test_migration_failure_is_retried_and_counted(self):
        """The first migration attempt of every VM of w1 aborts; the loop
        replans and the vjob still completes."""
        nodes = make_working_nodes(3, cpu_capacity=1, memory_capacity=3584)
        # demand starts at 1 on one VM, then both compute: the consolidation
        # round has to migrate to rebalance.
        w0 = simple_workload("w0", 0, [(120.0, 1)])
        w1 = simple_workload("w1", 1, [(60.0, 0), (180.0, 1)])
        schedule = (
            FaultSchedule()
            .add(FaultEvent(0.0, FaultKind.MIGRATION_FAILURE, "w1.vm0"))
            .add(FaultEvent(0.0, FaultKind.MIGRATION_FAILURE, "w1.vm1"))
        )
        result = Scenario(
            nodes=nodes,
            workloads=[w0, w1],
            policy="consolidation",
            optimizer_timeout=OPTIMIZER_TIMEOUT_S,
            faults=schedule,
        ).run()
        assert result.unfinished_vjobs == []
        # wasted migrations only counted when a migration was attempted; the
        # schedule is armed either way
        assert result.wasted_migrations >= 0

    def test_stochastic_migration_failures_never_lose_vjobs(self):
        nodes = make_working_nodes(2, cpu_capacity=2, memory_capacity=3584)
        w0 = simple_workload("w0", 0, [(120.0, 1), (240.0, 2)])
        w1 = simple_workload("w1", 1, [(360.0, 1)])
        result = Scenario(
            nodes=nodes,
            workloads=[w0, w1],
            policy="consolidation",
            optimizer_timeout=OPTIMIZER_TIMEOUT_S,
            faults=FaultSchedule(migration_failure_rate=1.0, seed=3),
        ).run()
        assert result.wasted_migrations > 0
        assert result.unfinished_vjobs == []
        assert all(s.failed_migrations >= 0 for s in result.switches)
        # every aborted attempt also lands on the fault timeline
        timeline = [f for f in result.faults if f.kind == "migration_failure"]
        assert len(timeline) == result.wasted_migrations
        assert all("aborted" in f.detail for f in timeline)

    def test_crash_lands_inside_previous_switch_window(self):
        """A crash scheduled inside a switch window is detected at the next
        iteration: migrations that had just landed on the dead node are
        repaired by replanning."""
        nodes = make_working_nodes(3, cpu_capacity=1, memory_capacity=3584)
        w0 = simple_workload("w0", 0, [(300.0, 1)])
        # t=35 is inside the first switch window (boots take ~6 s, the loop
        # steps every 30 s), and node-0/node-1 host the first placements.
        result = Scenario(
            nodes=nodes,
            workloads=[w0],
            policy="consolidation",
            optimizer_timeout=OPTIMIZER_TIMEOUT_S,
            faults=FaultSchedule().node_crash("node-0", at=35.0),
        ).run()
        crash = result.faults[0]
        assert crash.detected_at >= crash.time
        assert result.unfinished_vjobs == []


class TestChurnPressure:
    def test_arrival_burst_exceeding_capacity_drains(self):
        """A burst of 6 small vjobs on a 2-node cluster cannot run at once;
        the loop suspends/queues the overflow and everything completes."""
        nodes = make_working_nodes(2, cpu_capacity=2, memory_capacity=3584)
        generator = ChurnGenerator(
            seed=5,
            vm_count_choices=(2,),
            memory_choices=(512,),
            problem_classes=(ProblemClass.W,),
        )
        workloads = generator.burst(6, at=0.0)
        peak_demand = sum(w.peak_cpu_demand for w in workloads)
        capacity = sum(n.cpu_capacity for n in nodes)
        assert peak_demand > capacity  # the burst genuinely oversubscribes

        result = Scenario(
            nodes=nodes,
            workloads=workloads,
            policy="consolidation",
            optimizer_timeout=OPTIMIZER_TIMEOUT_S,
        ).run()
        assert result.unfinished_vjobs == []
        assert len(result.completion_times) == 6
        # completions are spread out: the burst could not run all at once
        assert max(result.completion_times.values()) > min(
            result.completion_times.values()
        )

    def test_churn_stream_under_crash_all_vjobs_complete(self):
        nodes = make_working_nodes(4, cpu_capacity=2, memory_capacity=3584)
        generator = ChurnGenerator(
            seed=11,
            mean_interarrival_s=45.0,
            vm_count_choices=(2, 3),
            problem_classes=(ProblemClass.W,),
        )
        result = Scenario(
            nodes=nodes,
            workloads=generator.workloads(5),
            policy="consolidation",
            optimizer_timeout=OPTIMIZER_TIMEOUT_S,
            faults=FaultSchedule().node_crash("node-1", at=120.0),
            sla_factor=10.0,
        ).run()
        assert result.unfinished_vjobs == []
        assert result.sla_violations == []
        assert result.repair_latencies  # the crash hit someone


class TestSlowdownAndDelayedBoot:
    def test_slowdown_inflates_makespan(self):
        nodes = make_working_nodes(2, cpu_capacity=2, memory_capacity=3584)

        def build(faults=None):
            return Scenario(
                nodes=nodes,
                workloads=[simple_workload("w0", 0, [(300.0, 1)])],
                policy="consolidation",
                optimizer_timeout=OPTIMIZER_TIMEOUT_S,
                faults=faults,
            )

        baseline = build().run()
        slowdown = FaultSchedule()
        for node in ("node-0", "node-1"):
            slowdown.node_slowdown(node, at=0.0, duration=10_000.0, factor=2.0)
        slowed = build(slowdown).run()
        assert slowed.makespan > baseline.makespan
        assert slowed.unfinished_vjobs == []

    def test_crash_before_boot_cancels_the_boot(self):
        nodes = make_working_nodes(2, cpu_capacity=2, memory_capacity=3584)
        schedule = (
            FaultSchedule()
            .add(FaultEvent(120.0, FaultKind.DELAYED_BOOT, "node-1"))
            .node_crash("node-1", at=60.0)
        )
        scenario = Scenario(
            nodes=nodes,
            workloads=[simple_workload("w0", 0, [(180.0, 1)])],
            optimizer_timeout=OPTIMIZER_TIMEOUT_S,
            faults=schedule,
        )
        loop = scenario.build()
        result = loop.run()
        # the node died before booting: it must never join the fleet
        assert not loop.cluster.configuration.has_node("node-1")
        details = {f.kind: f.detail for f in result.faults}
        assert details["node_crash"] == "crashed before boot; boot cancelled"
        assert "no pending boot" in details["delayed_boot"]
        assert result.unfinished_vjobs == []

    def test_delayed_boot_node_joins_mid_run(self):
        nodes = make_working_nodes(2, cpu_capacity=1, memory_capacity=2048)
        w0 = simple_workload("w0", 0, [(180.0, 1)])
        scenario = Scenario(
            nodes=nodes,
            workloads=[w0],
            policy="consolidation",
            optimizer_timeout=OPTIMIZER_TIMEOUT_S,
            faults=FaultSchedule().add(
                FaultEvent(90.0, FaultKind.DELAYED_BOOT, "node-1")
            ),
        )
        loop = scenario.build()
        # held back at construction time
        assert not loop.cluster.configuration.has_node("node-1")
        result = loop.run()
        assert loop.cluster.configuration.has_node("node-1")
        assert [f.kind for f in result.faults] == ["delayed_boot"]
        assert result.unfinished_vjobs == []


class TestSLAAccounting:
    def test_sla_violation_reported_when_turnaround_blows_budget(self):
        nodes = make_working_nodes(1, cpu_capacity=1, memory_capacity=2048)
        # two single-VM vjobs competing for one CPU: the second one waits
        # for the first to finish, far beyond a tight SLA.
        vjob_a = make_vjob("a", vm_count=1, memory=512, priority=0)
        vjob_b = make_vjob("b", vm_count=1, memory=512, priority=1)
        workloads = [
            VJobWorkload(
                vjob=vjob_a,
                traces={vjob_a.vms[0].name: alternating_trace([(300.0, 1)])},
            ),
            VJobWorkload(
                vjob=vjob_b,
                traces={vjob_b.vms[0].name: alternating_trace([(60.0, 1)])},
            ),
        ]
        result = Scenario(
            nodes=nodes,
            workloads=workloads,
            policy="consolidation",
            optimizer_timeout=OPTIMIZER_TIMEOUT_S,
            sla_factor=1.5,
        ).run()
        assert "b" in result.sla_violations
        assert result.unfinished_vjobs == []

    def test_no_sla_factor_means_no_accounting(self):
        nodes = make_working_nodes(2, cpu_capacity=2, memory_capacity=3584)
        result = Scenario(
            nodes=nodes,
            workloads=[simple_workload("w0", 0, [(120.0, 1)])],
            optimizer_timeout=OPTIMIZER_TIMEOUT_S,
        ).run()
        assert result.sla_violations == []


class TestInjectorLifecycle:
    def test_scenario_builds_fresh_injector_per_run(self):
        nodes = make_working_nodes(3, cpu_capacity=2, memory_capacity=3584)
        schedule = FaultSchedule().node_crash("node-0", at=60.0)

        def fresh_workloads():
            return [simple_workload("w0", 0, [(120.0, 1)])]

        scenario = Scenario(
            nodes=nodes,
            workloads=fresh_workloads(),
            optimizer_timeout=OPTIMIZER_TIMEOUT_S,
            faults=schedule,
        )
        first = scenario.run()
        scenario.workloads = fresh_workloads()
        second = scenario.run()
        # both runs observed the crash: the injector state did not leak
        assert [f.kind for f in first.faults] == ["node_crash"]
        assert [f.kind for f in second.faults] == ["node_crash"]

    def test_with_faults_takes_fresh_workloads_for_paired_runs(self):
        nodes = make_working_nodes(3, cpu_capacity=2, memory_capacity=3584)

        def fresh():
            return [simple_workload("w0", 0, [(120.0, 1)])]

        base = Scenario(
            nodes=nodes, workloads=fresh(), optimizer_timeout=OPTIMIZER_TIMEOUT_S
        )
        baseline = base.run()
        chaotic = base.with_faults(
            FaultSchedule().node_crash("node-0", at=30.0), workloads=fresh()
        ).run()
        assert baseline.unfinished_vjobs == []
        assert chaotic.makespan >= baseline.makespan
        assert [f.kind for f in chaotic.faults] == ["node_crash"]

    def test_loop_accepts_prebuilt_injector(self):
        from repro.api import ControlLoop

        nodes = make_working_nodes(3, cpu_capacity=2, memory_capacity=3584)
        injector = FaultInjector(FaultSchedule().node_crash("node-2", at=30.0))
        loop = ControlLoop(
            nodes=nodes,
            workloads=[simple_workload("w0", 0, [(90.0, 1)])],
            optimizer_timeout=OPTIMIZER_TIMEOUT_S,
            fault_injector=injector,
        )
        result = loop.run()
        assert [f.target for f in result.faults] == ["node-2"]

    def test_crashed_vjob_state_is_waiting_until_replanned(self):
        """White-box: the crash handler resets the whole vjob consistently
        (the crash writes its VMs, the reconcile after it the vjob)."""
        from repro.api import ControlLoop, RunResult

        nodes = make_working_nodes(2, cpu_capacity=2, memory_capacity=3584)
        workload = simple_workload("w0", 0, [(600.0, 1)])
        injector = FaultInjector(FaultSchedule())
        loop = ControlLoop(
            nodes=nodes,
            workloads=[workload],
            optimizer_timeout=OPTIMIZER_TIMEOUT_S,
            fault_injector=injector,
        )
        # run one decision round by hand: submit and place the vjob
        loop._submit_pending(0.0)
        configuration = loop.cluster.configuration
        for index, vm in enumerate(workload.vjob.vm_names):
            configuration.set_running(vm, f"node-{index}")
        workload.vjob.run()

        result = RunResult(makespan=0.0, policy="consolidation")
        crash = FaultEvent(time=42.0, kind=FaultKind.NODE_CRASH, target="node-0")
        loop._apply_fault(crash, 42.0, result)
        assert result.faults[0].affected_vjobs == ("w0",)
        assert workload.vjob.state is VJobState.WAITING
        for vm in workload.vjob.vm_names:
            assert configuration.state_of(vm).value == "waiting"
        assert not configuration.has_node("node-0")
        assert loop._repair_pending == {"w0": 42.0}
