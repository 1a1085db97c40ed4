"""Integration tests reproducing the paper's illustrative scenarios end to end.

These tests exercise the whole stack (model -> decision -> optimizer ->
planner -> executor) on the concrete examples the paper uses to explain the
mechanism: the Figure 6 RJSP construction, the Figure 7 sequential constraint,
the Figure 8 inter-dependent cycle, the Figure 9 two-pool plan, and a reduced
version of the Section 5.2 campaign.
"""

import pytest

from repro import config
from repro.analysis.metrics import makespan_reduction, switch_statistics
from repro.api.loop import ControlLoop
from repro.core import ClusterContextSwitch, build_plan, plan_cost
from repro.core.actions import ActionKind
from repro.decision import ConsolidationDecisionModule
from repro.decision import StaticAllocationSimulator
from repro.model import Configuration, VJobQueue, VirtualMachine, VJob, make_working_nodes
from repro.model.vm import VMState
from repro.sim import PlanExecutor, SimulatedCluster
from repro.workloads import (
    Benchmark,
    NASGridSpec,
    ProblemClass,
    TraceConfigurationGenerator,
    make_nasgrid_vjob,
)


class TestFigure6EndToEnd:
    """Three vjobs on three uniprocessor nodes: vjob2 ends up suspended."""

    def _build(self):
        nodes = make_working_nodes(3, cpu_capacity=1, memory_capacity=2048)
        configuration = Configuration(nodes=nodes)
        vjobs = []
        for name, count, priority in [("vjob1", 2, 1), ("vjob2", 2, 2), ("vjob3", 1, 3)]:
            vms = [
                VirtualMachine(
                    name=f"{name}.vm{i}", memory=512, cpu_demand=1, vjob=name
                )
                for i in range(count)
            ]
            vjobs.append(VJob(name=name, vms=vms, priority=priority))
            for vm in vms:
                configuration.add_vm(vm)
        vjobs[0].run()
        vjobs[1].run()
        configuration.set_running("vjob1.vm0", "node-0")
        configuration.set_running("vjob1.vm1", "node-1")
        configuration.set_running("vjob2.vm0", "node-2")
        configuration.set_running("vjob2.vm1", "node-2")
        return configuration, VJobQueue(vjobs)

    def test_context_switch_suspends_vjob2_and_runs_vjob3(self):
        configuration, queue = self._build()
        module = ConsolidationDecisionModule()
        decision = module.decide(configuration, queue)
        switcher = ClusterContextSwitch(optimizer_timeout=5)
        report = switcher.compute(
            configuration,
            decision.vm_states,
            vjob_of_vm=module.vjob_index(queue),
            fallback_target=decision.fallback_target,
        )
        final = report.plan.apply()
        assert final.is_viable()
        assert final.state_of("vjob2.vm0") is VMState.SLEEPING
        assert final.state_of("vjob2.vm1") is VMState.SLEEPING
        assert final.state_of("vjob3.vm0") is VMState.RUNNING
        assert final.state_of("vjob1.vm0") is VMState.RUNNING
        # vjob1's VMs do not move: the optimizer keeps them in place.
        assert final.location_of("vjob1.vm0") == "node-0"
        assert final.location_of("vjob1.vm1") == "node-1"


class TestFigure9StylePlan:
    def test_two_pool_plan_with_suspend_then_resume_and_run(self):
        nodes = make_working_nodes(2, cpu_capacity=1, memory_capacity=2048)
        configuration = Configuration(nodes=nodes)
        configuration.add_vm(VirtualMachine("vm3", memory=1024, cpu_demand=1))
        configuration.add_vm(VirtualMachine("vm5", memory=1024, cpu_demand=1))
        configuration.add_vm(VirtualMachine("vm6", memory=512, cpu_demand=1))
        configuration.set_running("vm3", "node-0")
        configuration.set_sleeping("vm5", "node-0")

        target = configuration.copy()
        target.set_sleeping("vm3")
        target.set_running("vm5", "node-0")
        target.set_running("vm6", "node-1")

        plan = build_plan(configuration, target)
        assert len(plan.pools) == 2
        first_kinds = set(plan.pools[0].kinds())
        assert ActionKind.SUSPEND in first_kinds
        assert ActionKind.RUN in first_kinds or ActionKind.RUN in set(plan.pools[1].kinds())
        assert ActionKind.RESUME in set(plan.pools[1].kinds())
        plan.check_reaches(target)

        # execute it on the simulated cluster and check the durations add up
        cluster = SimulatedCluster(nodes=nodes)
        for vm in configuration.vms:
            cluster.add_vm(vm)
        cluster.configuration.set_running("vm3", "node-0")
        cluster.configuration.set_sleeping("vm5", "node-0")
        report = PlanExecutor().execute(plan, cluster)
        assert cluster.configuration.same_assignment(target)
        assert report.duration >= max(a.duration for a in report.actions)


class TestScalabilityScenario:
    """A reduced Figure 10 point: Entropy's plan is much cheaper than FFD's."""

    def test_entropy_beats_ffd_on_a_generated_configuration(self):
        scenario = TraceConfigurationGenerator(seed=42).generate(54)
        configuration = scenario.configuration
        module = ConsolidationDecisionModule()
        decision = module.decide(configuration, scenario.queue)
        assert decision.fallback_target is not None

        ffd_plan = build_plan(
            configuration, decision.fallback_target, scenario.vjob_of_vm()
        )
        ffd_cost = plan_cost(ffd_plan).total

        switcher = ClusterContextSwitch(optimizer_timeout=5)
        report = switcher.compute(
            configuration,
            decision.vm_states,
            vjob_of_vm=scenario.vjob_of_vm(),
            fallback_target=decision.fallback_target,
        )
        assert report.target.is_viable()
        assert report.total_cost <= ffd_cost
        if ffd_cost > 0:
            # the optimizer keeps running VMs in place, FFD repacks everything
            assert report.total_cost < ffd_cost


class TestReducedClusterCampaign:
    """A shrunk Section 5.2 campaign: dynamic consolidation beats the static
    allocation and the context switches stay short."""

    @pytest.fixture(scope="class")
    def campaign(self):
        workloads = [
            make_nasgrid_vjob(
                f"vjob{i}",
                NASGridSpec(
                    benchmark=[Benchmark.HC, Benchmark.VP, Benchmark.MB, Benchmark.ED][i % 4],
                    problem_class=ProblemClass.W,
                    vm_count=4,
                ),
                memory_mb=512,
                priority=i,
            )
            for i in range(4)
        ]
        nodes = make_working_nodes(4, cpu_capacity=2, memory_capacity=3584)
        period = config.DECISION_PERIOD_S
        entropy = ControlLoop(
            nodes,
            workloads,
            policy="consolidation",
            period=period,
            optimizer_timeout=2.0,
        ).run()
        static = StaticAllocationSimulator(nodes, workloads).run()
        return entropy, static

    def test_all_vjobs_complete(self, campaign):
        entropy, _ = campaign
        assert len(entropy.completion_times) == 4

    def test_entropy_makespan_not_worse_than_static(self, campaign):
        entropy, static = campaign
        assert entropy.makespan <= static.makespan * 1.05
        assert makespan_reduction(static.makespan, entropy.makespan) >= -0.05

    def test_context_switch_statistics_are_sane(self, campaign):
        entropy, _ = campaign
        stats = switch_statistics(entropy.switches)
        assert stats.count >= 1
        assert 0.0 < stats.average_duration < 600.0

    def test_utilization_series_cover_the_run(self, campaign):
        entropy, static = campaign
        assert entropy.utilization[0].time == 0.0
        assert static.utilization[0].time == 0.0
        assert max(s.time for s in entropy.utilization) <= entropy.makespan + 600.0
