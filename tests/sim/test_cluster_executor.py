"""Tests of the simulated cluster and the plan executor."""

import pytest

from repro import config
from repro.core.actions import ActionKind, Migrate, Resume, Run, Stop, Suspend
from repro.core.planner import build_plan
from repro.model.errors import ExecutionError
from repro.model.node import make_working_nodes
from repro.model.vm import VMState
from repro.sim.cluster import SimulatedCluster
from repro.sim.executor import PlanExecutor
from repro.sim.hypervisor import DEFAULT_HYPERVISOR

from repro.testing import make_vm


@pytest.fixture
def cluster():
    cluster = SimulatedCluster(
        nodes=make_working_nodes(3, cpu_capacity=2, memory_capacity=4096)
    )
    cluster.add_vm(make_vm("a", memory=1024, cpu=1))
    cluster.add_vm(make_vm("b", memory=512, cpu=1))
    cluster.configuration.set_running("a", "node-0")
    cluster.configuration.set_running("b", "node-1")
    return cluster


class TestSimulatedCluster:
    def test_apply_infeasible_action_raises(self, cluster):
        with pytest.raises(ExecutionError):
            cluster.apply_action(Run(vm="a", node="node-2"))
        # nothing was applied
        assert cluster.configuration.location_of("a") == "node-0"

    def test_update_demand(self, cluster):
        cluster.update_demand("a", 0)
        assert cluster.configuration.vm("a").cpu_demand == 0

    def test_suspend_records_the_image_on_the_configuration(self, cluster):
        assert cluster.apply_action(Suspend(vm="a", node="node-0")) is None
        configuration = cluster.configuration
        assert configuration.state_of("a") is VMState.SLEEPING
        assert configuration.image_location_of("a") == "node-0"
        assert configuration.images_on("node-0") == ("a",)

    def test_resume_clears_the_image_record(self, cluster):
        cluster.apply_action(Suspend(vm="a", node="node-0"))
        cluster.apply_action(
            Resume(vm="a", image_node="node-0", destination_node="node-2")
        )
        configuration = cluster.configuration
        assert configuration.location_of("a") == "node-2"
        assert configuration.image_location_of("a") is None
        assert configuration.images_on("node-0") == ()

    def test_stop_frees_the_node_load(self, cluster):
        cluster.apply_action(Stop(vm="b", node="node-1"))
        configuration = cluster.configuration
        assert configuration.state_of("b") is VMState.TERMINATED
        assert configuration.vms_on("node-1") == ()
        assert configuration.usage_of("node-1").cpu == 0


class TestPlanExecutor:
    def test_execution_reaches_target_and_reports_durations(self):
        # Uniprocessor nodes: b can only reach node-0 once a has been suspended.
        cluster = SimulatedCluster(
            nodes=make_working_nodes(3, cpu_capacity=1, memory_capacity=4096)
        )
        cluster.add_vm(make_vm("a", memory=1024, cpu=1))
        cluster.add_vm(make_vm("b", memory=512, cpu=1))
        cluster.configuration.set_running("a", "node-0")
        cluster.configuration.set_running("b", "node-1")
        target = cluster.configuration.copy()
        target.set_sleeping("a")
        target.set_running("b", "node-0")
        plan = build_plan(cluster.configuration, target)
        report = PlanExecutor().execute(plan, cluster, start_time=100.0)

        assert cluster.configuration.same_assignment(target)
        assert report.start == 100.0
        assert report.duration > 0
        assert len(report.actions) == 2
        assert report.count(ActionKind.SUSPEND) == 1
        assert report.count(ActionKind.MIGRATE) == 1
        assert report.involved_nodes() == {"node-0", "node-1"}
        # pools execute sequentially: the migrate starts after the suspend ends
        suspend = next(a for a in report.actions if a.action.kind is ActionKind.SUSPEND)
        migrate = next(a for a in report.actions if a.action.kind is ActionKind.MIGRATE)
        assert migrate.start >= suspend.end

    def test_suspend_resume_actions_are_pipelined(self):
        cluster = SimulatedCluster(
            nodes=make_working_nodes(2, cpu_capacity=2, memory_capacity=4096)
        )
        for index in range(3):
            cluster.add_vm(make_vm(f"v{index}", memory=512, cpu=1, vjob="j"))
            cluster.configuration.set_running(f"v{index}", "node-0")
        target = cluster.configuration.copy()
        for index in range(3):
            target.set_sleeping(f"v{index}")
        plan = build_plan(cluster.configuration, target, {f"v{index}": "j" for index in range(3)})
        report = PlanExecutor().execute(plan, cluster)
        starts = sorted(a.start for a in report.actions)
        delay = config.VJOB_PIPELINE_DELAY_S
        assert starts == [0.0, delay, 2 * delay]

    def test_empty_plan_has_zero_duration(self, cluster):
        plan = build_plan(cluster.configuration, cluster.configuration.copy())
        report = PlanExecutor().execute(plan, cluster)
        assert report.duration == 0.0
        assert report.actions == []

    def test_remote_resume_takes_longer_than_local(self):
        def run_resume(destination):
            cluster = SimulatedCluster(
                nodes=make_working_nodes(2, cpu_capacity=2, memory_capacity=4096)
            )
            cluster.add_vm(make_vm("s", memory=2048, cpu=1))
            cluster.configuration.set_sleeping("s", "node-0")
            target = cluster.configuration.copy()
            target.set_running("s", destination)
            plan = build_plan(cluster.configuration, target)
            return PlanExecutor().execute(plan, cluster).duration

        assert run_resume("node-1") > run_resume("node-0")

    def test_durations_use_the_hypervisor_model(self, cluster):
        target = cluster.configuration.copy()
        target.set_terminated("b")
        plan = build_plan(cluster.configuration, target)
        report = PlanExecutor(hypervisor=DEFAULT_HYPERVISOR).execute(plan, cluster)
        assert report.duration == pytest.approx(DEFAULT_HYPERVISOR.stop_duration(512))
