"""Integration tests of the Scenario facade.

The acceptance bar of the API redesign: the same scenario description runs
unmodified under at least two registered policies and yields comparable
structured results.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import RunResult, Scenario
from repro.api import RecordingObserver
from repro.model import make_working_nodes
from repro.testing import make_workload


def contended_workloads():
    """Three vjobs on a cluster that cannot run them all at peak."""
    return [
        make_workload("high", vm_count=1, duration=90.0, priority=1, idle_head=60.0),
        make_workload("mid", vm_count=1, duration=90.0, priority=2, idle_head=60.0),
        make_workload("low", vm_count=1, duration=90.0, priority=3, idle_head=60.0),
    ]


def small_nodes():
    return make_working_nodes(1, cpu_capacity=2, memory_capacity=4096)


class TestScenarioRun:
    def test_run_returns_a_structured_result(self):
        result = Scenario(
            nodes=small_nodes(),
            workloads=contended_workloads(),
            policy="consolidation",
            optimizer_timeout=2.0,
        ).run()
        assert isinstance(result, RunResult)
        assert result.policy == "consolidation"
        assert set(result.completion_times) == {"high", "mid", "low"}
        assert result.makespan == max(result.completion_times.values())
        assert result.utilization
        assert result.metadata["final_viable"] is True

    def test_a_scenario_needs_nodes(self):
        with pytest.raises(ValueError):
            Scenario(nodes=[], workloads=contended_workloads())

    def test_same_scenario_runs_under_two_policies(self):
        """The tentpole acceptance criterion: one description, two policies."""
        results = {}
        for policy in ("consolidation", "fcfs"):
            results[policy] = Scenario(
                nodes=small_nodes(),
                workloads=contended_workloads(),
                policy=policy,
                optimizer_timeout=2.0,
            ).run()

        for policy, result in results.items():
            assert result.policy == policy
            assert set(result.completion_times) == {"high", "mid", "low"}
            assert result.metadata["final_viable"] is True

        # Under consolidation the overflow vjob sleeps (suspend/resume);
        # FCFS + static booking never suspends, the overflow simply waits.
        assert sum(s.suspends for s in results["consolidation"].switches) >= 1
        assert sum(s.suspends for s in results["fcfs"].switches) == 0
        # Both strategies finish the same work; results are comparable fields.
        assert results["consolidation"].makespan > 0
        assert results["fcfs"].makespan > 0

    def test_with_policy_copies_the_scenario(self):
        scenario = Scenario(nodes=small_nodes(), workloads=contended_workloads())
        other = scenario.with_policy("fcfs", backfilling="none")
        assert scenario.policy == "consolidation"
        assert other.policy == "fcfs"
        assert other.policy_options == {"backfilling": "none"}
        assert other.nodes == scenario.nodes

    def test_compare_requires_a_workload_factory(self):
        scenario = Scenario(nodes=small_nodes(), workloads=contended_workloads())
        with pytest.raises(ValueError, match="workload_factory"):
            scenario.compare(["consolidation", "fcfs"])

    def test_compare_runs_every_policy_on_fresh_workloads(self):
        scenario = Scenario(
            nodes=small_nodes(),
            workloads=contended_workloads(),
            optimizer_timeout=2.0,
        )
        results = scenario.compare(
            ["consolidation", "fcfs"], workload_factory=contended_workloads
        )
        assert set(results) == {"consolidation", "fcfs"}
        for result in results.values():
            assert set(result.completion_times) == {"high", "mid", "low"}

    def test_compare_keeps_options_of_the_configured_policy(self, monkeypatch):
        scenario = Scenario(
            nodes=small_nodes(),
            workloads=contended_workloads(),
            policy="fcfs",
            policy_options={"backfilling": "none"},
            optimizer_timeout=2.0,
        )
        built = []
        original_build = Scenario.build

        def spying_build(self):
            built.append((self.policy, dict(self.policy_options)))
            return original_build(self)

        monkeypatch.setattr(Scenario, "build", spying_build)
        results = scenario.compare(
            ["fcfs", "consolidation"], workload_factory=contended_workloads
        )
        assert set(results) == {"fcfs", "consolidation"}
        # the fcfs run used the scenario's own backfilling option
        assert ("fcfs", {"backfilling": "none"}) in built
        assert ("consolidation", {}) in built

    def test_run_static_shares_the_description(self):
        scenario = Scenario(nodes=small_nodes(), workloads=contended_workloads())
        static = scenario.run_static()
        assert static.policy == "static"
        assert set(static.completion_times) == {"high", "mid", "low"}
        assert static.schedule is not None


class TestPlanningRobustness:
    def test_permanently_unplannable_policy_fails_loudly(self):
        """A policy that keeps demanding the impossible must raise instead of
        silently spinning until max_time."""
        from repro.api import Decision
        from repro.model import VMState
        from repro.model.errors import PlanningError

        class Impossible:
            name = "impossible"

            def decide(self, configuration, queue):
                # demand every VM running, even the ones that cannot fit
                return Decision(
                    vm_states={
                        vm: VMState.RUNNING
                        for vjob in queue.pending()
                        for vm in vjob.vm_names
                    }
                )

        nodes = make_working_nodes(1, cpu_capacity=1, memory_capacity=600)
        # a 1024 MB VM can never run on a 600 MB node
        workloads = [make_workload("stuck", vm_count=1, memory=1024, duration=50.0)]
        scenario = Scenario(
            nodes=nodes,
            workloads=workloads,
            policy=Impossible(),
            optimizer_timeout=0.5,
        )
        with pytest.raises(PlanningError, match="cannot make progress"):
            scenario.run()


class TestObservers:
    def test_observer_sees_the_whole_lifecycle(self):
        observer = RecordingObserver()
        result = (
            Scenario(
                nodes=small_nodes(),
                workloads=contended_workloads(),
                optimizer_timeout=2.0,
            )
            .observe(observer)
            .run()
        )
        kinds = [name for name, _ in observer.events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert observer.of_kind("run_end") == [result]
        assert observer.of_kind("switch") == result.switches
        completed = dict(observer.of_kind("vjob_completed"))
        assert set(completed) == {"high", "mid", "low"}
        assert len(observer.of_kind("sample")) == len(result.utilization)


class TestExperimentBuilder:
    def test_builder_run_executes_the_scenario(self):
        result = Scenario(
            nodes=small_nodes(),
            workloads=contended_workloads(),
            policy="consolidation",
            optimizer_timeout=2.0,
        ).run()
        assert set(result.completion_times) == {"high", "mid", "low"}

    def test_build_exposes_the_live_loop(self):
        loop = (
            Scenario(
                nodes=small_nodes(),
                workloads=contended_workloads(),
                optimizer_timeout=2.0,
            )
        ).build()
        result = loop.run()
        assert all(vjob.is_terminated for vjob in loop.queue)
        assert loop.cluster.configuration.is_viable()
        assert result.metadata["final_viable"] is True


NO_RUNTIME_DEPENDENCY_PROBE = """
import sys

from repro import Scenario
from repro.model import make_working_nodes
from repro.testing import make_workload

result = Scenario(
    nodes=make_working_nodes(4, cpu_capacity=2, memory_capacity=4096),
    workloads=[
        make_workload(f"job-{i}", vm_count=2, duration=60.0) for i in range(3)
    ],
    policy="consolidation",
    engine="repair-partitioned",
    optimizer_timeout=2.0,
).run()
assert result.metadata["final_viable"] is True
assert "numpy" not in sys.modules, "a round imported numpy"
"""


def test_a_full_run_imports_no_third_party_runtime_dependency():
    """The package declares no runtime dependency: a whole run through the
    most composed engine (model layer, partitioner, repair, CP solver) must
    not pull numpy in.  A fresh interpreter, because the test process itself
    has it loaded (Hypothesis probes for it)."""
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")])
    )
    subprocess.run(
        [sys.executable, "-c", NO_RUNTIME_DEPENDENCY_PROBE],
        check=True,
        env=env,
        timeout=120,
    )
