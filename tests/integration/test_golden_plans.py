"""Golden regression suite for the paper scenarios.

Every scenario the paper uses to explain the mechanism (the Figure 6 RJSP
construction, the Figure 7 sequential constraint, the Figure 8 inter-dependent
cycle, the Figure 9 two-pool plan) plus a reduced Section 5.2 campaign is run
end to end, and the produced plans, costs and campaign metrics are compared
*exactly* against expectation files checked in under
``tests/integration/golden/``.  Solver or planner refactors that change any
observable output therefore show up as a reviewable golden-file diff instead
of a silent behaviour drift.

Regenerate the expectations after an intentional change with::

    REPRO_UPDATE_GOLDENS=1 python -m pytest tests/integration/test_golden_plans.py

and commit the resulting diff.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.api import Scenario
from repro.core import ClusterContextSwitch, build_plan
from repro.decision import ConsolidationDecisionModule
from repro.model import (
    Configuration,
    VJob,
    VJobQueue,
    VirtualMachine,
    index_vms_by_vjob,
    make_working_nodes,
)
from repro.workloads import Benchmark, NASGridSpec, ProblemClass, make_nasgrid_vjob

GOLDEN_DIR = Path(__file__).parent / "golden"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

#: Generous CP budget: every scenario here is small enough to be solved to
#: proven optimality in milliseconds, so the timeout never triggers and the
#: outputs stay deterministic on slow CI machines.
OPTIMIZER_TIMEOUT_S = 30.0


def check_golden(name: str, actual: dict) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    serialized = json.dumps(actual, indent=2, sort_keys=True)
    if UPDATE:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(serialized + "\n")
        return
    if not path.exists():
        pytest.fail(
            f"golden file {path} is missing; run with REPRO_UPDATE_GOLDENS=1 "
            "to create it"
        )
    expected = json.loads(path.read_text())
    assert json.loads(serialized) == expected, (
        f"{name} drifted from its golden expectation; if the change is "
        "intentional, regenerate with REPRO_UPDATE_GOLDENS=1 and review the diff"
    )


def plan_to_dict(plan) -> dict:
    return {
        "pools": [
            [
                {
                    "kind": action.kind.value,
                    "vm": action.vm,
                    "source": action.source(),
                    "destination": action.destination(),
                    "cost": action.cost(plan.source),
                }
                for action in pool
            ]
            for pool in plan.pools
        ]
    }


def report_to_dict(report) -> dict:
    final = report.plan.apply()
    return {
        "plan": plan_to_dict(report.plan),
        "total_cost": report.total_cost,
        "used_fallback": report.used_fallback,
        "final_states": {
            vm: final.state_of(vm).value for vm in sorted(final.vm_names)
        },
        "final_placement": {
            vm: final.location_of(vm) for vm in sorted(final.vm_names)
        },
    }


class TestFigureGoldens:
    def test_figure6_rjsp_context_switch(self):
        """Three vjobs on three uniprocessor nodes: vjob2 gets suspended so
        vjob3 can run (the Figure 6 walkthrough)."""
        nodes = make_working_nodes(3, cpu_capacity=1, memory_capacity=2048)
        configuration = Configuration(nodes=nodes)
        vjobs = []
        for name, count, priority in [("vjob1", 2, 1), ("vjob2", 2, 2), ("vjob3", 1, 3)]:
            vms = [
                VirtualMachine(name=f"{name}.vm{i}", memory=512, cpu_demand=1, vjob=name)
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
        queue = VJobQueue(vjobs)

        module = ConsolidationDecisionModule()
        decision = module.decide(configuration, queue)
        switcher = ClusterContextSwitch(optimizer_timeout=OPTIMIZER_TIMEOUT_S)
        report = switcher.compute(
            configuration,
            decision.vm_states,
            vjob_of_vm=index_vms_by_vjob(queue.ordered()),
            fallback_target=decision.fallback_target,
        )
        actual = report_to_dict(report)
        actual["decision"] = {
            vm: state.value for vm, state in sorted(decision.vm_states.items())
        }
        check_golden("figure6", actual)

    def test_figure7_sequential_constraint(self):
        """migrate(vm1) can only start once suspend(vm2) has freed node-1."""
        nodes = make_working_nodes(2, cpu_capacity=1, memory_capacity=2048)
        configuration = Configuration(nodes=nodes)
        configuration.add_vm(VirtualMachine("vm1", memory=1536, cpu_demand=0))
        configuration.add_vm(VirtualMachine("vm2", memory=1024, cpu_demand=0))
        configuration.set_running("vm1", "node-0")
        configuration.set_running("vm2", "node-1")
        target = configuration.copy()
        target.set_sleeping("vm2")
        target.set_running("vm1", "node-1")

        plan = build_plan(configuration, target)
        plan.check_reaches(target)
        check_golden("figure7", plan_to_dict(plan))

    def test_figure8_interdependent_cycle(self):
        """Two VMs swapping full nodes: the cycle is broken through a pivot."""
        nodes = make_working_nodes(2, cpu_capacity=1, memory_capacity=2048)
        nodes += make_working_nodes(1, cpu_capacity=1, memory_capacity=2048, prefix="pivot")
        configuration = Configuration(nodes=nodes)
        configuration.add_vm(VirtualMachine("vm1", memory=2048, cpu_demand=0))
        configuration.add_vm(VirtualMachine("vm2", memory=2048, cpu_demand=0))
        configuration.set_running("vm1", "node-0")
        configuration.set_running("vm2", "node-1")
        target = configuration.copy()
        target.set_running("vm1", "node-1")
        target.set_running("vm2", "node-0")

        plan = build_plan(configuration, target)
        plan.check_reaches(target)
        check_golden("figure8", plan_to_dict(plan))

    def test_figure9_two_pool_plan(self):
        """Suspend then resume/run split over two pools."""
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
        plan.check_reaches(target)
        check_golden("figure9", plan_to_dict(plan))


class TestMiniCampaignGolden:
    """A shrunk Section 5.2 campaign, locked switch by switch."""

    def test_mini_campaign_metrics(self):
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
        result = Scenario(
            nodes=nodes,
            workloads=workloads,
            policy="consolidation",
            optimizer_timeout=OPTIMIZER_TIMEOUT_S,
        ).run()

        actual = {
            "policy": result.policy,
            "makespan": round(result.makespan, 6),
            "completion_times": {
                name: round(time, 6)
                for name, time in sorted(result.completion_times.items())
            },
            "switches": [
                {
                    "time": round(s.time, 6),
                    "cost": s.cost,
                    "duration": round(s.duration, 6),
                    "migrations": s.migrations,
                    "runs": s.runs,
                    "stops": s.stops,
                    "suspends": s.suspends,
                    "resumes": s.resumes,
                    "local_resumes": s.local_resumes,
                    "used_fallback": s.used_fallback,
                }
                for s in result.switches
            ],
        }
        check_golden("mini_campaign", actual)
