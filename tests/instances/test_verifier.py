"""The standalone verifier: scoring, mutations, optimizer independence."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.constraints import Fence, Spread
from repro.instances.format import Instance
from repro.instances.verifier import (
    SubmissionError,
    verify_submission,
)
from repro.model.node import make_working_nodes
from repro.model.vjob import VJob
from repro.model.vm import VirtualMachine, VMState
from repro.workloads.traces import VJobWorkload, constant_trace


def running_instance(constraints=()) -> Instance:
    """Three running VMs (one per vjob) on nodes 0-2, one spare node."""
    workloads = []
    states = {}
    placement = {}
    for i in range(3):
        vm = VirtualMachine(
            name=f"job{i}.vm0", memory=512, cpu_demand=1, vjob=f"job{i}"
        )
        vjob = VJob(name=f"job{i}", vms=[vm])
        workloads.append(
            VJobWorkload(vjob=vjob, traces={vm.name: constant_trace(600.0)})
        )
        states[vm.name] = VMState.RUNNING
        placement[vm.name] = f"node-{i}"
    return Instance(
        name="verify-unit",
        seed=1,
        nodes=tuple(make_working_nodes(4, cpu_capacity=2, memory_capacity=2048)),
        workloads=tuple(workloads),
        constraints=tuple(constraints),
        states=states,
        placement=placement,
    )


def migrate(vm: str, source: str, destination: str) -> dict:
    return {
        "kind": "migrate",
        "vm": vm,
        "source": source,
        "destination": destination,
    }


class TestPlanVerification:
    def test_valid_migration_plan_passes(self):
        instance = running_instance()
        report = verify_submission(
            instance,
            {"plan": {"pools": [[migrate("job0.vm0", "node-0", "node-3")]]}},
        )
        assert report.passed
        assert report.kind == "plan"
        assert report.feasible and report.viable
        assert report.migrations == 1
        assert report.switch_cost == 512  # Table 1: Dm(vm) = memory
        assert report.makespan == report.switch_cost
        assert report.fingerprint == instance.fingerprint

    def test_empty_plan_passes_with_zero_cost(self):
        report = verify_submission(running_instance(), {"plan": {"pools": []}})
        assert report.passed
        assert report.actions == 0
        assert report.switch_cost == 0

    def test_moved_vm_violating_fence_fails(self):
        instance = running_instance(
            constraints=[Fence(["job0.vm0"], ["node-0", "node-1"])]
        )
        report = verify_submission(
            instance,
            {"plan": {"pools": [[migrate("job0.vm0", "node-0", "node-3")]]}},
        )
        assert not report.passed
        assert report.feasible  # the plan executes; the relation is broken
        assert any(
            "Fence" in v.constraint for v in report.constraint_violations
        )

    def test_spread_violation_detected(self):
        instance = running_instance(
            constraints=[Spread(["job0.vm0", "job1.vm0"])]
        )
        report = verify_submission(
            instance,
            {"plan": {"pools": [[migrate("job0.vm0", "node-0", "node-1")]]}},
        )
        assert not report.passed
        assert any(
            "Spread" in v.constraint for v in report.constraint_violations
        )

    def test_infeasible_plan_reported_not_raised(self):
        # migrating from the wrong source node is a planning failure,
        # scored as infeasible rather than raised
        report = verify_submission(
            running_instance(),
            {"plan": {"pools": [[migrate("job0.vm0", "node-1", "node-3")]]}},
        )
        assert not report.passed
        assert not report.feasible
        assert report.infeasibility

    def test_dropped_action_breaks_dependent_pool(self):
        # job0.vm0 never leaves node-0, so the second pool's migration
        # onto node-0 collides: the stage walk flags the overload… or the
        # apply fails. Either way the submission must not pass.
        instance = running_instance()
        both_onto_node0 = {
            "plan": {
                "pools": [
                    [migrate("job1.vm0", "node-1", "node-0")],
                    [migrate("job2.vm0", "node-2", "node-0")],
                ]
            }
        }
        report = verify_submission(instance, both_onto_node0)
        assert not report.passed
        assert not report.viable or not report.feasible

    def test_verifier_verdict_matches_in_process_checker(self):
        from repro.constraints.checker import check_plan
        from repro.core.actions import Migrate
        from repro.core.plan import Pool, ReconfigurationPlan

        constraints = (Fence(["job0.vm0"], ["node-0"]),)
        instance = running_instance(constraints=constraints)
        submission = {
            "plan": {"pools": [[migrate("job0.vm0", "node-0", "node-3")]]}
        }
        report = verify_submission(instance, submission)

        plan = ReconfigurationPlan(source=instance.configuration())
        pool = Pool()
        pool.add(
            Migrate(
                vm="job0.vm0", source_node="node-0", destination_node="node-3"
            )
        )
        plan.append_pool(pool)
        direct = tuple(check_plan(plan, constraints, include_source=False))
        assert [
            (v.constraint, v.message) for v in report.constraint_violations
        ] == [(v.constraint, v.message) for v in direct]
        assert report.passed == (not direct)


class TestAssignmentVerification:
    def test_identity_assignment_costs_nothing(self):
        instance = running_instance()
        report = verify_submission(
            instance,
            {
                "assignment": {
                    "placement": {"job0.vm0": "node-0", "job1.vm0": "node-1"}
                }
            },
        )
        assert report.passed
        assert report.kind == "assignment"
        assert report.switch_cost == 0
        assert report.migrations == 0

    def test_moves_charge_table1_lower_bound(self):
        report = verify_submission(
            running_instance(),
            {"assignment": {"placement": {"job0.vm0": "node-3"}}},
        )
        assert report.passed
        assert report.migrations == 1
        assert report.switch_cost == 512
        assert report.minimum_cost == 512

    def test_waking_a_waiting_vm_is_free(self):
        vm = VirtualMachine(name="w.vm0", memory=256, cpu_demand=1, vjob="w")
        vjob = VJob(name="w", vms=[vm])
        instance = Instance(
            name="waiting",
            seed=1,
            nodes=tuple(make_working_nodes(2, cpu_capacity=2, memory_capacity=1024)),
            workloads=(
                VJobWorkload(vjob=vjob, traces={vm.name: constant_trace(60.0)}),
            ),
        )
        report = verify_submission(
            instance, {"assignment": {"placement": {"w.vm0": "node-1"}}}
        )
        assert report.passed
        assert report.switch_cost == 0
        assert report.actions == 1

    def test_assignment_constraint_violation(self):
        instance = running_instance(
            constraints=[Fence(["job0.vm0"], ["node-0"])]
        )
        report = verify_submission(
            instance,
            {"assignment": {"placement": {"job0.vm0": "node-3"}}},
        )
        assert not report.passed
        assert report.constraint_violations


class TestSubmissionErrors:
    def test_not_a_mapping(self):
        with pytest.raises(SubmissionError) as excinfo:
            verify_submission(running_instance(), ["not", "a", "dict"])
        assert excinfo.value.code == "malformed-submission"

    def test_neither_plan_nor_assignment(self):
        with pytest.raises(SubmissionError) as excinfo:
            verify_submission(running_instance(), {"schedule": []})
        assert excinfo.value.code == "malformed-submission"

    def test_truncated_plan_missing_pools(self):
        with pytest.raises(SubmissionError) as excinfo:
            verify_submission(running_instance(), {"plan": {}})
        assert excinfo.value.code == "truncated-plan"

    def test_truncated_action_missing_destination(self):
        with pytest.raises(SubmissionError) as excinfo:
            verify_submission(
                running_instance(),
                {"plan": {"pools": [[{"kind": "migrate", "vm": "job0.vm0"}]]}},
            )
        assert excinfo.value.code == "truncated-plan"

    def test_unknown_action_kind(self):
        with pytest.raises(SubmissionError) as excinfo:
            verify_submission(
                running_instance(),
                {"plan": {"pools": [[{"kind": "teleport", "vm": "job0.vm0"}]]}},
            )
        assert excinfo.value.code == "unknown-action"

    def test_unknown_vm(self):
        with pytest.raises(SubmissionError) as excinfo:
            verify_submission(
                running_instance(),
                {"plan": {"pools": [[migrate("ghost", "node-0", "node-1")]]}},
            )
        assert excinfo.value.code == "unknown-vm"

    def test_unknown_node(self):
        with pytest.raises(SubmissionError) as excinfo:
            verify_submission(
                running_instance(),
                {
                    "plan": {
                        "pools": [[migrate("job0.vm0", "node-0", "node-99")]]
                    }
                },
            )
        assert excinfo.value.code == "unknown-node"

    def test_instance_mismatch(self):
        with pytest.raises(SubmissionError) as excinfo:
            verify_submission(
                running_instance(),
                {"instance": "some-other-instance", "plan": {"pools": []}},
            )
        assert excinfo.value.code == "instance-mismatch"

    def test_matching_instance_name_accepted(self):
        report = verify_submission(
            running_instance(),
            {"instance": "verify-unit", "plan": {"pools": []}},
        )
        assert report.passed


NO_OPTIMIZER_PROBE = """
import json, sys

from repro.instances.format import instance_from_dict
from repro.instances.verifier import verify_submission

document = json.loads(sys.stdin.read())
instance = instance_from_dict(document)
report = verify_submission(
    instance,
    {"plan": {"pools": [[{
        "kind": "migrate", "vm": "job0.vm0",
        "source": "node-0", "destination": "node-3",
    }]]}},
)
assert report.passed, report.to_dict()
forbidden = [
    name for name in sys.modules
    if name == "repro.cp" or name.startswith("repro.cp.")
    or name == "repro.core.optimizer"
    or name == "repro.core.planner"
]
print(json.dumps(forbidden))
"""


def test_verifier_never_imports_the_optimizer():
    """ISSUE acceptance: the repro-verify call path must stay on the
    independent checker pipeline — no CP solver, no optimizer, no planner
    in sys.modules after a full load + verification."""
    import json
    import os
    from pathlib import Path

    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")])
    )
    document = running_instance().document()
    result = subprocess.run(
        [sys.executable, "-c", NO_OPTIMIZER_PROBE],
        input=json.dumps(document),
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert json.loads(result.stdout) == []
