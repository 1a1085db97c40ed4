"""RunResult JSON round-trip and the canonical summary row."""

import json

from repro.api.results import (
    ConstraintViolationRecord,
    ContextSwitchRecord,
    FaultRecord,
    RunResult,
    UtilizationSample,
)
from repro.model.node import make_working_nodes
from repro.api.scenario import Scenario
from repro.instances import load_pack_instance
from repro.instances.baselines import (
    OPTIMIZER_TIMEOUT_S,
    SCORE_KEYS,
    baseline_scoreboard,
)
from repro.sim.faults import FaultSchedule
from repro.testing import make_workload


def full_result() -> RunResult:
    return RunResult(
        makespan=360.0,
        policy="consolidation",
        switches=[
            ContextSwitchRecord(
                time=0.0,
                cost=12,
                duration=8.5,
                migrations=1,
                runs=2,
                stops=0,
                suspends=1,
                resumes=0,
                local_resumes=0,
                used_fallback=True,
                failed_migrations=1,
            )
        ],
        utilization=[
            UtilizationSample(
                time=0.0,
                cpu_demand_units=4,
                cpu_used_units=3,
                cpu_capacity_units=8,
                memory_used_mb=2048,
            )
        ],
        completion_times={"job-a": 240.0},
        metadata={"final_viable": True, "planning_failures": 2},
        faults=[
            FaultRecord(
                time=120.0,
                kind="node_crash",
                target="node-1",
                detected_at=150.0,
                affected_vjobs=("job-a",),
                detail="evicted 2 VMs",
            )
        ],
        repair_latencies={"job-a": 45.0},
        sla_violations=["job-b"],
        unfinished_vjobs=["job-b"],
        constraint_violations=[
            ConstraintViolationRecord(
                time=30.0,
                constraint="spread(db.0, db.1)",
                phase="execution",
                message="both on node-0",
                stage=1,
            )
        ],
    )


def test_round_trip_is_exact():
    result = full_result()
    payload = json.loads(json.dumps(result.to_dict()))
    assert RunResult.from_dict(payload) == result


def test_round_trip_through_bytes_is_stable():
    result = full_result()
    once = json.dumps(result.to_dict(), sort_keys=True)
    twice = json.dumps(
        RunResult.from_dict(json.loads(once)).to_dict(), sort_keys=True
    )
    assert once == twice


def test_from_dict_tolerates_missing_optional_series():
    result = RunResult.from_dict({"makespan": 10.0, "policy": "fcfs"})
    assert result.makespan == 10.0
    assert result.switches == []
    assert result.faults == []


def test_real_run_round_trips():
    result = Scenario(
        nodes=make_working_nodes(3),
        workloads=[make_workload("job", vm_count=2, duration=60.0)],
        policy="ffd",
        optimizer_timeout=2.0,
        faults=FaultSchedule().node_crash("node-2", at=30.0),
        sla_factor=6.0,
    ).run()
    assert RunResult.from_dict(result.to_dict()) == result


def test_summary_matches_the_campaign_row():
    # a scoreboard cell is exactly the SCORE_KEYS subset of summary()
    summary = full_result().summary()
    assert set(SCORE_KEYS) < set(summary)
    assert summary["switches"] == 1
    assert summary["migrations"] == 1
    assert summary["fallback_switches"] == 1
    assert summary["planning_failures"] == 2
    assert summary["lost_vjobs"] == 1

    board = baseline_scoreboard(instances=["small-spread"], policies=["ffd"])
    cell = board["instances"]["small-spread"]["policies"]["ffd"]
    run = (
        load_pack_instance("small-spread")
        .scenario(policy="ffd", optimizer_timeout=OPTIMIZER_TIMEOUT_S)
        .run()
    )
    assert cell == {key: run.summary()[key] for key in SCORE_KEYS}
