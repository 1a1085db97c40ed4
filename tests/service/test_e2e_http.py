"""End-to-end acceptance: the canonical chaos scenario driven over HTTP.

The seeded crash-at-120 s-under-churn scenario of
``tests/integration/test_chaos_golden.py`` is executed twice:

* **in process** — the usual ``Scenario(...).run()``;
* **over HTTP** — a daemon starts from an *empty* workload set, the five
  churn vjobs and the node-1 crash are posted through
  :class:`repro.service.OperatorClient`, then ``POST /run`` drives the loop.

Commands posted before the run drain at the first iteration boundary
(simulated t = 0) with their original submission times intact, so both runs
must produce the byte-identical :class:`RunResult`.  The test then checks
the operator-facing surfaces against that result: ``/metrics`` parses as
valid Prometheus text and agrees with the counters, and replaying the
audit-log JSONL reconstructs the executed plan sequence byte-for-byte.
"""

import json

import pytest

from repro import FaultSchedule, Scenario
from repro.service import OperatorClient, parse_prometheus_text
from repro.service.audit import AuditLog, replay_plans
from repro.workloads import ChurnGenerator, ProblemClass, heterogeneous_nodes

OPTIMIZER_TIMEOUT_S = 30.0


def churn_workloads():
    generator = ChurnGenerator(
        seed=11,
        mean_interarrival_s=45.0,
        vm_count_choices=(2, 3),
        problem_classes=(ProblemClass.W,),
    )
    return generator.workloads(5)


def chaos_scenario(workloads, faults):
    return Scenario(
        nodes=heterogeneous_nodes(5, seed=7),
        workloads=workloads,
        policy="consolidation",
        optimizer_timeout=OPTIMIZER_TIMEOUT_S,
        faults=faults,
        sla_factor=6.0,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    in_process = chaos_scenario(
        churn_workloads(), FaultSchedule().node_crash("node-1", at=120.0)
    ).run()

    audit_path = tmp_path_factory.mktemp("service") / "audit.jsonl"
    # Same fleet and knobs, but no workloads and no fault schedule: all of
    # the work arrives over the wire.
    daemon = chaos_scenario([], None).serve(port=0, audit_path=str(audit_path))
    with daemon:
        client = OperatorClient(daemon.url, timeout=30.0)
        for workload in churn_workloads():
            client.submit_vjob(workload)
        client.inject_fault(
            {"kind": "node_crash", "target": "node-1", "at": 120.0}
        )
        client.start_run()
        assert client.wait(timeout=600.0) == "completed"
        over_http = client.result()
        yield {
            "in_process": in_process,
            "over_http": over_http,
            "client": client,
            "audit_path": audit_path,
        }


def test_http_run_reproduces_the_in_process_result(runs):
    canonical = json.dumps(runs["in_process"].to_dict(), sort_keys=True)
    observed = json.dumps(runs["over_http"].to_dict(), sort_keys=True)
    assert observed == canonical


def test_no_operator_command_failed(runs):
    commands = runs["client"].commands()
    assert commands["errors"] == []
    assert len(commands["applied"]) == 6  # 5 vjobs + 1 fault


def test_metrics_parse_and_agree_with_the_result(runs):
    result = runs["over_http"]
    series = parse_prometheus_text(runs["client"].metrics_text())

    faults = {
        labels["kind"]: value for labels, value in series["repro_faults_total"]
    }
    assert faults == {"node_crash": float(len(result.faults))}
    completed = sum(v for _, v in series["repro_vjobs_completed_total"])
    assert completed == len(result.completion_times)
    switches = sum(v for _, v in series["repro_context_switches_total"])
    assert switches == len(result.switches)
    cost = sum(v for _, v in series["repro_switch_cost_total"])
    assert cost == result.total_switch_cost
    repairs = sum(v for _, v in series["repro_repairs_total"])
    assert repairs == len(result.repair_latencies)
    lost = sum(v for _, v in series["repro_lost_vjobs_total"])
    assert lost == result.lost_vjob_count
    assert series["repro_round_latency_seconds_count"][0][1] == len(
        result.utilization
    )


def test_audit_replay_reconstructs_plans_byte_for_byte(runs):
    live_plans = runs["client"].plans()
    replayed = replay_plans(AuditLog.load(runs["audit_path"]))
    assert json.dumps(replayed, sort_keys=True) == json.dumps(
        live_plans, sort_keys=True
    )
    assert len(replayed) == len(runs["over_http"].switches)


def test_plan_serialization_matches_the_audit_shape(runs):
    # Rebuilding any audited plan through the serializer round-trips.
    from repro.core.actions import action_from_dict, action_to_dict

    for plan in runs["client"].plans():
        for pool in plan["pools"]:
            for action in pool:
                assert action_to_dict(action_from_dict(action)) == action


def test_telemetry_matches_the_utilization_series(runs):
    telemetry = runs["client"].telemetry()
    result = runs["over_http"]
    assert telemetry["total"] == len(result.utilization)
    assert [s["time"] for s in telemetry["samples"]] == [
        u.time for u in result.utilization
    ]


def _span_shape(node):
    """Span tree with timestamps and measured ``*_ms`` attributes erased —
    comparable across runs."""
    return (
        node["name"],
        sorted(
            item
            for item in node.get("attributes", {}).items()
            if not item[0].endswith("_ms")
        ),
        sorted(node.get("counters", {}).items()),
        [event["name"] for event in node.get("events", [])],
        [_span_shape(child) for child in node.get("children", [])],
    )


def test_trace_endpoint_serves_the_run_trace():
    # A dedicated traced pair: the shared ``runs`` fixture must stay
    # untraced so that the byte-compare above keeps holding across
    # independent runs (span timestamps are wall-clock).
    in_process_scenario = chaos_scenario(
        churn_workloads(), FaultSchedule().node_crash("node-1", at=120.0)
    )
    in_process_scenario.trace = True
    in_process = in_process_scenario.run()

    daemon_scenario = chaos_scenario([], None)
    daemon_scenario.trace = True
    with daemon_scenario.serve(port=0) as daemon:
        client = OperatorClient(daemon.url, timeout=30.0)
        for workload in churn_workloads():
            client.submit_vjob(workload)
        client.inject_fault(
            {"kind": "node_crash", "target": "node-1", "at": 120.0}
        )
        client.start_run()
        assert client.wait(timeout=600.0) == "completed"
        payload = client.trace()
        result = client.result()

    assert payload["state"] == "completed"
    # Same run: the endpoint returns exactly the trace the result carries.
    assert payload["trace"] == result.trace
    # Different run, same seeds: identical span tree modulo timestamps.
    assert _span_shape(payload["trace"]["root"]) == _span_shape(
        in_process.trace["root"]
    )
    # Every HTTP request the daemon served was traced too.
    requests = payload["requests"]
    assert requests
    for request_span in requests:
        assert request_span["name"] == "request"
        attributes = request_span["attributes"]
        assert attributes["method"] in {"GET", "POST"}
        assert attributes["path"].startswith("/")
        assert attributes["status"] in {200, 202}
    assert any(
        r["attributes"]["path"] == "/run" and r["attributes"]["method"] == "POST"
        for r in requests
    )
