"""HTTP behaviour of the operator daemon (fast heuristic scenarios)."""

import json
import urllib.request

import pytest

from repro.api.scenario import Scenario
from repro.model.node import make_working_nodes
from repro.service import (
    OperatorClient,
    OperatorDaemon,
    ServiceError,
    parse_prometheus_text,
)
from repro.testing import make_workload


@pytest.fixture
def daemon():
    scenario = Scenario(
        nodes=make_working_nodes(4),
        workloads=[make_workload("base", vm_count=2, duration=120.0)],
        optimizer_timeout=2.0,
        use_optimizer=False,
    )
    with scenario.serve(port=0) as running:
        yield running


@pytest.fixture
def client(daemon):
    return OperatorClient(daemon.url, timeout=10.0)


def test_healthz_and_idle_state(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["state"] == "idle"
    assert client.configuration()["configuration"] is None


def test_unknown_path_is_404(client):
    with pytest.raises(ServiceError) as excinfo:
        client._get_json("/nope")
    assert excinfo.value.status == 404


def test_malformed_json_body_is_400(daemon):
    request = urllib.request.Request(
        daemon.url + "/vjobs",
        data=b"{not json",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10.0)
    assert excinfo.value.code == 400


def test_invalid_vjob_spec_is_400(client):
    with pytest.raises(ServiceError) as excinfo:
        client.submit_vjob({"vm_count": 2})  # no name
    assert excinfo.value.status == 400
    assert "name" in excinfo.value.message


@pytest.mark.parametrize(
    "payload",
    [{"vjob": 5}, {"vjob": {"name": "x", "vms": [5]}}],
    ids=["vjob-not-an-object", "vm-not-an-object"],
)
def test_a_malformed_full_form_vjob_is_400(payload):
    # Straight through the handler: no server, no loop.
    daemon = OperatorDaemon(
        Scenario(nodes=make_working_nodes(2), workloads=[], use_optimizer=False)
    )
    with pytest.raises(Exception) as excinfo:
        daemon.handle_post("/vjobs", payload)
    assert excinfo.value.status == 400
    assert "missing required field 'name'" in excinfo.value.message


def test_invalid_fault_kind_is_400(client):
    with pytest.raises(ServiceError) as excinfo:
        client.inject_fault({"kind": "meteor_strike", "target": "node-0"})
    assert excinfo.value.status == 400
    assert "meteor_strike" in excinfo.value.message


def test_result_is_404_before_completion(client):
    with pytest.raises(ServiceError) as excinfo:
        client.result()
    assert excinfo.value.status == 404


def test_run_completes_and_serves_everything(client):
    client.submit_vjob({"name": "extra", "vm_count": 2, "duration": 60.0})
    client.start_run()
    assert client.wait(timeout=120.0) == "completed"

    result = client.result()
    assert result.completed("base")
    assert result.completed("extra")

    # /metrics parses as Prometheus text and agrees with the result.
    series = parse_prometheus_text(client.metrics_text())
    completed = sum(v for _, v in series["repro_vjobs_completed_total"])
    assert completed == len(result.completion_times)
    # the final round observes, sees everything terminated and breaks
    # before sampling — so rounds lead the utilization series by one
    rounds = sum(v for _, v in series["repro_loop_rounds_total"])
    assert rounds == len(result.utilization) + 1
    assert series["repro_round_latency_seconds_count"][0][1] == len(
        result.utilization
    )

    # telemetry mirrors the utilization series
    telemetry = client.telemetry()
    assert telemetry["total"] == len(result.utilization)
    assert [s["time"] for s in telemetry["samples"]] == [
        u.time for u in result.utilization
    ]

    # audit: one plan entry per executed switch, ends with run_end
    plans = client.plans()
    assert len(plans) == len(result.switches)
    kinds = [entry["kind"] for entry in client.audit()]
    assert kinds[0] == "run_start"
    assert kinds[-1] == "run_end"

    # final configuration is observable
    configuration = client.configuration()["configuration"]
    assert configuration["viable"] is True

    # applied operator commands are reported
    assert "submit_vjob:extra" in client.commands()["applied"]


def test_second_run_is_409(client):
    client.start_run()
    client.wait(timeout=120.0)
    with pytest.raises(ServiceError) as excinfo:
        client.start_run()
    assert excinfo.value.status == 409


def test_campaign_over_http(client, tmp_path):
    store = tmp_path / "campaign.jsonl"
    launched = client.start_campaign(
        {
            "factory": "default",
            "policies": ["consolidation"],
            "fleet_sizes": [3],
            "seeds": [0],
            "executor": "serial",
            "store_path": str(store),
        }
    )
    status = client.wait_campaign(launched["id"], timeout=120.0)
    assert status["status"] == "completed"
    assert status["completed"] == status["total"] == 1
    assert len(status["aggregate"]) == 1
    # the store is resumable JSONL
    record = json.loads(store.read_text().splitlines()[0])
    assert record["policy"] == "consolidation"

    # relaunching against the same store resumes instead of re-running
    relaunched = client.start_campaign(
        {
            "factory": "default",
            "policies": ["consolidation"],
            "fleet_sizes": [3],
            "seeds": [0],
            "executor": "serial",
            "store_path": str(store),
        }
    )
    resumed = client.wait_campaign(relaunched["id"], timeout=60.0)
    assert resumed["status"] == "completed"
    assert resumed["resumed"] == 1


def test_unknown_campaign_factory_is_400(client):
    with pytest.raises(ServiceError) as excinfo:
        client.start_campaign(
            {"factory": "nope", "policies": ["consolidation"], "fleet_sizes": [2]}
        )
    assert excinfo.value.status == 400


def test_unknown_campaign_id_is_404(client):
    with pytest.raises(ServiceError) as excinfo:
        client.campaign("campaign-999")
    assert excinfo.value.status == 404
