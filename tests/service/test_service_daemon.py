"""HTTP behaviour of the operator daemon (fast heuristic scenarios)."""

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
from repro.service import daemon as daemon_module
from repro.testing import make_workload


@pytest.fixture
def daemon():
    scenario = Scenario(
        nodes=make_working_nodes(4),
        workloads=[make_workload("base", vm_count=2, duration=120.0)],
        policy="ffd",
        optimizer_timeout=2.0,
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
        Scenario(nodes=make_working_nodes(2), workloads=[], policy="ffd")
    )
    with pytest.raises(Exception) as excinfo:
        daemon.handle_post("/vjobs", payload)
    assert excinfo.value.status == 400
    assert "missing required field 'name'" in excinfo.value.message


@pytest.mark.parametrize(
    "path, body",
    [
        ("/faults", b'{"kind": "node_crash", "target": "node-0", "at": NaN}'),
        ("/faults", b'{"kind": "node_crash", "target": "node-0", "at": Infinity}'),
        ("/vjobs", b'{"name": "x", "duration": NaN}'),
        ("/vjobs", b'{"name": "x", "duration": Infinity}'),
    ],
    ids=["fault-at-nan", "fault-at-infinity", "vjob-duration-nan", "vjob-duration-infinity"],
)
def test_a_non_finite_number_literal_is_400(daemon, path, body):
    # Python's decoder accepts these literals; the daemon must not, or the
    # value resurfaces as a bare NaN in a /result body that is not JSON.
    request = urllib.request.Request(
        daemon.url + path,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10.0)
    assert excinfo.value.code == 400
    assert "not a JSON number" in excinfo.value.read().decode()


def test_a_non_finite_fault_time_is_400_without_json():
    # A caller that hands the handler a decoded float still gets a 400.
    with pytest.raises(Exception) as excinfo:
        _idle_daemon().handle_post(
            "/faults", {"kind": "node_crash", "target": "node-0", "at": float("nan")}
        )
    assert excinfo.value.status == 400
    assert "must be finite" in excinfo.value.message


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
    assert "base" in result.completion_times
    assert "extra" in result.completion_times

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


def test_unknown_campaign_id_is_404(client):
    # one run per daemon: there are no campaign endpoints
    for method, path in (
        ("GET", "/campaigns"),
        ("GET", "/campaigns/x"),
        ("POST", "/campaigns"),
    ):
        with pytest.raises(ServiceError) as excinfo:
            client._request(method, path, payload={} if method == "POST" else None)
        assert excinfo.value.status == 404, (method, path)


@pytest.mark.parametrize(
    "path, query",
    [
        ("/audit", {"offset": ["-1"]}),
        ("/audit", {"limit": ["-1"]}),
        ("/trace", {"limit": ["-2"]}),
        ("/telemetry", {"limit": ["-1"]}),
        ("/audit", {"limit": ["two"]}),
        ("/audit", {"offset": ["x"]}),
        ("/trace", {"limit": ["1.5"]}),
        ("/telemetry", {"limit": ["+3"]}),
        ("/audit", {"offset": ["-0"]}),
    ],
)
def test_a_negative_or_non_integer_query_parameter_is_400(path, query):
    # Straight through the handler: a negative slice bound would read the
    # log from its end.
    daemon = _idle_daemon()
    with pytest.raises(Exception) as excinfo:
        daemon.handle_get(path, query)
    assert excinfo.value.status == 400
    assert "non-negative integer" in excinfo.value.message


def _idle_daemon(**options) -> OperatorDaemon:
    """A daemon that is never started: requests go straight to its handler."""
    return OperatorDaemon(
        Scenario(nodes=make_working_nodes(2), workloads=[], policy="ffd"),
        **options,
    )


def test_audit_pages_from_the_start_of_the_log():
    daemon = _idle_daemon()
    audit = daemon.observer.audit
    audit.append("run_start", 0.0)
    for index in range(4):
        audit.append("plan", 30.0 * index, plan={"action_count": index})
    audit.append("run_end", 120.0)

    def seqs(**query):
        status, body = daemon.handle_get(
            "/audit", {key: [value] for key, value in query.items()}
        )
        assert status == 200
        assert body["total"] == 6  # the whole log, whatever the page
        return [entry["seq"] for entry in body["entries"]]

    assert seqs() == [0, 1, 2, 3, 4, 5]
    assert seqs(offset="1", limit="2") == [1, 2]
    assert seqs(limit="0") == []
    assert seqs(offset="9") == []
    # the kind filter applies before the page
    assert seqs(kind="plan", offset="3") == [4]
    assert seqs(kind="run_end") == [5]


@pytest.mark.parametrize("path", ["/campaigns", "/healthz", "/nope"])
def test_a_post_to_an_unknown_path_is_404(path):
    with pytest.raises(Exception) as excinfo:
        _idle_daemon().handle_post(path, {})
    assert excinfo.value.status == 404
    assert path in excinfo.value.message


@pytest.mark.parametrize("path", ["/run", "/vjobs", "/faults"])
def test_a_get_on_a_write_endpoint_is_404(path):
    daemon = _idle_daemon()
    with pytest.raises(Exception) as excinfo:
        daemon.handle_get(path, {})
    assert excinfo.value.status == 404
    # and it did not start anything
    assert daemon.state == "idle"


def test_a_non_object_fault_payload_is_400():
    with pytest.raises(Exception) as excinfo:
        _idle_daemon().handle_post("/faults", ["node_crash", "node-0"])
    assert excinfo.value.status == 400
    assert excinfo.value.message == "the fault payload must be a JSON object"


def test_commands_posted_before_the_run_wait_in_the_queue():
    daemon = _idle_daemon()
    status, body = daemon.handle_post(
        "/vjobs", {"name": "late", "vm_count": 1, "duration": 30.0}
    )
    assert (status, body) == (202, {"queued": "late", "pending_commands": 1})
    daemon.handle_post(
        "/faults", {"kind": "node_crash", "target": "node-0", "at": 60.0}
    )
    assert daemon.handle_get("/healthz", {})[1]["pending_commands"] == 2
    commands = daemon.handle_get("/commands", {})[1]
    assert commands == {"pending": 2, "applied": [], "errors": []}


def test_an_idle_daemon_has_no_result_and_no_run_trace():
    daemon = _idle_daemon()
    with pytest.raises(Exception) as excinfo:
        daemon.handle_get("/result", {})
    assert excinfo.value.status == 404
    assert excinfo.value.message == "no result yet (state: idle)"
    assert daemon.handle_get("/trace", {})[1] == {
        "state": "idle",
        "trace": None,
        "requests": [],
    }
    assert daemon.handle_get("/plans", {})[1] == {"plans": [], "count": 0}


def test_the_request_span_buffer_keeps_the_newest():
    daemon = _idle_daemon()
    capacity = daemon_module.REQUEST_TRACE_CAPACITY
    for index in range(capacity + 3):
        daemon.request_spans.append({"name": "request", "index": index})
    spans = daemon.handle_get("/trace", {})[1]["requests"]
    assert [span["index"] for span in spans] == list(range(3, capacity + 3))
    # a limit above what is kept returns what is kept
    spans = daemon.handle_get("/trace", {"limit": [str(capacity + 10)]})[1]["requests"]
    assert len(spans) == capacity


def test_trace_limit_zero_returns_no_request_spans():
    daemon = _idle_daemon()
    for index in range(3):
        daemon.request_spans.append({"name": "request", "index": index})
    assert daemon.handle_get("/trace", {"limit": ["0"]})[1]["requests"] == []
    assert daemon.handle_get("/telemetry", {"limit": ["0"]})[1]["samples"] == []
    spans = daemon.handle_get("/trace", {"limit": ["2"]})[1]["requests"]
    assert [span["index"] for span in spans] == [1, 2]
