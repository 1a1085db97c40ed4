"""JSON codecs: actions, plans, workloads, fault events."""

import json

import pytest

from repro.core.actions import (
    Migrate,
    Resume,
    Run,
    Stop,
    Suspend,
    UnknownActionKind,
    action_from_dict,
    action_to_dict,
)
from repro.service.serialize import (
    fault_event_from_dict,
    fault_event_to_dict,
    workload_from_dict,
    workload_to_dict,
)
from repro.sim.faults import FaultEvent, FaultKind
from repro.testing import make_workload


@pytest.mark.parametrize(
    "action",
    [
        Run(vm="a.vm0", node="node-0"),
        Stop(vm="a.vm0", node="node-0"),
        Suspend(vm="a.vm0", node="node-1"),
        Migrate(vm="a.vm0", source_node="node-0", destination_node="node-1"),
        Resume(vm="a.vm0", image_node="node-0", destination_node="node-2"),
    ],
)
def test_action_round_trip(action):
    assert action_from_dict(action_to_dict(action)) == action


def test_action_from_dict_rejects_unknown_kind():
    # a ValueError (the daemon's HTTP 400) the verifier can tell apart
    with pytest.raises(ValueError) as excinfo:
        action_from_dict({"kind": "teleport", "vm": "a.vm0"})
    assert isinstance(excinfo.value, UnknownActionKind)


def test_action_from_dict_reports_missing_fields():
    with pytest.raises(ValueError) as excinfo:
        action_from_dict({"kind": "migrate", "vm": "a.vm0", "source": "n0"})
    assert "destination" in str(excinfo.value)
    assert not isinstance(excinfo.value, UnknownActionKind)


def test_workload_full_form_round_trips():
    workload = make_workload("job-a", vm_count=3, duration=120.0, memory=1024)
    payload = json.loads(json.dumps(workload_to_dict(workload)))
    rebuilt = workload_from_dict(payload)
    assert rebuilt.vjob.name == "job-a"
    assert [vm.name for vm in rebuilt.vjob.vms] == [
        vm.name for vm in workload.vjob.vms
    ]
    assert workload_to_dict(rebuilt) == workload_to_dict(workload)


def test_workload_simple_spec_builds_constant_demand_vms():
    workload = workload_from_dict(
        {"name": "quick", "vm_count": 2, "memory": 256, "duration": 60.0, "cpu": 1}
    )
    assert [vm.name for vm in workload.vjob.vms] == ["quick.vm0", "quick.vm1"]
    trace = workload.traces["quick.vm0"]
    assert trace.total_duration == 60.0


def test_workload_simple_spec_validates():
    with pytest.raises(ValueError):
        workload_from_dict({"name": "bad", "vm_count": 0})
    with pytest.raises(ValueError):
        workload_from_dict({"name": "bad", "duration": -1.0})
    with pytest.raises(ValueError):
        workload_from_dict({"vm_count": 2})


def test_workload_full_form_validates_traces():
    workload = make_workload("job-a", vm_count=1)
    payload = workload_to_dict(workload)
    payload["traces"]["job-a.vm0"] = [[60.0]]  # not a pair
    with pytest.raises(ValueError):
        workload_from_dict(payload)


@pytest.mark.parametrize(
    "event",
    [
        FaultEvent(time=120.0, kind=FaultKind.NODE_CRASH, target="node-1"),
        FaultEvent(
            time=60.0,
            kind=FaultKind.NODE_SLOWDOWN,
            target="node-2",
            factor=3.0,
            duration=90.0,
        ),
        FaultEvent(time=0.0, kind=FaultKind.MIGRATION_FAILURE, target="a.vm0"),
    ],
)
def test_fault_event_round_trip(event):
    rebuilt = fault_event_from_dict(fault_event_to_dict(event))
    assert rebuilt.kind == event.kind
    assert rebuilt.target == event.target
    assert rebuilt.time == event.time


def test_fault_event_unknown_kind_lists_the_valid_ones():
    with pytest.raises(ValueError) as excinfo:
        fault_event_from_dict({"kind": "meteor", "target": "node-0"})
    assert "node_crash" in str(excinfo.value)
