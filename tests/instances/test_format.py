"""The versioned instance format: round trips, fingerprints, validation."""

from __future__ import annotations

import json
import math

import pytest

from repro.constraints import Ban, Fence, RunningCapacity, Spread
from repro.instances.format import (
    FORMAT_NAME,
    SCHEMA_VERSION,
    Instance,
    InstanceFormatError,
    canonical_json,
    constraint_from_dict,
    constraint_to_dict,
    fingerprint_of,
    instance_from_dict,
    instance_to_json,
    load_instance,
    save_instance,
)
from repro.model.node import make_working_nodes
from repro.model.vjob import VJob, VJobState
from repro.model.vm import VirtualMachine, VMState
from repro.sim.faults import FaultSchedule
from repro.workloads.traces import VJobWorkload, constant_trace


def make_instance(**overrides) -> Instance:
    vms = [
        VirtualMachine(name=f"job0.vm{i}", memory=512, cpu_demand=1, vjob="job0")
        for i in range(2)
    ]
    vjob = VJob(name="job0", vms=vms)
    workload = VJobWorkload(
        vjob=vjob, traces={vm.name: constant_trace(300.0) for vm in vms}
    )
    defaults = dict(
        name="unit",
        seed=7,
        nodes=tuple(make_working_nodes(3, cpu_capacity=2, memory_capacity=2048)),
        workloads=(workload,),
    )
    defaults.update(overrides)
    return Instance(**defaults)


class TestDocument:
    def test_document_carries_format_version_and_fingerprint(self):
        document = make_instance().document()
        assert document["format"] == FORMAT_NAME
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["fingerprint"].startswith("sha256:")
        assert document["fingerprint"] == fingerprint_of(document)

    def test_fingerprint_ignores_itself(self):
        instance = make_instance()
        document = instance.document()
        assert fingerprint_of(document) == fingerprint_of(instance.to_dict())

    def test_fingerprint_changes_with_content(self):
        a = make_instance()
        b = make_instance(seed=8)
        assert a.fingerprint != b.fingerprint

    def test_save_load_save_is_byte_stable(self, tmp_path):
        instance = make_instance(
            constraints=(Spread(["job0.vm0", "job0.vm1"]),),
            faults=FaultSchedule(seed=3).node_crash("node-1", at=100.0),
        )
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        fp1 = save_instance(instance, first)
        fp2 = save_instance(load_instance(first), second)
        assert fp1 == fp2
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_preserves_semantics(self, tmp_path):
        instance = make_instance(
            states={"job0.vm0": VMState.RUNNING, "job0.vm1": VMState.RUNNING},
            placement={"job0.vm0": "node-0", "job0.vm1": "node-1"},
        )
        path = tmp_path / "inst.json"
        save_instance(instance, path)
        loaded = load_instance(path)
        assert loaded.configuration() == instance.configuration()
        assert loaded.workloads[0].vjob.state is VJobState.RUNNING
        assert loaded.fingerprint == instance.fingerprint

    def test_indented_json_same_document(self):
        instance = make_instance()
        pretty = json.loads(instance_to_json(instance, indent=2))
        compact = json.loads(instance_to_json(instance))
        assert pretty == compact


class TestValidation:
    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InstanceFormatError) as excinfo:
            load_instance(path)
        assert excinfo.value.code == "malformed-json"

    def test_wrong_format_marker(self):
        with pytest.raises(InstanceFormatError) as excinfo:
            instance_from_dict({"format": "something-else"})
        assert excinfo.value.code == "not-an-instance"

    def test_schema_version_mismatch(self):
        document = make_instance().document()
        document["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(InstanceFormatError) as excinfo:
            instance_from_dict(document)
        assert excinfo.value.code == "schema-version-mismatch"

    def test_fingerprint_mismatch_detected(self, tmp_path):
        instance = make_instance()
        document = instance.document()
        document["seed"] = 999  # tamper after fingerprinting
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(document))
        with pytest.raises(InstanceFormatError) as excinfo:
            load_instance(path)
        assert excinfo.value.code == "fingerprint-mismatch"

    def test_unknown_vm_in_initial_state(self):
        with pytest.raises(InstanceFormatError):
            make_instance(states={"ghost": VMState.RUNNING})

    def test_unknown_node_in_placement(self):
        with pytest.raises(InstanceFormatError):
            make_instance(
                states={"job0.vm0": VMState.RUNNING},
                placement={"job0.vm0": "node-99"},
            )

    def test_vjob_with_mixed_vm_states_rejected(self):
        document = make_instance().document()
        document["initial"]["states"] = {"job0.vm0": "running"}
        document["initial"]["placement"] = {"job0.vm0": "node-0"}
        del document["fingerprint"]
        with pytest.raises(InstanceFormatError) as excinfo:
            instance_from_dict(document)
        assert "disagree" in str(excinfo.value)

    @pytest.mark.parametrize(
        "faults",
        [
            {"events": [{"time": math.nan, "kind": "node_crash", "target": "node-1"}]},
            {
                "events": [
                    {
                        "time": 10.0,
                        "kind": "node_slowdown",
                        "target": "node-1",
                        "factor": math.inf,
                        "duration": 60.0,
                    }
                ]
            },
            {"migration_failure_rate": 7.5},
            {"migration_failure_rate": -0.5},
        ],
        ids=["time-nan", "factor-inf", "rate-above-one", "rate-negative"],
    )
    def test_fault_value_out_of_range_is_invalid(self, faults):
        document = make_instance().to_dict()
        document["faults"] = faults
        with pytest.raises(InstanceFormatError) as excinfo:
            instance_from_dict(document)
        assert excinfo.value.code == "invalid-field"


class TestConstraintCodec:
    @pytest.mark.parametrize(
        "constraint",
        [
            Spread(["a", "b"], collocation_nodes=["node-0"]),
            Ban(["a"], ["node-0", "node-1"]),
            Fence(["a", "b"], ["node-0"], elastic=True),
            RunningCapacity(["node-0"], maximum=3),
        ],
        ids=lambda c: type(c).__name__,
    )
    def test_round_trip(self, constraint):
        encoded = constraint_to_dict(constraint)
        decoded = constraint_from_dict(encoded)
        assert type(decoded) is type(constraint)
        assert constraint_to_dict(decoded) == encoded

    def test_unknown_kind_rejected(self):
        with pytest.raises(InstanceFormatError) as excinfo:
            constraint_from_dict({"kind": "teleport", "vms": ["a"]})
        assert excinfo.value.code == "unknown-constraint"

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "gather", "vms": ["a", "b"]},
            {"kind": "among", "vms": ["a", "b"], "groups": [["node-0"], ["node-1"]]},
            {"kind": "root", "vms": ["a"]},
            {"kind": "max_online", "nodes": ["node-0", "node-1"], "maximum": 1},
            {"kind": "lonely", "vms": ["a", "b"]},
        ],
        ids=lambda payload: payload["kind"],
    )
    def test_removed_kind_is_rejected(self, payload):
        with pytest.raises(InstanceFormatError) as excinfo:
            constraint_from_dict(payload)
        assert excinfo.value.code == "unknown-constraint"

    def test_invalid_arguments_surface_as_invalid_field(self):
        with pytest.raises(InstanceFormatError) as excinfo:
            constraint_from_dict({"kind": "ban", "vms": ["a"], "nodes": []})
        assert excinfo.value.code == "invalid-field"

    @pytest.mark.parametrize(
        "payload",
        [
            # A bare string would split into one-letter names.
            {"kind": "spread", "vms": "db"},
            {"kind": "spread", "vms": ["a", "b"], "collocation_nodes": "node-0"},
            {"kind": "ban", "vms": ["a"], "nodes": "node-1"},
            {"kind": "fence", "vms": ["a"], "nodes": "node-1"},
            {"kind": "fence", "vms": [1, 2], "nodes": ["node-1"]},
            # "no" is a true string, not false.
            {"kind": "fence", "vms": ["a"], "nodes": ["node-1"], "elastic": "no"},
            {"kind": "fence", "vms": ["a"], "nodes": ["node-1"], "elastic": 0},
            {"kind": "running_capacity", "nodes": ["node-0"], "maximum": "3"},
            {"kind": "running_capacity", "nodes": ["node-0"], "maximum": 2.0},
            {"kind": "running_capacity", "nodes": ["node-0"], "maximum": True},
        ],
        ids=[
            "spread-vms-string",
            "spread-collocation-string",
            "ban-nodes-string",
            "fence-nodes-string",
            "fence-vms-numbers",
            "fence-elastic-string",
            "fence-elastic-zero",
            "capacity-maximum-string",
            "capacity-maximum-float",
            "capacity-maximum-bool",
        ],
    )
    def test_field_of_the_wrong_json_type_is_invalid(self, payload):
        document = make_instance().to_dict()
        document["constraints"] = [payload]
        with pytest.raises(InstanceFormatError) as excinfo:
            instance_from_dict(document)
        assert excinfo.value.code == "invalid-field"

    def test_sets_are_serialized_sorted(self):
        encoded = constraint_to_dict(Spread(["zeta", "alpha", "mid"]))
        assert encoded["vms"] == ["alpha", "mid", "zeta"]


class TestCanonicalJson:
    def test_key_order_is_canonical(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_configuration_is_deterministic(self):
        instance = make_instance(
            states={"job0.vm0": VMState.RUNNING, "job0.vm1": VMState.RUNNING},
            placement={"job0.vm1": "node-1", "job0.vm0": "node-0"},
        )
        first = instance.configuration()
        second = instance.configuration()
        assert first == second
        assert list(first.placement()) == list(second.placement())
