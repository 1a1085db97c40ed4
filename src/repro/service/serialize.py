"""JSON codecs shared by the operator daemon, its client and the audit log.

Everything the service moves over HTTP — workloads, fault events, executed
plans, configurations — is serialized here, in one place, so the daemon, the
:mod:`repro.service.client` helpers and the audit replay loader cannot drift
apart.  All codecs are pure functions over plain ``dict``/``list`` values
(``json``-ready); the ``*_from_dict`` direction validates its input and
raises :class:`ValueError` with an operator-readable message on bad payloads,
which the daemon maps to HTTP 400.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.actions import action_to_dict, require_field
from ..core.plan import ReconfigurationPlan
from ..model.configuration import Configuration
from ..model.vjob import VJob
from ..model.vm import VirtualMachine, VMState
from ..sim.faults import FaultEvent, FaultKind
from ..workloads.traces import DemandTrace, Phase, VJobWorkload

__all__ = [
    "plan_to_dict",
    "configuration_to_dict",
    "workload_to_dict",
    "workload_from_dict",
    "fault_event_to_dict",
    "fault_event_from_dict",
]


# --------------------------------------------------------------------- #
# plans (the audit log's canonical plan serialization)                   #
# --------------------------------------------------------------------- #


def plan_to_dict(plan: ReconfigurationPlan) -> dict[str, Any]:
    """The canonical serialization of an executed reconfiguration plan:
    ordered pools of parallel actions.  The audit log stores exactly this
    shape and the replay loader reproduces it byte-for-byte (under
    ``json.dumps(..., sort_keys=True)``)."""
    return {
        "pools": [
            [action_to_dict(action) for action in pool] for pool in plan.pools
        ],
        "action_count": plan.action_count(),
    }


# --------------------------------------------------------------------- #
# configurations                                                         #
# --------------------------------------------------------------------- #


def capture_configuration(configuration: Configuration) -> "ConfigurationSnapshot":
    """Capture an immutable snapshot of a live configuration — a few dict
    copies and tuples of frozen dataclasses, cheap enough for every
    control-loop round (``placement()`` and ``states()`` already hand out
    fresh copies).  JSON rendering is deferred to
    :meth:`ConfigurationSnapshot.to_dict` (paid only when an operator
    actually requests ``GET /configuration``)."""
    return ConfigurationSnapshot(
        nodes=configuration.nodes,
        vms=configuration.vms,
        placement=configuration.placement(),
        states=configuration.states(),
        viable=configuration.is_viable(),
    )


class ConfigurationSnapshot:
    """Frozen view of a configuration at one iteration boundary."""

    __slots__ = ("nodes", "vms", "placement", "states", "viable")

    def __init__(
        self,
        nodes: Any,
        vms: Any,
        placement: dict[str, str],
        states: dict[str, VMState],
        viable: bool,
    ) -> None:
        self.nodes = nodes
        self.vms = vms
        self.placement = placement
        self.states = states
        self.viable = viable

    def to_dict(self) -> dict[str, Any]:
        """The JSON shape served by ``GET /configuration``: fleet, per-VM
        state/placement, viability."""
        return {
            "nodes": [
                {
                    "name": node.name,
                    "cpu_capacity": node.cpu_capacity,
                    "memory_capacity": node.memory_capacity,
                    "role": node.role.value,
                }
                for node in self.nodes
            ],
            "vms": {
                vm.name: {
                    "memory": vm.memory,
                    "cpu_demand": vm.cpu_demand,
                    "vjob": vm.vjob,
                    "state": self.states[vm.name].value,
                    "node": self.placement.get(vm.name),
                }
                for vm in self.vms
            },
            "placement": dict(self.placement),
            "viable": self.viable,
        }


def configuration_to_dict(configuration: Configuration) -> dict[str, Any]:
    """Snapshot of a configuration: fleet, per-VM state/placement, viability."""
    return capture_configuration(configuration).to_dict()


# --------------------------------------------------------------------- #
# workloads                                                              #
# --------------------------------------------------------------------- #


def workload_to_dict(workload: VJobWorkload) -> dict[str, Any]:
    """Full-fidelity serialization of a vjob workload (VMs + demand traces),
    so churn-generated workloads submit over HTTP unchanged."""
    vjob = workload.vjob
    return {
        "vjob": {
            "name": vjob.name,
            "priority": vjob.priority,
            "submitted_at": vjob.submitted_at,
            "vms": [
                {
                    "name": vm.name,
                    "memory": vm.memory,
                    "cpu_demand": vm.cpu_demand,
                    "vjob": vm.vjob,
                }
                for vm in vjob.vms
            ],
        },
        "traces": {
            name: [[phase.duration, phase.cpu_demand] for phase in trace.phases]
            for name, trace in workload.traces.items()
        },
    }


def _trace_from_segments(segments: Any, context: str) -> DemandTrace:
    if not isinstance(segments, (list, tuple)) or not segments:
        raise ValueError(f"{context}: a trace needs a non-empty segment list")
    phases = []
    for segment in segments:
        if not isinstance(segment, (list, tuple)) or len(segment) != 2:
            raise ValueError(
                f"{context}: each trace segment is a [duration, cpu_demand] "
                f"pair, got {segment!r}"
            )
        duration, demand = segment
        phases.append(Phase(duration=float(duration), cpu_demand=int(demand)))
    return DemandTrace(phases)


def workload_from_dict(payload: Mapping[str, Any]) -> VJobWorkload:
    """Inverse of :func:`workload_to_dict`.

    Two spellings are accepted:

    * the full form — ``{"vjob": {...}, "traces": {...}}`` as produced by
      :func:`workload_to_dict`;
    * a simple spec — ``{"name": ..., "vm_count": 2, "memory": 512,
      "duration": 120.0, "cpu": 1, "priority": 0, "submitted_at": 0.0}``
      building ``vm_count`` identical constant-demand VMs (the
      :func:`repro.testing.make_workload` shape, for curl-friendly use).
    """
    if "vjob" in payload:
        vjob_spec = payload["vjob"]
        name = require_field(vjob_spec, "name", "workload.vjob")
        vms = []
        for vm_spec in require_field(vjob_spec, "vms", "workload.vjob"):
            vms.append(
                VirtualMachine(
                    name=require_field(vm_spec, "name", "workload VM"),
                    memory=int(require_field(vm_spec, "memory", "workload VM")),
                    cpu_demand=int(vm_spec.get("cpu_demand", 0)),
                    vjob=vm_spec.get("vjob", name),
                )
            )
        vjob = VJob(
            name=name,
            vms=vms,
            priority=int(vjob_spec.get("priority", 0)),
            submitted_at=float(vjob_spec.get("submitted_at", 0.0)),
        )
        traces_spec = require_field(payload, "traces", "workload")
        traces = {
            vm_name: _trace_from_segments(segments, f"trace of {vm_name!r}")
            for vm_name, segments in traces_spec.items()
        }
        return VJobWorkload(vjob=vjob, traces=traces)

    name = require_field(payload, "name", "vjob spec")
    vm_count = int(payload.get("vm_count", 2))
    memory = int(payload.get("memory", 512))
    cpu = int(payload.get("cpu", 1))
    duration = float(payload.get("duration", 120.0))
    if vm_count <= 0:
        raise ValueError(f"vjob spec {name!r}: vm_count must be positive")
    if duration <= 0:
        raise ValueError(f"vjob spec {name!r}: duration must be positive")
    vms = [
        VirtualMachine(
            name=f"{name}.vm{i}", memory=memory, cpu_demand=cpu, vjob=name
        )
        for i in range(vm_count)
    ]
    vjob = VJob(
        name=name,
        vms=vms,
        priority=int(payload.get("priority", 0)),
        submitted_at=float(payload.get("submitted_at", 0.0)),
    )
    trace = DemandTrace([Phase(duration=duration, cpu_demand=cpu)])
    return VJobWorkload(vjob=vjob, traces={vm.name: trace for vm in vms})


# --------------------------------------------------------------------- #
# fault events                                                           #
# --------------------------------------------------------------------- #


def fault_event_to_dict(event: FaultEvent) -> dict[str, Any]:
    data: dict[str, Any] = {
        "kind": event.kind.value,
        "target": event.target,
        "at": event.time,
    }
    if event.kind is FaultKind.NODE_SLOWDOWN:
        data["factor"] = event.factor
        data["duration"] = event.duration
    return data


def fault_event_from_dict(payload: Mapping[str, Any]) -> FaultEvent:
    """Build a :class:`~repro.sim.faults.FaultEvent` from its JSON form:
    ``{"kind": "node_crash", "target": "node-1", "at": 120.0}`` plus
    ``factor``/``duration`` for slowdowns."""
    kind_value = require_field(payload, "kind", "fault")
    try:
        kind = FaultKind(kind_value)
    except ValueError:
        valid = ", ".join(sorted(k.value for k in FaultKind))
        raise ValueError(
            f"fault: unknown kind {kind_value!r} (expected one of: {valid})"
        ) from None
    target = require_field(payload, "target", "fault")
    at = float(payload.get("at", payload.get("time", 0.0)))
    factor = float(payload.get("factor", 2.0 if kind is FaultKind.NODE_SLOWDOWN else 1.0))
    duration = float(payload.get("duration", 0.0))
    return FaultEvent(
        time=at, kind=kind, target=target, factor=factor, duration=duration
    )
