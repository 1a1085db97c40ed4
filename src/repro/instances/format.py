"""The versioned problem-instance format.

An *instance* is everything a solver needs to reproduce one experiment —
fleet, vjobs (with their demand traces), initial VM states and placement,
placement constraints, fault schedule and seed — serialized to a single
canonical JSON document.  The document carries a ``schema_version`` and a
content ``fingerprint`` (SHA-256 over the canonical serialization), so a
scoreboard entry can prove which exact problem it was scored against and CI
can detect silent drift of a committed pack.

Canonical form: ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
over :meth:`Instance.to_dict`.  Saving, loading and saving again is
byte-identical (the property suite holds this), because every unordered
collection — constraint VM sets and node sets — is serialized
sorted, and because :func:`save_instance` always emits the canonical bytes.

The module deliberately imports only the model, the constraint catalog, the
fault schedule and the trace types: loading an instance never touches the CP
solver or the optimizer, which is what keeps the standalone verifier
(:mod:`repro.instances.verifier`) method-independent.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from ..constraints import Ban, Fence, PlacementConstraint, RunningCapacity, Spread
from ..model.configuration import Configuration
from ..model.node import Node, NodeRole
from ..model.queue import VJobQueue
from ..model.vjob import VJob
from ..model.vm import VirtualMachine, VMState
from ..sim.faults import FaultEvent, FaultKind, FaultSchedule
from ..workloads.traces import DemandTrace, Phase, VJobWorkload

#: Document marker: every instance file starts with ``"format": FORMAT_NAME``.
FORMAT_NAME = "repro-instance"
#: Current schema version; :func:`instance_from_dict` refuses any other.
SCHEMA_VERSION = 1


class InstanceFormatError(ValueError):
    """A document that is not a valid instance of the current schema.

    ``code`` is a stable machine-readable identifier (the CLI surfaces it in
    its structured error report): ``not-an-instance``,
    ``schema-version-mismatch``, ``invalid-field``, ``unknown-constraint``,
    ``fingerprint-mismatch``.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _require(payload: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in payload:
        raise InstanceFormatError(
            "invalid-field", f"{context}: missing required field {key!r}"
        )
    return payload[key]


# --------------------------------------------------------------------- #
# the instance                                                           #
# --------------------------------------------------------------------- #


@dataclass
class Instance:
    """One versioned, self-contained problem instance.

    ``states``, ``placement`` and ``images`` describe the *initial* VM
    states: ``states`` only lists VMs that do not start Waiting,
    ``placement`` maps every initially-running VM to its host and ``images``
    maps every initially-sleeping VM to the node holding its suspend image.
    An all-waiting instance (the shipped pack) leaves all three empty —
    exactly the shape the control loop requires to run the instance as a
    scenario.
    """

    name: str
    seed: int
    nodes: tuple[Node, ...]
    workloads: tuple[VJobWorkload, ...]
    constraints: tuple[PlacementConstraint, ...] = ()
    faults: Optional[FaultSchedule] = None
    states: Mapping[str, VMState] = field(default_factory=dict)
    placement: Mapping[str, str] = field(default_factory=dict)
    images: Mapping[str, str] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        self.nodes = tuple(self.nodes)
        self.workloads = tuple(self.workloads)
        self.constraints = tuple(self.constraints)
        known_vms = {
            vm.name for w in self.workloads for vm in w.vjob.vms
        }
        known_nodes = {node.name for node in self.nodes}
        for vm_name in {*self.states, *self.placement, *self.images}:
            if vm_name not in known_vms:
                raise InstanceFormatError(
                    "invalid-field",
                    f"instance {self.name!r}: initial state names unknown "
                    f"VM {vm_name!r}",
                )
        for vm_name, node_name in {**self.placement, **self.images}.items():
            if node_name not in known_nodes:
                raise InstanceFormatError(
                    "invalid-field",
                    f"instance {self.name!r}: VM {vm_name!r} is mapped to "
                    f"unknown node {node_name!r}",
                )

    # -- derived views --------------------------------------------------- #

    @property
    def vm_count(self) -> int:
        return sum(len(w.vjob.vms) for w in self.workloads)

    def state_of(self, vm_name: str) -> VMState:
        return self.states.get(vm_name, VMState.WAITING)

    def configuration(self) -> Configuration:
        """A fresh :class:`~repro.model.configuration.Configuration` of the
        instance's initial state.  VMs are applied in sorted-name order so
        the built configuration is identical no matter how the instance was
        produced (authored, generated or loaded)."""
        configuration = Configuration(nodes=self.nodes)
        for workload in self.workloads:
            for vm in workload.vjob.vms:
                configuration.add_vm(vm)
        for vm_name in sorted(
            vm.name for w in self.workloads for vm in w.vjob.vms
        ):
            state = self.state_of(vm_name)
            if state is VMState.RUNNING:
                configuration.set_running(vm_name, self.placement[vm_name])
            elif state is VMState.SLEEPING:
                configuration.set_sleeping(
                    vm_name, self.images.get(vm_name)
                )
            elif state is VMState.TERMINATED:
                configuration.set_terminated(vm_name)
        return configuration

    def queue(self) -> VJobQueue:
        """A fresh submission queue over the instance's vjobs."""
        queue = VJobQueue()
        for workload in self.workloads:
            queue.submit(workload.vjob)
        return queue

    def fresh_workloads(self) -> list[VJobWorkload]:
        """Deep, independent copies of the workloads.

        A control-loop run mutates vjob state, so every
        :meth:`scenario` build hands out fresh objects and the instance
        itself stays pristine.
        """
        return [_workload_from_dict(_workload_to_dict(w)) for w in self.workloads]

    def scenario(self, **options: Any) -> Any:
        """Build a runnable :class:`~repro.api.scenario.Scenario` over this
        instance (fresh workloads, the instance's faults and constraints).

        The import is deferred on purpose: the scenario facade pulls the
        control loop and the optimizer, which the verifier path must never
        load.  Keyword ``options`` are forwarded to ``Scenario``.
        """
        from ..api.scenario import Scenario  # deferred: optimizer-heavy

        if any(self.state_of(vm) is not VMState.WAITING
               for w in self.workloads for vm in (v.name for v in w.vjob.vms)):
            raise InstanceFormatError(
                "invalid-field",
                f"instance {self.name!r} has non-waiting initial VM states "
                "and cannot run as a scenario (the control loop starts from "
                "an all-waiting queue); use the verifier instead",
            )
        options.setdefault("faults", self.faults)
        options.setdefault("constraints", self.constraints)
        return Scenario(
            nodes=list(self.nodes),
            workloads=self.fresh_workloads(),
            **options,
        )

    # -- serialization ---------------------------------------------------- #

    def to_dict(self) -> dict[str, Any]:
        """The JSON-safe document *without* its fingerprint (the fingerprint
        is computed over exactly this shape)."""
        return {
            "format": FORMAT_NAME,
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "nodes": [_node_to_dict(node) for node in self.nodes],
            "vjobs": [_workload_to_dict(w) for w in self.workloads],
            "initial": {
                "states": {
                    vm: state.value
                    for vm, state in sorted(self.states.items())
                    if state is not VMState.WAITING
                },
                "placement": dict(sorted(self.placement.items())),
                "images": dict(sorted(self.images.items())),
            },
            "constraints": [
                constraint_to_dict(c) for c in self.constraints
            ],
            "faults": _faults_to_dict(self.faults),
        }

    @property
    def fingerprint(self) -> str:
        return fingerprint_of(self.to_dict())

    def document(self) -> dict[str, Any]:
        """The full document including the content fingerprint."""
        data = self.to_dict()
        data["fingerprint"] = fingerprint_of(data)
        return data


# --------------------------------------------------------------------- #
# canonical JSON + fingerprint                                           #
# --------------------------------------------------------------------- #


def canonical_json(data: Mapping[str, Any]) -> str:
    """The canonical serialization fingerprints are computed over."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def fingerprint_of(data: Mapping[str, Any]) -> str:
    """``sha256:<hex>`` over the canonical JSON of ``data`` (any
    ``fingerprint`` field is excluded first, so fingerprinting is
    idempotent)."""
    body = {k: v for k, v in data.items() if k != "fingerprint"}
    digest = hashlib.sha256(canonical_json(body).encode("ascii")).hexdigest()
    return f"sha256:{digest}"


# --------------------------------------------------------------------- #
# component codecs                                                       #
# --------------------------------------------------------------------- #


def _node_to_dict(node: Node) -> dict[str, Any]:
    return {
        "name": node.name,
        "cpu_capacity": node.cpu_capacity,
        "memory_capacity": node.memory_capacity,
        "role": node.role.value,
    }


def _node_from_dict(payload: Mapping[str, Any]) -> Node:
    try:
        role = NodeRole(payload.get("role", NodeRole.WORKING.value))
    except ValueError:
        raise InstanceFormatError(
            "invalid-field", f"node: unknown role {payload.get('role')!r}"
        ) from None
    return Node(
        name=_require(payload, "name", "node"),
        cpu_capacity=int(_require(payload, "cpu_capacity", "node")),
        memory_capacity=int(_require(payload, "memory_capacity", "node")),
        role=role,
    )


def _workload_to_dict(workload: VJobWorkload) -> dict[str, Any]:
    vjob = workload.vjob
    return {
        "name": vjob.name,
        "priority": vjob.priority,
        "submitted_at": vjob.submitted_at,
        "vms": [
            {
                "name": vm.name,
                "memory": vm.memory,
                "cpu_demand": vm.cpu_demand,
            }
            for vm in vjob.vms
        ],
        "traces": {
            name: [[phase.duration, phase.cpu_demand] for phase in trace.phases]
            for name, trace in sorted(workload.traces.items())
        },
    }


def _workload_from_dict(payload: Mapping[str, Any]) -> VJobWorkload:
    name = _require(payload, "name", "vjob")
    vms = []
    for vm_spec in _require(payload, "vms", f"vjob {name!r}"):
        vms.append(
            VirtualMachine(
                name=_require(vm_spec, "name", f"vjob {name!r} VM"),
                memory=int(_require(vm_spec, "memory", f"vjob {name!r} VM")),
                cpu_demand=int(vm_spec.get("cpu_demand", 0)),
                vjob=name,
            )
        )
    vjob = VJob(
        name=name,
        vms=vms,
        priority=int(payload.get("priority", 0)),
        submitted_at=float(payload.get("submitted_at", 0.0)),
    )
    traces: dict[str, DemandTrace] = {}
    for vm_name, segments in _require(payload, "traces", f"vjob {name!r}").items():
        phases = []
        for segment in segments:
            if not isinstance(segment, (list, tuple)) or len(segment) != 2:
                raise InstanceFormatError(
                    "invalid-field",
                    f"vjob {name!r}: trace segments are "
                    f"[duration, cpu_demand] pairs, got {segment!r}",
                )
            phases.append(
                Phase(duration=float(segment[0]), cpu_demand=int(segment[1]))
            )
        traces[vm_name] = DemandTrace(phases)
    try:
        return VJobWorkload(vjob=vjob, traces=traces)
    except ValueError as exc:
        raise InstanceFormatError("invalid-field", f"vjob {name!r}: {exc}") from None


def constraint_to_dict(constraint: PlacementConstraint) -> dict[str, Any]:
    """One catalog constraint as a JSON-safe dict (``kind`` + its sets,
    every set sorted: the sorted-list encoding is what makes round trips
    byte-stable despite the frozensets underneath)."""
    if isinstance(constraint, Spread):
        return {
            "kind": "spread",
            "vms": sorted(constraint.vm_set),
            "collocation_nodes": sorted(constraint.collocation_nodes),
        }
    if isinstance(constraint, Ban):
        return {
            "kind": "ban",
            "vms": sorted(constraint.vm_set),
            "nodes": sorted(constraint.nodes),
        }
    if isinstance(constraint, Fence):
        return {
            "kind": "fence",
            "vms": sorted(constraint.vm_set),
            "nodes": sorted(constraint.nodes),
            "elastic": constraint.elastic,
        }
    if isinstance(constraint, RunningCapacity):
        return {
            "kind": "running_capacity",
            "nodes": sorted(constraint.nodes),
            "maximum": constraint.maximum,
        }
    raise InstanceFormatError(
        "unknown-constraint",
        f"constraint {type(constraint).__name__!r} has no instance encoding",
    )


def _is_names(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(n, str) for n in value)


#: The JSON type each constraint field must hold.  The constructors take any
#: iterable, so a bare string would split into one-letter names, and
#: ``bool("no")`` is true.  ``bool`` is an ``int`` subclass, so an integer
#: field refuses ``true`` explicitly.
_FIELD_TYPES = {
    "vms": ("an array of strings", _is_names),
    "nodes": ("an array of strings", _is_names),
    "collocation_nodes": ("an array of strings", _is_names),
    "elastic": ("a boolean", lambda value: isinstance(value, bool)),
    "maximum": (
        "an integer",
        lambda value: isinstance(value, int) and not isinstance(value, bool),
    ),
}


def _field(
    payload: Mapping[str, Any], key: str, kind: str, default: Any = None
) -> Any:
    """``payload[key]`` checked against :data:`_FIELD_TYPES`; required unless
    a ``default`` is given."""
    if default is None:
        value = _require(payload, key, kind)
    else:
        value = payload.get(key, default)
    expected, accepts = _FIELD_TYPES[key]
    if not accepts(value):
        raise InstanceFormatError(
            "invalid-field",
            f"constraint {kind!r}: {key!r} must be {expected}, got {value!r}",
        )
    return value


def constraint_from_dict(payload: Mapping[str, Any]) -> PlacementConstraint:
    """Inverse of :func:`constraint_to_dict`; raises
    :class:`InstanceFormatError` (code ``unknown-constraint``) on an
    unrecognized ``kind`` and ``invalid-field`` on a field of the wrong
    JSON type."""
    kind = _require(payload, "kind", "constraint")
    try:
        if kind == "spread":
            return Spread(
                _field(payload, "vms", kind),
                collocation_nodes=_field(payload, "collocation_nodes", kind, []),
            )
        if kind == "ban":
            return Ban(_field(payload, "vms", kind), _field(payload, "nodes", kind))
        if kind == "fence":
            return Fence(
                _field(payload, "vms", kind),
                _field(payload, "nodes", kind),
                elastic=_field(payload, "elastic", kind, False),
            )
        if kind == "running_capacity":
            return RunningCapacity(
                _field(payload, "nodes", kind), _field(payload, "maximum", kind)
            )
    except InstanceFormatError:
        raise
    except ValueError as exc:
        raise InstanceFormatError(
            "invalid-field", f"constraint {kind!r}: {exc}"
        ) from None
    raise InstanceFormatError(
        "unknown-constraint", f"constraint: unknown kind {kind!r}"
    )


def _faults_to_dict(schedule: Optional[FaultSchedule]) -> Optional[dict[str, Any]]:
    if schedule is None:
        return None
    events = []
    for event in schedule.events:
        data: dict[str, Any] = {
            "time": event.time,
            "kind": event.kind.value,
            "target": event.target,
        }
        if event.kind is FaultKind.NODE_SLOWDOWN:
            data["factor"] = event.factor
            data["duration"] = event.duration
        events.append(data)
    return {
        "seed": schedule.seed,
        "migration_failure_rate": schedule.migration_failure_rate,
        "events": events,
    }


def _faults_from_dict(
    payload: Optional[Mapping[str, Any]],
) -> Optional[FaultSchedule]:
    if payload is None:
        return None
    events = []
    for spec in payload.get("events", ()):
        kind_value = _require(spec, "kind", "fault event")
        try:
            kind = FaultKind(kind_value)
        except ValueError:
            raise InstanceFormatError(
                "invalid-field", f"fault event: unknown kind {kind_value!r}"
            ) from None
        events.append(
            FaultEvent(
                time=float(_require(spec, "time", "fault event")),
                kind=kind,
                target=_require(spec, "target", "fault event"),
                factor=float(spec.get("factor", 1.0)),
                duration=float(spec.get("duration", 0.0)),
            )
        )
    return FaultSchedule(
        events=events,
        migration_failure_rate=float(payload.get("migration_failure_rate", 0.0)),
        seed=int(payload.get("seed", 0)),
    )


# --------------------------------------------------------------------- #
# the document codec                                                     #
# --------------------------------------------------------------------- #


def instance_from_dict(payload: Mapping[str, Any]) -> Instance:
    """Build an :class:`Instance` from its document form.

    Validates the format marker and the schema version first (codes
    ``not-an-instance`` / ``schema-version-mismatch``), then every
    component; a present ``fingerprint`` field is *not* checked here —
    :func:`load_instance` owns that policy.
    """
    if not isinstance(payload, Mapping) or payload.get("format") != FORMAT_NAME:
        raise InstanceFormatError(
            "not-an-instance",
            f"document is not a {FORMAT_NAME!r} instance "
            f"(format={payload.get('format')!r})"
            if isinstance(payload, Mapping)
            else "document is not a JSON object",
        )
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InstanceFormatError(
            "schema-version-mismatch",
            f"instance schema version {version!r} is not supported "
            f"(expected {SCHEMA_VERSION})",
        )
    workloads = [
        _workload_from_dict(spec)
        for spec in _require(payload, "vjobs", "instance")
    ]
    initial = payload.get("initial", {})
    states = {}
    for vm_name, value in initial.get("states", {}).items():
        try:
            states[vm_name] = VMState(value)
        except ValueError:
            raise InstanceFormatError(
                "invalid-field",
                f"initial state of {vm_name!r}: unknown state {value!r}",
            ) from None
    _align_vjob_states(workloads, states)
    try:
        return Instance(
            name=_require(payload, "name", "instance"),
            description=payload.get("description", ""),
            seed=int(_require(payload, "seed", "instance")),
            nodes=tuple(
                _node_from_dict(spec)
                for spec in _require(payload, "nodes", "instance")
            ),
            workloads=tuple(workloads),
            constraints=tuple(
                constraint_from_dict(spec)
                for spec in payload.get("constraints", ())
            ),
            faults=_faults_from_dict(payload.get("faults")),
            states=states,
            placement=dict(initial.get("placement", {})),
            images=dict(initial.get("images", {})),
        )
    except InstanceFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError("invalid-field", f"instance: {exc}") from None


def _align_vjob_states(
    workloads: Sequence[VJobWorkload], states: Mapping[str, VMState]
) -> None:
    """Walk each vjob's life cycle to match its VMs' initial states (all the
    VMs of a vjob share a state — the Section 4.1 consistency requirement)."""
    for workload in workloads:
        vm_states = {states.get(vm, VMState.WAITING) for vm in workload.vjob.vm_names}
        if len(vm_states) > 1:
            raise InstanceFormatError(
                "invalid-field",
                f"vjob {workload.vjob.name!r}: its VMs disagree on the "
                f"initial state ({sorted(s.value for s in vm_states)}); "
                "vjob consistency requires one state per vjob",
            )
        state = vm_states.pop()
        if state is VMState.RUNNING:
            workload.vjob.run()
        elif state is VMState.SLEEPING:
            workload.vjob.run()
            workload.vjob.suspend()
        elif state is VMState.TERMINATED:
            workload.vjob.terminate()


def instance_to_json(instance: Instance, indent: Optional[int] = None) -> str:
    """The instance document (fingerprint included) as a JSON string.

    ``indent=None`` gives the canonical compact bytes that
    :func:`save_instance` writes; any indentation keeps ``sort_keys`` so the
    output is still deterministic.
    """
    document = instance.document()
    if indent is None:
        return canonical_json(document)
    return json.dumps(document, sort_keys=True, indent=indent)


def save_instance(instance: Instance, path: str | Path) -> str:
    """Write the canonical document to ``path``; returns the fingerprint."""
    document = instance.document()
    Path(path).write_text(canonical_json(document) + "\n")
    return document["fingerprint"]


def load_instance(path: str | Path) -> Instance:
    """Load an instance file, checking its embedded fingerprint.

    A missing fingerprint is accepted (hand-authored files: drop the
    ``fingerprint`` field to edit one); a *wrong* one raises
    ``fingerprint-mismatch`` — a tampered pack must not score silently.
    """
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            "malformed-json", f"{path}: not valid JSON ({exc})"
        ) from None
    instance = instance_from_dict(payload)
    claimed = payload.get("fingerprint")
    if claimed is not None:
        actual = instance.fingerprint
        if claimed != actual:
            raise InstanceFormatError(
                "fingerprint-mismatch",
                f"{path}: document claims fingerprint {claimed} but its "
                f"content hashes to {actual}",
            )
    return instance
