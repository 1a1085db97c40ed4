"""VM context-switch actions (Section 2.2) and their local costs (Table 1).

Five actions change the state or the location of a VM:

========  =========================================  ==========================
action    effect                                      local cost (Table 1)
========  =========================================  ==========================
run       Waiting -> Running on a destination node    constant (0)
stop      Running -> Terminated                       constant (0)
migrate   live-migrate a running VM                   Dm(vm)
suspend   Running -> Sleeping (image written on the   Dm(vm)
          hosting node)
resume    Sleeping -> Running                          Dm(vm) if resumed on the
                                                       node holding the image,
                                                       2 x Dm(vm) otherwise
========  =========================================  ==========================

where ``Dm(vm)`` is the memory demand (MB) of the manipulated VM.

Every action knows whether it *liberates* resources (suspend, stop), *requires*
resources on a destination node (run, resume, migrate), whether it is feasible
against a given configuration, and how to apply itself to a configuration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ..model.configuration import Configuration
from ..model.errors import ExecutionError
from ..model.resources import ResourceVector
from ..model.vm import VMState


class ActionKind(enum.Enum):
    RUN = "run"
    STOP = "stop"
    MIGRATE = "migrate"
    SUSPEND = "suspend"
    RESUME = "resume"


@dataclass(frozen=True)
class Action:
    """Base class of the five VM actions."""

    vm: str

    @property
    def kind(self) -> ActionKind:
        raise NotImplementedError

    # -- resource effects ----------------------------------------------------

    def destination(self) -> Optional[str]:
        """Node on which the action consumes resources, if any."""
        return None

    def source(self) -> Optional[str]:
        """Node on which the action liberates resources, if any."""
        return None

    def consumes_resources(self) -> bool:
        return self.destination() is not None

    def liberates_resources(self) -> bool:
        return self.source() is not None

    # -- cost (Table 1) ------------------------------------------------------

    def cost(self, configuration: Configuration) -> int:
        """Local cost of the action in the model of Table 1."""
        raise NotImplementedError

    # -- feasibility & application --------------------------------------------

    def is_feasible(self, configuration: Configuration) -> bool:
        """True when the action can start against ``configuration``."""
        raise NotImplementedError

    def apply(self, configuration: Configuration) -> None:
        """Mutate ``configuration`` to reflect the action's completion."""
        raise NotImplementedError

    def __str__(self) -> str:
        return f"{self.kind.value}({self.vm})"


@dataclass(frozen=True)
class Run(Action):
    """Boot the VM on ``node`` (Waiting -> Running)."""

    node: str

    @property
    def kind(self) -> ActionKind:
        return ActionKind.RUN

    def destination(self) -> Optional[str]:
        return self.node

    def cost(self, configuration: Configuration) -> int:
        return 0

    def is_feasible(self, configuration: Configuration) -> bool:
        vm = configuration.vm(self.vm)
        if configuration.state_of(self.vm) is not VMState.WAITING:
            return False
        return configuration.can_host(self.node, vm)

    def apply(self, configuration: Configuration) -> None:
        if configuration.state_of(self.vm) is not VMState.WAITING:
            raise ExecutionError(f"run({self.vm}): VM is not waiting")
        configuration.set_running(self.vm, self.node)

    def __str__(self) -> str:
        return f"run({self.vm} on {self.node})"


@dataclass(frozen=True)
class Stop(Action):
    """Shut the VM down (Running -> Terminated)."""

    node: str

    @property
    def kind(self) -> ActionKind:
        return ActionKind.STOP

    def source(self) -> Optional[str]:
        return self.node

    def cost(self, configuration: Configuration) -> int:
        return 0

    def is_feasible(self, configuration: Configuration) -> bool:
        return configuration.state_of(self.vm) is VMState.RUNNING

    def apply(self, configuration: Configuration) -> None:
        if configuration.state_of(self.vm) is not VMState.RUNNING:
            raise ExecutionError(f"stop({self.vm}): VM is not running")
        configuration.set_terminated(self.vm)

    def __str__(self) -> str:
        return f"stop({self.vm} on {self.node})"


@dataclass(frozen=True)
class Migrate(Action):
    """Live-migrate a running VM from ``source_node`` to ``destination_node``."""

    source_node: str
    destination_node: str

    @property
    def kind(self) -> ActionKind:
        return ActionKind.MIGRATE

    def destination(self) -> Optional[str]:
        return self.destination_node

    def source(self) -> Optional[str]:
        return self.source_node

    def cost(self, configuration: Configuration) -> int:
        return configuration.vm(self.vm).memory

    def is_feasible(self, configuration: Configuration) -> bool:
        if configuration.state_of(self.vm) is not VMState.RUNNING:
            return False
        if configuration.location_of(self.vm) != self.source_node:
            return False
        vm = configuration.vm(self.vm)
        return configuration.can_host(self.destination_node, vm)

    def apply(self, configuration: Configuration) -> None:
        if configuration.location_of(self.vm) != self.source_node:
            raise ExecutionError(
                f"migrate({self.vm}): VM is not on {self.source_node}"
            )
        configuration.migrate(self.vm, self.destination_node)

    def __str__(self) -> str:
        return f"migrate({self.vm}: {self.source_node} -> {self.destination_node})"


@dataclass(frozen=True)
class Suspend(Action):
    """Suspend a running VM to disk on its hosting node (Running -> Sleeping)."""

    node: str

    @property
    def kind(self) -> ActionKind:
        return ActionKind.SUSPEND

    def source(self) -> Optional[str]:
        return self.node

    def cost(self, configuration: Configuration) -> int:
        return configuration.vm(self.vm).memory

    def is_feasible(self, configuration: Configuration) -> bool:
        return (
            configuration.state_of(self.vm) is VMState.RUNNING
            and configuration.location_of(self.vm) == self.node
        )

    def apply(self, configuration: Configuration) -> None:
        if configuration.state_of(self.vm) is not VMState.RUNNING:
            raise ExecutionError(f"suspend({self.vm}): VM is not running")
        configuration.set_sleeping(self.vm, self.node)

    def __str__(self) -> str:
        return f"suspend({self.vm} on {self.node})"


@dataclass(frozen=True)
class Resume(Action):
    """Resume a sleeping VM on ``destination_node`` (Sleeping -> Running).

    The resume is *local* when the destination node already holds the suspend
    image, and *remote* otherwise (the image must be transferred first, which
    doubles the cost — Table 1).
    """

    image_node: Optional[str]
    destination_node: str

    @property
    def kind(self) -> ActionKind:
        return ActionKind.RESUME

    def destination(self) -> Optional[str]:
        return self.destination_node

    @property
    def is_local(self) -> bool:
        return self.image_node == self.destination_node

    def cost(self, configuration: Configuration) -> int:
        memory = configuration.vm(self.vm).memory
        return memory if self.is_local else 2 * memory

    def is_feasible(self, configuration: Configuration) -> bool:
        if configuration.state_of(self.vm) is not VMState.SLEEPING:
            return False
        vm = configuration.vm(self.vm)
        return configuration.can_host(self.destination_node, vm)

    def apply(self, configuration: Configuration) -> None:
        if configuration.state_of(self.vm) is not VMState.SLEEPING:
            raise ExecutionError(f"resume({self.vm}): VM is not sleeping")
        configuration.set_running(self.vm, self.destination_node)

    def __str__(self) -> str:
        flavour = "local" if self.is_local else "remote"
        return f"resume({self.vm} on {self.destination_node}, {flavour})"


def required_resources(action: Action, configuration: Configuration) -> ResourceVector:
    """Resources the action claims on its destination node (zero if none)."""
    if not action.consumes_resources():
        return ResourceVector(0, 0)
    return configuration.vm(action.vm).demand


# --------------------------------------------------------------------- #
# the JSON shape of an action (audit log, HTTP, verifier submissions)    #
# --------------------------------------------------------------------- #


class UnknownActionKind(ValueError):
    """An action document whose ``kind`` is none of the five actions."""


def action_to_dict(action: Action) -> dict[str, Any]:
    """One VM action as a JSON-safe dict (kind + the nodes it touches)."""
    data: dict[str, Any] = {"kind": action.kind.value, "vm": action.vm}
    if isinstance(action, (Run, Stop, Suspend)):
        data["node"] = action.node
    elif isinstance(action, Migrate):
        data["source"] = action.source_node
        data["destination"] = action.destination_node
    elif isinstance(action, Resume):
        data["image_node"] = action.image_node
        data["destination"] = action.destination_node
    return data


def require_field(payload: Mapping[str, Any], key: str, context: str) -> Any:
    """``payload[key]``; a :class:`ValueError` prefixed with ``context`` when
    ``payload`` is not a mapping or lacks ``key``."""
    if not isinstance(payload, Mapping) or key not in payload:
        raise ValueError(f"{context}: missing required field {key!r}")
    return payload[key]


def action_from_dict(
    payload: Mapping[str, Any], context: str = "action"
) -> Action:
    """Inverse of :func:`action_to_dict`.  The payload comes from outside
    the program: a missing field raises :class:`ValueError`, a ``kind``
    that names no action its subclass :class:`UnknownActionKind`, both
    prefixed with ``context`` (where the document was found)."""
    kind = require_field(payload, "kind", context)
    vm = require_field(payload, "vm", context)
    fields = f"{context} {kind}"
    if kind == "run":
        return Run(vm=vm, node=require_field(payload, "node", fields))
    if kind == "stop":
        return Stop(vm=vm, node=require_field(payload, "node", fields))
    if kind == "suspend":
        return Suspend(vm=vm, node=require_field(payload, "node", fields))
    if kind == "migrate":
        return Migrate(
            vm=vm,
            source_node=require_field(payload, "source", fields),
            destination_node=require_field(payload, "destination", fields),
        )
    if kind == "resume":
        return Resume(
            vm=vm,
            image_node=payload.get("image_node"),
            destination_node=require_field(payload, "destination", fields),
        )
    raise UnknownActionKind(f"{context}: unknown action kind {kind!r}")
