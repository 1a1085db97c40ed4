"""Cluster model: nodes, VMs, vjobs, configurations and their viability."""

from .columns import LoadColumns
from .configuration import Configuration, ViabilityViolation
from .errors import (
    DuplicateElementError,
    ExecutionError,
    InconsistencyError,
    InvalidStateTransition,
    ModelError,
    NonViableConfigurationError,
    NoPivotAvailableError,
    PlanningError,
    ReproError,
    SolverError,
    UnknownNodeError,
    UnknownVMError,
)
from .node import Node, NodeRole, make_working_nodes
from .overlay import Overlay
from .queue import VJobQueue
from .resources import ResourceVector
from .vjob import VJob, VJobState, index_vms_by_vjob
from .vm import VirtualMachine, VMState

__all__ = [
    "LoadColumns",
    "Configuration",
    "Overlay",
    "ViabilityViolation",
    "DuplicateElementError",
    "ExecutionError",
    "InconsistencyError",
    "InvalidStateTransition",
    "ModelError",
    "NonViableConfigurationError",
    "NoPivotAvailableError",
    "PlanningError",
    "ReproError",
    "SolverError",
    "UnknownNodeError",
    "UnknownVMError",
    "Node",
    "NodeRole",
    "make_working_nodes",
    "VJobQueue",
    "ResourceVector",
    "VJob",
    "VJobState",
    "index_vms_by_vjob",
    "VirtualMachine",
    "VMState",
]
