"""Simulated cluster substrate (Xen / Ganglia / NFS replacement)."""

from .cluster import SimulatedCluster
from .executor import (
    ActionExecution,
    ExecutionReport,
    FailedAction,
    PlanExecutor,
)
from .faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    NodeEviction,
    evict_node,
    random_fault_schedule,
)
from .hypervisor import (
    DEFAULT_HYPERVISOR,
    FAST_STOP_HYPERVISOR,
    HypervisorModel,
    TransferMethod,
    remote_factor,
)
from .monitoring import MonitoringService

__all__ = [
    "SimulatedCluster",
    "ActionExecution",
    "ExecutionReport",
    "FailedAction",
    "PlanExecutor",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultSchedule",
    "NodeEviction",
    "evict_node",
    "random_fault_schedule",
    "DEFAULT_HYPERVISOR",
    "FAST_STOP_HYPERVISOR",
    "HypervisorModel",
    "TransferMethod",
    "remote_factor",
    "MonitoringService",
]
