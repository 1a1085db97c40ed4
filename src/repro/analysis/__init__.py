"""Metrics and reporting helpers for the experiment harness."""

from .metrics import (
    CostComparison,
    RecoveryStatistics,
    SwitchStatistics,
    average_cost_reduction,
    average_cpu_utilization,
    average_memory_utilization_gb,
    cost_duration_pairs,
    group_by_vm_count,
    makespan_inflation,
    makespan_reduction,
    mean_costs_by_vm_count,
    recovery_statistics,
    resample,
    switch_statistics,
)
from .report import (
    banner,
    format_fraction,
    format_seconds,
    format_table,
    series,
)

__all__ = [
    "CostComparison",
    "RecoveryStatistics",
    "SwitchStatistics",
    "makespan_inflation",
    "recovery_statistics",
    "average_cost_reduction",
    "average_cpu_utilization",
    "average_memory_utilization_gb",
    "cost_duration_pairs",
    "group_by_vm_count",
    "makespan_reduction",
    "mean_costs_by_vm_count",
    "resample",
    "switch_statistics",
    "banner",
    "format_fraction",
    "format_seconds",
    "format_table",
    "series",
]
