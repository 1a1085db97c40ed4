"""Metrics derived from simulation results.

These helpers compute the figures the paper reports: average cost reduction of
the optimizer over the FFD baseline (Figure 10), cost/duration statistics of
the context switches (Figure 11), utilization curves (Figure 13) and the
makespan reduction of dynamic consolidation over the static allocation
(Section 5.2's headline 40 %) — plus the recovery statistics of the chaos
scenarios (repair latency, SLA violations, wasted migrations, makespan
inflation under faults).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Iterable, Optional, Sequence

from ..api.results import ContextSwitchRecord, RunResult, UtilizationSample


# --------------------------------------------------------------------------- #
# Figure 10: cost reduction                                                    #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class CostComparison:
    """FFD vs Entropy cost for one generated configuration."""

    vm_count: int
    ffd_cost: int
    entropy_cost: int

    @property
    def reduction(self) -> float:
        """Fractional reduction of the reconfiguration cost (0..1)."""
        if self.ffd_cost == 0:
            return 0.0
        return 1.0 - self.entropy_cost / self.ffd_cost


def average_cost_reduction(comparisons: Iterable[CostComparison]) -> float:
    """Average cost reduction over a set of generated configurations (the
    paper reports ~95 %)."""
    items = [c.reduction for c in comparisons if c.ffd_cost > 0]
    if not items:
        return 0.0
    return mean(items)


def group_by_vm_count(
    comparisons: Iterable[CostComparison],
) -> dict[int, list[CostComparison]]:
    grouped: dict[int, list[CostComparison]] = {}
    for comparison in comparisons:
        grouped.setdefault(comparison.vm_count, []).append(comparison)
    return grouped


def mean_costs_by_vm_count(
    comparisons: Iterable[CostComparison],
) -> list[tuple[int, float, float]]:
    """(vm count, mean FFD cost, mean Entropy cost) — the two series of
    Figure 10."""
    rows = []
    for vm_count, items in sorted(group_by_vm_count(comparisons).items()):
        rows.append(
            (
                vm_count,
                mean(c.ffd_cost for c in items),
                mean(c.entropy_cost for c in items),
            )
        )
    return rows


# --------------------------------------------------------------------------- #
# Figure 11: cost vs duration of the context switches                          #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class SwitchStatistics:
    """Aggregate statistics over the context switches of a run."""

    count: int
    average_duration: float
    max_duration: float
    max_cost: int
    total_resumes: int
    local_resume_fraction: float


def switch_statistics(switches: Sequence[ContextSwitchRecord]) -> SwitchStatistics:
    significant = [s for s in switches if s.action_count > 0]
    if not significant:
        return SwitchStatistics(0, 0.0, 0.0, 0, 0, 0.0)
    resumes = sum(s.resumes for s in significant)
    local = sum(s.local_resumes for s in significant)
    return SwitchStatistics(
        count=len(significant),
        average_duration=mean(s.duration for s in significant),
        max_duration=max(s.duration for s in significant),
        max_cost=max(s.cost for s in significant),
        total_resumes=resumes,
        local_resume_fraction=(local / resumes) if resumes else 0.0,
    )


def cost_duration_pairs(
    switches: Sequence[ContextSwitchRecord],
) -> list[tuple[int, float]]:
    """The (cost, duration) scatter of Figure 11."""
    return [(s.cost, s.duration) for s in switches if s.action_count > 0]


# --------------------------------------------------------------------------- #
# Figure 13 and the headline makespan                                          #
# --------------------------------------------------------------------------- #

def average_cpu_utilization(
    samples: Sequence[UtilizationSample], until: Optional[float] = None
) -> float:
    """Time-averaged fraction of the processing units in use."""
    selected = [s for s in samples if until is None or s.time <= until]
    if not selected:
        return 0.0
    return mean(s.cpu_fraction for s in selected)


def average_memory_utilization_gb(
    samples: Sequence[UtilizationSample], until: Optional[float] = None
) -> float:
    selected = [s for s in samples if until is None or s.time <= until]
    if not selected:
        return 0.0
    return mean(s.memory_used_mb for s in selected) / 1024.0


def makespan_reduction(baseline_makespan: float, entropy_makespan: float) -> float:
    """Fractional reduction of the total completion time (the paper reports
    ~40 %: 250 minutes down to 150 minutes)."""
    if baseline_makespan <= 0:
        return 0.0
    return 1.0 - entropy_makespan / baseline_makespan


# --------------------------------------------------------------------------- #
# Chaos scenarios: recovery statistics                                         #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class RecoveryStatistics:
    """Aggregate health of one fault-injected run.

    ``lost_vjobs`` must be 0 for a recovery to count as successful: every
    submitted vjob eventually completed despite the injected faults.
    """

    fault_count: int
    repaired_vjobs: int
    mean_repair_latency: float
    max_repair_latency: float
    wasted_migrations: int
    lost_vjobs: int
    sla_violations: int

    @property
    def fully_recovered(self) -> bool:
        return self.lost_vjobs == 0


def recovery_statistics(result: RunResult) -> RecoveryStatistics:
    """Summarize the chaos metrics of one run (all zeros when fault-free)."""
    latencies = list(result.repair_latencies.values())
    return RecoveryStatistics(
        fault_count=len(result.faults),
        repaired_vjobs=len(latencies),
        mean_repair_latency=mean(latencies) if latencies else 0.0,
        max_repair_latency=max(latencies) if latencies else 0.0,
        wasted_migrations=result.wasted_migrations,
        lost_vjobs=result.lost_vjob_count,
        sla_violations=len(result.sla_violations),
    )


def makespan_inflation(baseline: float, chaotic: float) -> float:
    """Fractional makespan increase of a chaos run over its fault-free twin
    (0.10 = the faults cost 10 % extra wall-clock time)."""
    if baseline <= 0:
        return 0.0
    return chaotic / baseline - 1.0


def resample(
    samples: Sequence[UtilizationSample], step: float, horizon: Optional[float] = None
) -> list[UtilizationSample]:
    """Piecewise-constant resampling of a utilization series on a regular
    grid, convenient for aligned comparisons between two runs."""
    if not samples:
        return []
    ordered = sorted(samples, key=lambda s: s.time)
    end = horizon if horizon is not None else ordered[-1].time
    result = []
    time = 0.0
    index = 0
    while time <= end:
        while index + 1 < len(ordered) and ordered[index + 1].time <= time:
            index += 1
        current = ordered[index]
        result.append(
            UtilizationSample(
                time=time,
                cpu_demand_units=current.cpu_demand_units,
                cpu_used_units=current.cpu_used_units,
                cpu_capacity_units=current.cpu_capacity_units,
                memory_used_mb=current.memory_used_mb,
            )
        )
        time += step
    return result
