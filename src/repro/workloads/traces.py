"""Per-VM demand traces.

A trace describes how the CPU demand of one VM evolves while its embedded
NASGrid task graph executes: a sequence of *phases*, each with a duration (in
seconds of execution time) and a CPU demand (an entire processing unit while a
task computes, zero while the VM waits for its predecessors or transfers
data).  The vjob only makes progress while it is in the Running state, so the
trace is indexed by *progress time* rather than wall-clock time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..model.vjob import VJob


@dataclass(frozen=True)
class Phase:
    """A period of constant CPU demand."""

    duration: float
    cpu_demand: int

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("phase duration must be non-negative")
        if self.cpu_demand < 0:
            raise ValueError("phase cpu_demand must be non-negative")


class DemandTrace:
    """The demand profile of one VM over its execution."""

    def __init__(self, phases: Iterable[Phase]):
        self.phases: tuple[Phase, ...] = tuple(phases)
        if not self.phases:
            raise ValueError("a demand trace needs at least one phase")

    @property
    def total_duration(self) -> float:
        """Execution time needed to play the whole trace."""
        return sum(phase.duration for phase in self.phases)

    @property
    def peak_demand(self) -> int:
        return max(p.cpu_demand for p in self.phases)

    def demand_at(self, progress: float) -> int:
        """CPU demand once the VM has accumulated ``progress`` seconds of
        execution (0 beyond the end of the trace)."""
        return self.demand_until(progress)[0]

    def demand_until(self, progress: float) -> tuple[int, float]:
        """The demand at ``progress`` and the progress up to which it holds:
        the end of its phase (``inf`` beyond the end of the trace), so a
        reader whose progress only grows asks again only once it gets
        there."""
        if progress < 0:
            raise ValueError("progress must be non-negative")
        elapsed = 0.0
        for phase in self.phases:
            elapsed += phase.duration
            if progress < elapsed:
                return phase.cpu_demand, elapsed
        return 0, math.inf

    def __len__(self) -> int:
        return len(self.phases)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DemandTrace({len(self.phases)} phases, {self.total_duration:.0f}s)"


@dataclass
class VJobWorkload:
    """A vjob together with the demand trace of each of its VMs."""

    vjob: VJob
    traces: Mapping[str, DemandTrace]

    def __post_init__(self) -> None:
        missing = set(self.vjob.vm_names) - set(self.traces)
        if missing:
            raise ValueError(f"missing traces for VMs: {sorted(missing)}")

    @property
    def duration(self) -> float:
        """Execution time of the whole vjob: the longest of its VM traces."""
        return max(trace.total_duration for trace in self.traces.values())

    @property
    def peak_cpu_demand(self) -> int:
        """Number of processing units the vjob needs when every VM computes
        at once (the static allocation a batch scheduler books)."""
        return sum(trace.peak_demand for trace in self.traces.values())

    def demands_at(self, progress: float) -> dict[str, int]:
        return {name: trace.demand_at(progress) for name, trace in self.traces.items()}


def constant_trace(duration: float, cpu_demand: int = 1) -> DemandTrace:
    """A single-phase trace (used by tests and micro-benchmarks)."""
    return DemandTrace([Phase(duration=duration, cpu_demand=cpu_demand)])


def alternating_trace(
    segments: Sequence[tuple[float, int]],
) -> DemandTrace:
    """Build a trace from (duration, cpu_demand) pairs."""
    return DemandTrace([Phase(duration=d, cpu_demand=c) for d, c in segments])
