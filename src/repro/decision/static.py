"""The static-allocation baseline: FCFS batch scheduling with EASY
backfilling (Sections 2.1 and 5.2, Figures 1, 12 and 13).

The paper contrasts its dynamic consolidation policy with the usual way
clusters are exploited: a Resource Management System assigning a *static* set
of resources to each job for a bounded amount of time, scheduling the queue
First-Come-First-Served with the EASY backfilling optimisation.  This module
implements that baseline at the job granularity: a job books a fixed number of
processing units (and optionally memory) for its whole duration, jobs start in
queue order, and EASY backfilling lets a later job jump ahead when it does not
delay the reservation of the first blocked job (based on the user estimates).

:class:`StaticAllocationSimulator` runs it on the workloads of a scenario:
each vjob books one processing unit per VM plus its memory for its whole
duration.  The booked resources stay assigned for the whole slot even while
the NASGrid tasks leave most VMs idle, which is exactly the waste Figure 13
exposes and the reason the 9-vjob campaign needs ~250 minutes instead of ~150.
The allocations feed the Figure 12 diagram, the Figure 13 utilization curves
and the 250-minute FCFS makespan the paper reports.  The same booking rule as
a control-loop policy is :class:`repro.decision.fcfs.FCFSDecisionModule`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Literal, Optional, Sequence

from ..api.results import RunResult, UtilizationSample
from ..model.node import Node
from ..workloads.traces import VJobWorkload


@dataclass(frozen=True)
class BatchJob:
    """A job as seen by the batch scheduler: a static resource request."""

    name: str
    cpus: int
    duration: float
    memory: int = 0
    submit_time: float = 0.0
    estimated_duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cpus <= 0:
            raise ValueError(f"job {self.name!r}: cpus must be positive")
        if self.duration <= 0:
            raise ValueError(f"job {self.name!r}: duration must be positive")

    @property
    def walltime(self) -> float:
        """User estimate used by backfilling (defaults to the real duration)."""
        return self.estimated_duration if self.estimated_duration is not None else self.duration


@dataclass(frozen=True)
class JobAllocation:
    """Where and when a job executed."""

    job: BatchJob
    start: float

    @property
    def end(self) -> float:
        return self.start + self.job.duration

    @property
    def wait_time(self) -> float:
        return self.start - self.job.submit_time


@dataclass
class Schedule:
    """The outcome of a batch scheduling run."""

    allocations: list[JobAllocation] = field(default_factory=list)
    total_cpus: int = 0
    total_memory: int = 0

    @property
    def makespan(self) -> float:
        if not self.allocations:
            return 0.0
        return max(a.end for a in self.allocations)

    def allocation_of(self, name: str) -> JobAllocation:
        for allocation in self.allocations:
            if allocation.job.name == name:
                return allocation
        raise KeyError(name)

    def running_at(self, time: float) -> list[JobAllocation]:
        return [a for a in self.allocations if a.start <= time < a.end]


BackfillPolicy = Literal["none", "easy"]


class FCFSScheduler:
    """First-Come-First-Served scheduler with optional EASY backfilling."""

    def __init__(
        self,
        total_cpus: int,
        total_memory: int = 0,
        backfilling: BackfillPolicy = "easy",
    ) -> None:
        if total_cpus <= 0:
            raise ValueError("total_cpus must be positive")
        if backfilling not in ("none", "easy"):
            raise ValueError(f"unknown backfilling policy {backfilling!r}")
        self.total_cpus = total_cpus
        self.total_memory = total_memory
        self.backfilling = backfilling

    # ------------------------------------------------------------------ #

    def schedule(self, jobs: Iterable[BatchJob]) -> Schedule:
        """Run the scheduling simulation and return every job's allocation."""
        # Stable sort: jobs submitted at the same instant keep their original
        # (queue) order, which is what FCFS means.
        pending = sorted(jobs, key=lambda j: j.submit_time)
        schedule = Schedule(
            total_cpus=self.total_cpus, total_memory=self.total_memory
        )

        free_cpus = self.total_cpus
        free_memory = self.total_memory
        #: min-heap of (end time, sequence, allocation) for running jobs
        running: list[tuple[float, int, JobAllocation]] = []
        queue: list[BatchJob] = []
        sequence = 0

        def start(job: BatchJob, time: float) -> None:
            nonlocal free_cpus, free_memory, sequence
            allocation = JobAllocation(job=job, start=time)
            schedule.allocations.append(allocation)
            free_cpus -= job.cpus
            if self.total_memory:
                free_memory -= job.memory
            heapq.heappush(running, (allocation.end, sequence, allocation))
            sequence += 1

        def finish_until(time: float) -> None:
            nonlocal free_cpus, free_memory
            while running and running[0][0] <= time:
                _, _, allocation = heapq.heappop(running)
                free_cpus += allocation.job.cpus
                if self.total_memory:
                    free_memory += allocation.job.memory

        def dispatch(time: float) -> None:
            """Start queue-head jobs, then backfill if allowed."""
            while queue and self._fits(queue[0], free_cpus, free_memory):
                start(queue.pop(0), time)
            if not queue or self.backfilling == "none":
                return
            head = queue[0]
            shadow_time, spare_cpus, spare_memory = self._reservation(
                head, time, free_cpus, free_memory, running
            )
            index = 1
            while index < len(queue):
                job = queue[index]
                if self._fits(job, free_cpus, free_memory) and (
                    # EASY rule: a job may start now if it terminates (per
                    # its estimate) before the head's reservation, or if it
                    # only uses resources still spare when the head starts.
                    time + job.walltime <= shadow_time
                    or self._fits(job, spare_cpus, spare_memory)
                ):
                    queue.pop(index)
                    start(job, time)
                    # The head reservation may improve now; recompute it.
                    shadow_time, spare_cpus, spare_memory = self._reservation(
                        head, time, free_cpus, free_memory, running
                    )
                else:
                    index += 1

        arrival_index = 0
        while arrival_index < len(pending) or queue or running:
            # Determine the next event time: a job arrival or a completion.
            next_arrival = (
                pending[arrival_index].submit_time
                if arrival_index < len(pending)
                else None
            )
            next_completion = running[0][0] if running else None
            candidates = [t for t in (next_arrival, next_completion) if t is not None]
            if not candidates:
                break
            time = min(candidates)

            finish_until(time)
            while (
                arrival_index < len(pending)
                and pending[arrival_index].submit_time <= time
            ):
                queue.append(pending[arrival_index])
                arrival_index += 1
            dispatch(time)

        schedule.allocations.sort(key=lambda a: (a.start, a.job.name))
        return schedule

    # ------------------------------------------------------------------ #
    # EASY backfilling internals                                          #
    # ------------------------------------------------------------------ #

    def _fits(self, job: BatchJob, cpus: int, memory: int) -> bool:
        """Whether ``job`` fits in ``cpus`` processing units and — when the
        scheduler tracks memory at all — ``memory`` MB."""
        return job.cpus <= cpus and (
            not self.total_memory or job.memory <= memory
        )

    def _reservation(
        self,
        head: BatchJob,
        now: float,
        free_cpus: int,
        free_memory: int,
        running: Sequence[tuple[float, int, JobAllocation]],
    ) -> tuple[float, int, int]:
        """Earliest time the queue head can start (its *shadow time*) and the
        resources that will remain spare at that time."""
        cpus = free_cpus
        memory = free_memory
        if self._fits(head, cpus, memory):
            return now, cpus - head.cpus, memory - head.memory
        for end, _, allocation in sorted(running):
            cpus += allocation.job.cpus
            memory += allocation.job.memory
            if self._fits(head, cpus, memory):
                return end, cpus - head.cpus, memory - head.memory
        # Should not happen if the job fits the machine at all.
        return float("inf"), 0, 0


@dataclass
class StaticRunResult(RunResult):
    """Outcome of a static-allocation (FCFS) run.

    A :class:`~repro.api.results.RunResult` (so the analysis helpers compare
    it directly with control-loop runs) extended with the analytic
    :class:`Schedule` behind the Figure 12 diagram.  ``schedule`` is
    keyword-only: the base class owns the positional slots.
    """

    schedule: Optional[Schedule] = field(default=None, kw_only=True)


#: Seconds between two utilization samples of a static-allocation run.
SAMPLE_PERIOD_S = 60.0


class StaticAllocationSimulator:
    """Simulate the FCFS + static allocation baseline on the same workloads."""

    def __init__(
        self,
        nodes: Sequence[Node],
        workloads: Sequence[VJobWorkload],
        backfilling: str = "easy",
    ) -> None:
        self.nodes = list(nodes)
        self.workloads = list(workloads)
        self.backfilling = backfilling

    # ------------------------------------------------------------------ #

    def _as_batch_jobs(self) -> list[BatchJob]:
        jobs = []
        for workload in self.workloads:
            vjob = workload.vjob
            jobs.append(
                BatchJob(
                    name=vjob.name,
                    cpus=workload.peak_cpu_demand,
                    memory=vjob.total_memory,
                    duration=workload.duration,
                    submit_time=vjob.submitted_at,
                )
            )
        return jobs

    def run(self) -> StaticRunResult:
        total_cpus = sum(node.cpu_capacity for node in self.nodes)
        total_memory = sum(node.memory_capacity for node in self.nodes)
        scheduler = FCFSScheduler(
            total_cpus=total_cpus,
            total_memory=total_memory,
            backfilling=self.backfilling,  # type: ignore[arg-type]
        )
        schedule = scheduler.schedule(self._as_batch_jobs())

        return StaticRunResult(
            schedule=schedule,
            makespan=schedule.makespan,
            policy="static",
            completion_times={
                allocation.job.name: allocation.end
                for allocation in schedule.allocations
            },
            utilization=self._utilization_series(schedule, total_cpus),
        )

    # ------------------------------------------------------------------ #

    def _utilization_series(
        self, schedule: Schedule, total_cpus: int
    ) -> list[UtilizationSample]:
        """Sample the *actual* CPU demand and the booked memory over time.

        Under static allocation the booked CPUs equal the vjob's VM count, but
        the NASGrid tasks only use a fraction of them at any instant; the
        utilization the monitoring observes is therefore the demand of the
        traces, while the memory of every allocated VM stays claimed.
        """
        workloads = {workload.vjob.name: workload for workload in self.workloads}
        samples: list[UtilizationSample] = []
        horizon = schedule.makespan
        time = 0.0
        while time <= horizon:
            demand_units = 0
            memory_mb = 0
            for allocation in schedule.running_at(time):
                workload = workloads[allocation.job.name]
                demands = workload.demands_at(time - allocation.start)
                demand_units += sum(demands.values())
                memory_mb += allocation.job.memory
            samples.append(
                UtilizationSample(
                    time=time,
                    cpu_demand_units=demand_units,
                    cpu_used_units=demand_units,
                    cpu_capacity_units=total_cpus,
                    memory_used_mb=memory_mb,
                )
            )
            time += SAMPLE_PERIOD_S
        return samples
