"""Structured results shared by every control-loop run.

One :class:`RunResult` is produced per scenario run regardless of the policy
driving the loop, so benchmarks, examples and tests compare strategies
without policy-specific plumbing: the Figure 11 context-switch records, the
Figure 13 utilization samples, the per-vjob completion times and the headline
makespan all live here.  Chaos runs add their own series: the
:class:`FaultRecord` timeline, per-vjob repair latencies, SLA violations and
the wasted-migration count (see ``docs/SIMULATOR_GUIDE.md`` for what each
metric means and how it is computed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass(frozen=True)
class ContextSwitchRecord:
    """One cluster-wide context switch performed during a run (Figure 11).

    ``failed_migrations`` counts migration attempts aborted by fault
    injection during this switch (always 0 on a fault-free run).
    """

    time: float
    cost: int
    duration: float
    migrations: int
    runs: int
    stops: int
    suspends: int
    resumes: int
    local_resumes: int
    used_fallback: bool = False
    failed_migrations: int = 0

    @property
    def action_count(self) -> int:
        return self.migrations + self.runs + self.stops + self.suspends + self.resumes


@dataclass(frozen=True)
class FaultRecord:
    """One fault applied to the cluster during a run.

    ``kind`` is the :class:`~repro.sim.faults.FaultKind` value string
    (``"node_crash"``, ``"node_slowdown"``, ``"migration_failure"``,
    ``"delayed_boot"``); ``time`` is when the fault was *scheduled* and
    ``detected_at`` when the control loop observed and applied it (the next
    iteration boundary — monitoring-grain detection, like a real cluster).
    ``affected_vjobs`` lists the vjobs a crash knocked back to Waiting.
    """

    time: float
    kind: str
    target: str
    detected_at: float = 0.0
    affected_vjobs: tuple[str, ...] = ()
    detail: str = ""

    @property
    def detection_delay(self) -> float:
        return self.detected_at - self.time


@dataclass(frozen=True)
class ConstraintViolationRecord:
    """One placement constraint observed broken during a run.

    ``constraint`` is the catalog relation's stable label (its ``repr``);
    ``phase`` tells where the breach was observed:

    * ``"plan"`` — an intended intermediate state of a reconfiguration plan
      (continuous satisfaction at pool granularity, reported by the planner);
    * ``"execution"`` — the *live* cluster at a pool boundary while the
      switch executed (fault-injected deviations included);
    * ``"configuration"`` — the cluster state at an iteration boundary,
      after the switch (or non-switch) of that round settled.

    ``stage`` is the number of pools applied when the breach was observed
    (``1`` = after the first pool) for the plan/execution phases — the same
    boundary gets the same stage in both — and ``None`` otherwise.
    """

    time: float
    constraint: str
    phase: str
    message: str = ""
    stage: int | None = None


@dataclass(frozen=True)
class UtilizationSample:
    """One point of the Figure 13 utilization curves."""

    time: float
    cpu_demand_units: int
    cpu_used_units: int
    cpu_capacity_units: int
    memory_used_mb: int

    @property
    def cpu_fraction(self) -> float:
        if self.cpu_capacity_units == 0:
            return 0.0
        return self.cpu_used_units / self.cpu_capacity_units

    @property
    def cpu_demand_fraction(self) -> float:
        """Demanded CPU over capacity; can exceed 1 on an overloaded cluster,
        like the 29/22 peak of Section 5.2."""
        if self.cpu_capacity_units == 0:
            return 0.0
        return self.cpu_demand_units / self.cpu_capacity_units


@dataclass
class RunResult:
    """Everything measured during one control-loop run.

    ``policy`` names the decision module that drove the run (its registry
    key when available); ``metadata`` carries run-level extras such as the
    viability of the final configuration.

    The chaos series are empty on fault-free runs:

    * ``faults`` — chronological :class:`FaultRecord` timeline;
    * ``repair_latencies`` — vjob name -> seconds between a crash knocking
      the vjob out and the switch that put it back in the Running state
      completing (detection delay included);
    * ``sla_violations`` — vjobs whose turnaround exceeded
      ``sla_factor x`` their ideal execution time (only populated when the
      scenario sets ``sla_factor``); unfinished vjobs always violate;
    * ``unfinished_vjobs`` — submitted vjobs that never completed ("lost"
      vjobs; a recovery scenario is only healthy when this is empty).

    Constrained runs (``Scenario.with_constraints``) additionally fill
    ``constraint_violations`` — the chronological per-constraint violation
    timeline — summarized by :attr:`constraint_violation_counts`.

    Traced runs (``Scenario(trace=True)``) attach the full span tree as
    ``trace`` — a plain :meth:`repro.obs.Tracer.to_dict` document, so it
    survives the JSON round-trip byte-stably and feeds the ``repro-trace``
    CLI and Chrome trace-event export.  ``None`` on untraced runs, and the
    ``"trace"`` key is then omitted from :meth:`to_dict` entirely.
    """

    makespan: float = 0.0
    policy: str = ""
    switches: list[ContextSwitchRecord] = field(default_factory=list)
    utilization: list[UtilizationSample] = field(default_factory=list)
    completion_times: dict[str, float] = field(default_factory=dict)
    metadata: dict[str, Any] = field(default_factory=dict)
    faults: list[FaultRecord] = field(default_factory=list)
    repair_latencies: dict[str, float] = field(default_factory=dict)
    sla_violations: list[str] = field(default_factory=list)
    unfinished_vjobs: list[str] = field(default_factory=list)
    constraint_violations: list[ConstraintViolationRecord] = field(
        default_factory=list
    )
    trace: dict[str, Any] | None = None

    @property
    def average_switch_duration(self) -> float:
        significant = [s.duration for s in self.switches if s.action_count]
        if not significant:
            return 0.0
        return sum(significant) / len(significant)

    @property
    def switch_count(self) -> int:
        return sum(1 for s in self.switches if s.action_count)

    @property
    def total_switch_cost(self) -> int:
        return sum(s.cost for s in self.switches)

    @property
    def mean_repair_latency(self) -> float:
        """Average crash-to-running latency over the repaired vjobs (0.0
        when nothing crashed)."""
        if not self.repair_latencies:
            return 0.0
        return sum(self.repair_latencies.values()) / len(self.repair_latencies)

    @property
    def wasted_migrations(self) -> int:
        """Migration attempts aborted by fault injection across the run."""
        return sum(s.failed_migrations for s in self.switches)

    @property
    def lost_vjob_count(self) -> int:
        """Submitted vjobs that never completed — 0 on a healthy recovery."""
        return len(self.unfinished_vjobs)

    @property
    def constraint_violation_counts(self) -> dict[str, int]:
        """Violation events per constraint label over the whole run."""
        counts: dict[str, int] = {}
        for record in self.constraint_violations:
            counts[record.constraint] = counts.get(record.constraint, 0) + 1
        return counts

    @property
    def honoured_constraints(self) -> bool:
        """True when no constraint violation was observed during the run."""
        return not self.constraint_violations

    def completed(self, name: str) -> bool:
        return name in self.completion_times

    # ------------------------------------------------------------------ #
    # JSON round-trip                                                     #
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Full-fidelity JSON-safe form of the result (every series
        included: switches, samples, faults, repair latencies, constraint
        violations, metadata).  :meth:`from_dict` is the exact inverse —
        ``RunResult.from_dict(r.to_dict()) == r`` — so results travel over
        HTTP (the :mod:`repro.service` daemon's ``GET /result``) and into
        JSON stores without loss.  The ``"trace"`` key is present only on
        traced runs, so untraced documents are byte-identical to pre-trace
        ones."""
        data: dict[str, Any] = {
            "policy": self.policy,
            "makespan": self.makespan,
            "switches": [
                {
                    "time": s.time,
                    "cost": s.cost,
                    "duration": s.duration,
                    "migrations": s.migrations,
                    "runs": s.runs,
                    "stops": s.stops,
                    "suspends": s.suspends,
                    "resumes": s.resumes,
                    "local_resumes": s.local_resumes,
                    "used_fallback": s.used_fallback,
                    "failed_migrations": s.failed_migrations,
                }
                for s in self.switches
            ],
            "utilization": [
                {
                    "time": u.time,
                    "cpu_demand_units": u.cpu_demand_units,
                    "cpu_used_units": u.cpu_used_units,
                    "cpu_capacity_units": u.cpu_capacity_units,
                    "memory_used_mb": u.memory_used_mb,
                }
                for u in self.utilization
            ],
            "completion_times": dict(self.completion_times),
            "metadata": dict(self.metadata),
            "faults": [
                {
                    "time": f.time,
                    "kind": f.kind,
                    "target": f.target,
                    "detected_at": f.detected_at,
                    "affected_vjobs": list(f.affected_vjobs),
                    "detail": f.detail,
                }
                for f in self.faults
            ],
            "repair_latencies": dict(self.repair_latencies),
            "sla_violations": list(self.sla_violations),
            "unfinished_vjobs": list(self.unfinished_vjobs),
            "constraint_violations": [
                {
                    "time": v.time,
                    "constraint": v.constraint,
                    "phase": v.phase,
                    "message": v.message,
                    "stage": v.stage,
                }
                for v in self.constraint_violations
            ],
        }
        if self.trace is not None:
            data["trace"] = self.trace
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output (tolerant of absent
        optional series, so older stored records still load)."""
        return cls(
            makespan=float(data.get("makespan", 0.0)),
            policy=str(data.get("policy", "")),
            switches=[
                ContextSwitchRecord(
                    time=float(s["time"]),
                    cost=int(s["cost"]),
                    duration=float(s["duration"]),
                    migrations=int(s["migrations"]),
                    runs=int(s["runs"]),
                    stops=int(s["stops"]),
                    suspends=int(s["suspends"]),
                    resumes=int(s["resumes"]),
                    local_resumes=int(s["local_resumes"]),
                    used_fallback=bool(s.get("used_fallback", False)),
                    failed_migrations=int(s.get("failed_migrations", 0)),
                )
                for s in data.get("switches", [])
            ],
            utilization=[
                UtilizationSample(
                    time=float(u["time"]),
                    cpu_demand_units=int(u["cpu_demand_units"]),
                    cpu_used_units=int(u["cpu_used_units"]),
                    cpu_capacity_units=int(u["cpu_capacity_units"]),
                    memory_used_mb=int(u["memory_used_mb"]),
                )
                for u in data.get("utilization", [])
            ],
            completion_times={
                str(name): float(time)
                for name, time in data.get("completion_times", {}).items()
            },
            metadata=dict(data.get("metadata", {})),
            faults=[
                FaultRecord(
                    time=float(f["time"]),
                    kind=str(f["kind"]),
                    target=str(f["target"]),
                    detected_at=float(f.get("detected_at", 0.0)),
                    affected_vjobs=tuple(f.get("affected_vjobs", ())),
                    detail=str(f.get("detail", "")),
                )
                for f in data.get("faults", [])
            ],
            repair_latencies={
                str(name): float(latency)
                for name, latency in data.get("repair_latencies", {}).items()
            },
            sla_violations=list(data.get("sla_violations", [])),
            unfinished_vjobs=list(data.get("unfinished_vjobs", [])),
            constraint_violations=[
                ConstraintViolationRecord(
                    time=float(v["time"]),
                    constraint=str(v["constraint"]),
                    phase=str(v["phase"]),
                    message=str(v.get("message", "")),
                    stage=v.get("stage"),
                )
                for v in data.get("constraint_violations", [])
            ],
            trace=data.get("trace"),
        )

    def summary(self) -> dict[str, Any]:
        """The flat headline-metric row the baseline scoreboard keeps a
        subset of: one canonical flattening instead of ad-hoc row building
        at every call site."""
        return {
            "makespan": self.makespan,
            "switches": self.switch_count,
            "total_switch_cost": self.total_switch_cost,
            "migrations": sum(s.migrations for s in self.switches),
            "fallback_switches": sum(
                1 for s in self.switches if s.used_fallback
            ),
            "faults_injected": len(self.faults),
            "mean_repair_latency": self.mean_repair_latency,
            "sla_violations": len(self.sla_violations),
            "lost_vjobs": self.lost_vjob_count,
            "constraint_violations": len(self.constraint_violations),
            "planning_failures": self.metadata.get("planning_failures", 0),
        }
