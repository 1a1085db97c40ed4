"""Execution of reconfiguration plans on the simulated cluster.

The executor plays the role of the paper's drivers (SSH commands / Xen API):
it walks the pools of a plan in order, runs the actions of each pool in
parallel, pipelines the suspend and resume actions of a pool one second apart
(sorted by hostname, as described in Section 4.1) so the VMs of a vjob are
paused in a fixed order while the bulk of the image writing overlaps, and
returns a detailed timing report the analysis layer uses for Figures 11-13.

With a :class:`~repro.sim.faults.FaultInjector` attached, execution becomes
*best-effort* instead of all-or-nothing: a migration the injector vetoes
aborts mid-flight (the VM stays on its source node, the attempt's duration is
wasted), and actions invalidated by an earlier failure are skipped rather
than raising.  Every failed or skipped action is recorded in
:attr:`ExecutionReport.failures` so the control loop can count wasted work
and re-plan on the next round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from .. import config
from ..constraints.base import PlacementConstraint
from ..constraints.checker import check_configuration
from ..core.actions import Action, ActionKind
from ..core.plan import ReconfigurationPlan
from ..model.errors import ExecutionError
from ..obs import span
from .cluster import SimulatedCluster
from .hypervisor import DEFAULT_HYPERVISOR, HypervisorModel

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .faults import FaultInjector


@dataclass(frozen=True)
class ActionExecution:
    """Timing of one action during the execution of a plan."""

    action: Action
    pool_index: int
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class FailedAction:
    """One action that did not take effect during a fault-injected switch.

    ``reason`` is ``"migration-fault"`` for a vetoed migration (the attempt
    ran for ``duration`` seconds before aborting) or ``"cascade-skip"`` for
    an action that became infeasible because an earlier action failed.
    """

    action: Action
    pool_index: int
    start: float
    duration: float
    reason: str

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class ConstraintViolationEvent:
    """A placement constraint broken by the *live* cluster state while a
    switch executed (observed at a pool boundary).

    Continuous satisfaction is checked against what actually happened —
    including the effects of fault injection — not against the plan's
    intended intermediate states.
    """

    time: float
    pool_index: int
    constraint: str
    message: str


@dataclass
class ExecutionReport:
    """Timing of a whole cluster-wide context switch.

    ``actions`` only contains the actions that took effect; attempts broken
    by fault injection land in ``failures`` (their wall-clock time still
    counts towards the switch duration — a wasted migration is not free).
    ``constraint_violations`` is populated when the executor is given
    placement constraints to watch (empty otherwise).
    """

    start: float
    actions: list[ActionExecution] = field(default_factory=list)
    pool_windows: list[tuple[float, float]] = field(default_factory=list)
    failures: list[FailedAction] = field(default_factory=list)
    constraint_violations: list[ConstraintViolationEvent] = field(
        default_factory=list
    )

    @property
    def end(self) -> float:
        if not self.actions and not self.failures:
            return self.start
        return max(
            [a.end for a in self.actions] + [f.end for f in self.failures]
        )

    @property
    def duration(self) -> float:
        return self.end - self.start

    def involved_nodes(self) -> set[str]:
        """Nodes touched by the switch — including nodes that only hosted an
        aborted attempt: a vetoed migration still ran its transfer (and a
        cascade-skip still occupied its window), so those nodes suffer the
        Section 2.3 interference slowdown too."""
        nodes: set[str] = set()
        for item in (*self.actions, *self.failures):
            for node in (item.action.source(), item.action.destination()):
                if node is not None:
                    nodes.add(node)
        return nodes

    def count(self, kind: ActionKind) -> int:
        return sum(1 for a in self.actions if a.action.kind is kind)


class PlanExecutor:
    """Apply a plan to a :class:`SimulatedCluster`, pool by pool.

    ``fault_injector`` (optional) turns on best-effort execution: migrations
    the injector vetoes abort without effect and feasibility violations are
    downgraded from :class:`~repro.model.errors.ExecutionError` to recorded
    skips, because an aborted action legitimately invalidates its dependants.
    Without an injector any infeasible action still raises — a plan that does
    not execute on a healthy cluster is a planner bug, not a fault.
    """

    def __init__(
        self,
        hypervisor: HypervisorModel = DEFAULT_HYPERVISOR,
        fault_injector: Optional["FaultInjector"] = None,
    ) -> None:
        self.hypervisor = hypervisor
        self.fault_injector = fault_injector

    def execute(
        self,
        plan: ReconfigurationPlan,
        cluster: SimulatedCluster,
        start_time: float = 0.0,
        constraints: Sequence[PlacementConstraint] = (),
    ) -> ExecutionReport:
        """Execute every pool of ``plan`` against ``cluster``.

        The cluster configuration is mutated as the actions complete; the
        returned report records when each action started and how long it took.
        With ``constraints``, the live configuration is validated at every
        pool boundary (continuous satisfaction against what *actually*
        happened, fault-injected deviations included) and each breach is
        recorded as a :class:`ConstraintViolationEvent`.
        """
        with span("execute") as trace_span:
            report = self._execute_impl(
                plan, cluster, start_time, constraints
            )
            trace_span.inc("pools", len(plan.pools))
            trace_span.inc("actions", len(report.actions))
            trace_span.inc("failed_actions", len(report.failures))
            trace_span.set(sim_duration=report.duration)
        return report

    def _execute_impl(
        self,
        plan: ReconfigurationPlan,
        cluster: SimulatedCluster,
        start_time: float,
        constraints: Sequence[PlacementConstraint],
    ) -> ExecutionReport:
        report = ExecutionReport(start=start_time)
        injector = self.fault_injector
        clock = start_time

        for pool_index, pool in enumerate(plan.pools):
            if injector is None:
                # Validate the pool before launching anything, mirroring the
                # feasibility guarantee of the plan construction.
                for action in pool:
                    if not action.is_feasible(cluster.configuration):
                        raise ExecutionError(
                            f"pool {pool_index}: action {action} not feasible "
                            "at execution time"
                        )

            ordered = sorted(
                pool.actions,
                key=lambda a: (a.destination() or a.source() or "", a.vm),
            )
            pipeline_offset = 0.0
            pool_end = clock
            executions: list[ActionExecution] = []
            for action in ordered:
                if action.kind in (ActionKind.SUSPEND, ActionKind.RESUME):
                    start = clock + pipeline_offset
                    pipeline_offset += config.VJOB_PIPELINE_DELAY_S
                else:
                    start = clock
                duration = self.hypervisor.action_duration(
                    action, cluster.configuration
                )
                if (
                    injector is not None
                    and action.kind is ActionKind.MIGRATE
                    and injector.should_fail_migration(action.vm, start)
                ):
                    # The transfer ran, then aborted: the time is wasted but
                    # the VM never left its source node.
                    failure = FailedAction(
                        action=action,
                        pool_index=pool_index,
                        start=start,
                        duration=duration,
                        reason="migration-fault",
                    )
                    report.failures.append(failure)
                    pool_end = max(pool_end, failure.end)
                    continue
                execution = ActionExecution(
                    action=action,
                    pool_index=pool_index,
                    start=start,
                    duration=duration,
                )
                executions.append(execution)
                pool_end = max(pool_end, execution.end)

            # Apply the pool's effects: liberating actions first, consumers
            # second (the end state is order independent, see the planner).
            applied: set[int] = set()
            for consumes in (False, True):
                for execution in executions:
                    if execution.action.consumes_resources() is not consumes:
                        continue
                    if injector is not None and not execution.action.is_feasible(
                        cluster.configuration
                    ):
                        report.failures.append(
                            FailedAction(
                                action=execution.action,
                                pool_index=pool_index,
                                start=execution.start,
                                duration=execution.duration,
                                reason="cascade-skip",
                            )
                        )
                        continue
                    cluster.apply_action(execution.action)
                    applied.add(id(execution))

            # Keep the scheduling order in the report regardless of the
            # liberate-then-consume application order.
            report.actions.extend(
                e for e in executions if id(e) in applied
            )
            report.pool_windows.append((clock, pool_end))
            clock = pool_end

            # Every constraint the live configuration breaks right now.
            report.constraint_violations.extend(
                ConstraintViolationEvent(
                    time=clock,
                    pool_index=pool_index,
                    constraint=violation.constraint,
                    message=violation.message,
                )
                for violation in check_configuration(
                    cluster.configuration, constraints
                )
            )

        return report
