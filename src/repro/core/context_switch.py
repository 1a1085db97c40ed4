"""High-level entry point to the cluster-wide context switch.

The :class:`ClusterContextSwitch` facade ties the pieces of Section 4 together:
the decision module supplies the desired state of each VM, the optimizer picks
a cheap viable placement, the planner sequences the actions into pools, and the
cost model prices the resulting plan.  This is the object the Entropy control
loop (:mod:`repro.api.loop`) manipulates at every iteration.  Every engine
solves in the calling process, as the paper's manager does (§4.3), so a
switch holds no resource between rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

from ..constraints import PlacementConstraint, violated_constraints
from ..cp.solver import ENGINES, SearchStatistics
from ..model.configuration import Configuration
from ..model.errors import PlanningError, SolverError
from ..model.vm import VMState
from ..obs import span
from .cost import PlanCost, plan_cost
from .optimizer import ContextSwitchOptimizer
from .plan import ReconfigurationPlan
from .planner import ReconfigurationPlanner


@dataclass
class ContextSwitchReport:
    """Everything a caller needs to know about one cluster-wide context
    switch: the target configuration, the feasible plan reaching it, and its
    cost breakdown."""

    current: Configuration
    target: Configuration
    plan: ReconfigurationPlan
    cost: PlanCost
    #: The solve raised and the switch goes to the fallback target instead.
    used_fallback: bool = False
    #: Repair-engine telemetry
    #: (:attr:`~repro.core.optimizer.OptimizationResult.repair`) when the
    #: switch was computed by ``engine="repair"`` / ``"repair-partitioned"``;
    #: ``None`` for the cold engines.
    repair: Optional[dict] = None
    #: CP search statistics of the optimizing solve that produced the
    #: target (merged across zones for the partitioned engines); ``None``
    #: when no search produced it (``plan_to``, a fallback).
    statistics: Optional[SearchStatistics] = None

    @property
    def total_cost(self) -> int:
        return self.cost.total


#: The composed engines: name -> (incremental repair on top?, the solving
#: strategy underneath).  Every other name is a propagation engine of the
#: monolithic optimizer, solved cold.
_COMPOSED_ENGINES = {
    "partitioned": (False, "partitioned"),
    "repair": (True, "event"),
    "repair-partitioned": (True, "partitioned"),
}

#: The engine a switch, a control loop and a ``Scenario`` run when none is named.
DEFAULT_ENGINE = "repair"

#: Executor kinds of the partitioned engines' zones, checked under every
#: engine: ``"serial"``, the zones solved in-process one after another, is
#: the only one left (:mod:`repro.scale.parallel`).
ZONE_EXECUTORS = ("serial",)


class ClusterContextSwitch:
    """Compute cluster-wide context switches between configurations."""

    def __init__(
        self,
        optimizer_timeout: float = 40.0,
        engine: str = DEFAULT_ENGINE,
        zone_executor: str = "serial",
    ) -> None:
        """``engine`` selects the solving strategy — the one engine menu,
        which the control loop and the ``Scenario`` facade pass through.
        Every engine solves the whole fleet in one step: the keep-in-place
        pass over every VM that must run, then, when it misses the lower
        bound, a search.

        * ``"repair"`` (:data:`DEFAULT_ENGINE`) and ``"repair-partitioned"``
          (:mod:`repro.repair`) keep the previous round's assignment, read
          what changed since from the configuration (its change journal and
          the dirty rule: arrivals, crash victims, diverged or misplaced VMs,
          overloaded hosts), freeze every other VM and solve the dirty
          region in one attempt, falling back to the whole-fleet step when
          the attempt finds nothing;
        * ``"event"``, the monolithic optimizer, solved cold every round;
        * ``"partitioned"``, whose search decomposes the cluster into
          independent placement zones solved one by one
          (:mod:`repro.scale.parallel`) and transparently falls back to the
          monolithic search when no decomposition exists;
        * ``"fixpoint"``, the reference propagation engine, solved cold.

        ``zone_executor`` must be one of :data:`ZONE_EXECUTORS` under every
        engine; it names how the partitioned engines run their zones, and
        there is one way left."""
        if engine not in ENGINES and engine not in _COMPOSED_ENGINES:
            raise SolverError(
                f"unknown engine {engine!r}; expected one of "
                f"{(*ENGINES, *_COMPOSED_ENGINES)}"
            )
        if zone_executor not in ZONE_EXECUTORS:
            raise SolverError(
                f"unknown zone executor {zone_executor!r}; expected one of "
                f"{ZONE_EXECUTORS}"
            )
        self.planner = ReconfigurationPlanner()
        repair, strategy = _COMPOSED_ENGINES.get(engine, (False, engine))
        if strategy == "partitioned":
            # Deferred import: repro.scale builds on repro.core.
            from ..scale.parallel import ParallelOptimizer

            self.optimizer = ParallelOptimizer(timeout=optimizer_timeout)
        else:
            self.optimizer = ContextSwitchOptimizer(
                timeout=optimizer_timeout, engine=strategy
            )
        if repair:
            # Deferred import: repro.repair builds on repro.core and scale.
            from ..repair import RepairOptimizer

            self.optimizer = RepairOptimizer(
                self.optimizer, timeout=optimizer_timeout
            )
        self.engine = engine

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """A no-op, kept for callers that still call it: no engine holds
        anything to release."""

    def mark_dirty(self, vms) -> None:
        """Flag VMs as perturbed where the configuration does not show it
        (the repair engines read every other perturbation from it); a no-op
        for the cold engines (they re-solve everything anyway)."""
        self.optimizer.mark_dirty(vms)

    # ------------------------------------------------------------------ #

    def compute(
        self,
        current: Configuration,
        target_states: Mapping[str, VMState],
        vjob_of_vm: Optional[Mapping[str, str]] = None,
        fallback_target: Union[
            Configuration, Callable[[], Optional[Configuration]], None
        ] = None,
        constraints: Sequence[PlacementConstraint] = (),
    ) -> ContextSwitchReport:
        """Derive a target configuration from desired VM states and plan the
        switch towards it — the one place a round degrades.

        Whatever the optimizing solve raises, the switch goes to
        ``fallback_target`` (e.g. the decision's FFD placement) when one is
        given and it honours ``constraints``: the report says
        ``used_fallback`` (no search statistics), the ``solve`` span the
        ``cause``.  Otherwise the error propagates, chained into a
        :class:`~repro.model.errors.PlanningError` when the fallback breaks
        the catalog.  ``fallback_target`` is a configuration or a
        zero-argument builder of one (``None``: no fallback); a builder is
        called only when the solve raised, so a round that solves never
        builds its fallback (the control loop passes one).
        ``constraints`` are placement relations (:mod:`repro.constraints`)
        the target must honour.  A policy that computes its own target (the
        FFD baseline of Section 5.1) goes to :meth:`plan_to` instead.
        """
        with span("solve", engine=self.engine) as solve_span:
            try:
                result = self.optimizer.optimize(
                    current, target_states, vjob_of_vm, constraints=constraints
                )
            except Exception as error:
                fallback = (
                    fallback_target() if callable(fallback_target) else fallback_target
                )
                if fallback is None:
                    raise
                if violated := violated_constraints(fallback, constraints):
                    raise PlanningError(
                        "the solve failed and the fallback configuration "
                        f"violates {', '.join(map(repr, violated))}"
                    ) from error
                solve_span.set(used_fallback=True, cause=type(error).__name__)
                report = self.plan_to(current, fallback, vjob_of_vm, constraints)
                report.used_fallback = True
                return report
        return ContextSwitchReport(
            current=current,
            target=result.target,
            plan=result.plan,
            cost=result.price,
            repair=result.repair,
            statistics=result.statistics,
        )

    def plan_to(
        self,
        current: Configuration,
        target: Configuration,
        vjob_of_vm: Optional[Mapping[str, str]] = None,
        constraints: Sequence[PlacementConstraint] = (),
    ) -> ContextSwitchReport:
        """Plan the switch towards an explicit target configuration.

        ``constraints`` only turn on continuous-satisfaction bookkeeping here
        (the target is the caller's responsibility); violations of
        intermediate states land on ``plan.constraint_violations``.
        """
        plan = self.planner.build(current, target, vjob_of_vm, constraints=constraints)
        return ContextSwitchReport(
            current=current,
            target=target,
            plan=plan,
            cost=plan_cost(plan),
        )
