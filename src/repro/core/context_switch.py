"""High-level entry point to the cluster-wide context switch.

The :class:`ClusterContextSwitch` facade ties the pieces of Section 4 together:
the decision module supplies the desired state of each VM, the optimizer picks
a cheap viable placement, the planner sequences the actions into pools, and the
cost model prices the resulting plan.  This is the object the Entropy control
loop (:mod:`repro.api.loop`) manipulates at every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..constraints import PlacementConstraint
from ..cp.solver import SearchStatistics
from ..model.configuration import Configuration
from ..model.vm import VMState
from ..obs import span
from .cost import PlanCost, plan_cost
from .optimizer import ContextSwitchOptimizer, OptimizationResult
from .plan import ReconfigurationPlan
from .planner import PlannerOptions, ReconfigurationPlanner


@dataclass
class ContextSwitchReport:
    """Everything a caller needs to know about one cluster-wide context
    switch: the target configuration, the feasible plan reaching it, and its
    cost breakdown."""

    current: Configuration
    target: Configuration
    plan: ReconfigurationPlan
    cost: PlanCost
    used_fallback: bool = False
    #: Repair-engine telemetry
    #: (:attr:`~repro.core.optimizer.OptimizationResult.repair`) when the
    #: switch was computed by ``engine="repair"`` / ``"repair-partitioned"``;
    #: ``None`` for the cold engines.
    repair: Optional[dict] = None
    #: CP search statistics of the optimizing solve that produced the
    #: target (merged across zones for the partitioned engines); ``None``
    #: when no search ran (:meth:`ClusterContextSwitch.plan_to`).
    statistics: Optional[SearchStatistics] = None

    @property
    def total_cost(self) -> int:
        return self.cost.total

    def summary(self) -> dict[str, int]:
        data = self.plan.summary()
        data["cost"] = self.total_cost
        return data


#: The composed engines: name -> (incremental repair on top?, the solving
#: strategy underneath).  Every other name is a propagation engine of the
#: monolithic optimizer, solved cold.
_COMPOSED_ENGINES = {
    "partitioned": (False, "partitioned"),
    "repair": (True, "event"),
    "repair-partitioned": (True, "partitioned"),
}


class ClusterContextSwitch:
    """Compute cluster-wide context switches between configurations."""

    def __init__(
        self,
        optimizer_timeout: float = 40.0,
        planner_options: Optional[PlannerOptions] = None,
        use_optimizer: bool = True,
        engine: str = "event",
        zone_executor: str = "auto",
    ) -> None:
        """``engine`` selects the solving strategy: ``"event"``, the
        monolithic optimizer; ``"partitioned"``, which decomposes the
        cluster into independent placement zones solved one by one or
        concurrently (:mod:`repro.scale.parallel`) and transparently falls
        back to the monolithic solve when no decomposition exists; or the
        incremental ``"repair"`` / ``"repair-partitioned"`` engines
        (:mod:`repro.repair`), which freeze the VMs outside the round's
        perturbed region and solve the dirty region only, falling back to
        the full solve on infeasibility.  ``zone_executor`` only applies
        to the partitioned engines, which by default decide per solve
        whether their zones are worth worker processes."""
        self.planner = ReconfigurationPlanner(planner_options)
        repair, strategy = _COMPOSED_ENGINES.get(engine, (False, engine))
        if strategy == "partitioned":
            # Deferred import: repro.scale builds on repro.core.
            from ..scale.parallel import ParallelOptimizer

            self.optimizer = ParallelOptimizer(
                timeout=optimizer_timeout,
                planner_options=planner_options,
                zone_executor=zone_executor,
            )
        else:
            self.optimizer = ContextSwitchOptimizer(
                timeout=optimizer_timeout,
                planner_options=planner_options,
                engine=strategy,
            )
        if repair:
            # Deferred import: repro.repair builds on repro.core and scale.
            from ..repair import RepairOptimizer

            self.optimizer = RepairOptimizer(
                self.optimizer, timeout=optimizer_timeout
            )
        self.engine = engine
        self.use_optimizer = use_optimizer

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release solver resources — the partitioned engine keeps the
        worker-process pool it forked, if any, across rounds.  Idempotent,
        and the switch remains usable afterwards (the next solve that needs
        the pool respawns it); a no-op for the monolithic engines."""
        self.optimizer.close()

    def mark_dirty(self, vms) -> None:
        """Forward the round's perturbed VMs to the repair engine; a no-op
        for the cold engines (they re-solve everything anyway)."""
        self.optimizer.mark_dirty(vms)

    def __enter__(self) -> "ClusterContextSwitch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    def compute(
        self,
        current: Configuration,
        target_states: Mapping[str, VMState],
        vjob_of_vm: Optional[Mapping[str, str]] = None,
        fallback_target: Optional[Configuration] = None,
        constraints: Sequence[PlacementConstraint] = (),
    ) -> ContextSwitchReport:
        """Derive a target configuration from desired VM states and plan the
        switch towards it.

        When ``use_optimizer`` is False the ``fallback_target`` (e.g. an FFD
        placement) is planned directly, reproducing the baseline behaviour of
        Section 5.1.  ``constraints`` are placement relations
        (:mod:`repro.constraints`) the target must honour.
        """
        if self.use_optimizer:
            with span("solve", engine=self.engine) as solve_span:
                result: OptimizationResult = self.optimizer.optimize(
                    current,
                    target_states,
                    vjob_of_vm=vjob_of_vm,
                    fallback_target=fallback_target,
                    constraints=constraints,
                )
                if result.used_fallback:
                    solve_span.set(used_fallback=True)
            return ContextSwitchReport(
                current=current,
                target=result.target,
                plan=result.plan,
                cost=plan_cost(result.plan),
                used_fallback=result.used_fallback,
                repair=result.repair,
                statistics=result.statistics,
            )
        if fallback_target is None:
            raise ValueError(
                "use_optimizer=False requires an explicit fallback_target"
            )
        return self.plan_to(current, fallback_target, vjob_of_vm, constraints)

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
