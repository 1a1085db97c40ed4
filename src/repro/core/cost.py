"""Cost model of a cluster-wide context switch (Section 4.2).

The cost of a whole plan is the sum of the *total* costs of all its actions.
The total cost of an action is the sum of the costs of the pools that precede
its own pool, plus the *local* cost of the action (Table 1).  The cost of a
pool is the cost of its most expensive action.  The model conservatively
assumes that delaying an action degrades the context switch, which is why the
optimizer tries to schedule actions as early as possible and to maximize pool
sizes (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model.configuration import Configuration
from .actions import Action
from .plan import Pool, ReconfigurationPlan


@dataclass(frozen=True)
class ActionCost:
    """Cost breakdown for a single action of a plan."""

    action: Action
    pool_index: int
    local_cost: int
    delay_cost: int

    @property
    def total_cost(self) -> int:
        return self.local_cost + self.delay_cost


@dataclass(frozen=True)
class PlanCost:
    """Cost breakdown of a whole reconfiguration plan."""

    actions: tuple[ActionCost, ...]
    pool_costs: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(item.total_cost for item in self.actions)

    @property
    def local_total(self) -> int:
        """Sum of the local costs only (the lower bound the optimizer uses)."""
        return sum(item.local_cost for item in self.actions)

    def __int__(self) -> int:
        return self.total


def pool_cost(pool: Pool, configuration: Configuration) -> int:
    """Cost of a pool: its most expensive action (0 for an empty pool)."""
    return pool.cost(configuration)


def plan_cost(plan: ReconfigurationPlan, configuration: Configuration | None = None) -> PlanCost:
    """Evaluate the full cost model on a plan.

    ``configuration`` provides the memory demands used by Table 1; it defaults
    to the plan's source configuration (memory demands do not change during a
    context switch).
    """
    reference = configuration or plan.source
    pool_costs: list[int] = [pool_cost(pool, reference) for pool in plan.pools]
    breakdown: list[ActionCost] = []
    elapsed = 0
    for index, pool in enumerate(plan.pools):
        for action in pool:
            breakdown.append(
                ActionCost(
                    action=action,
                    pool_index=index,
                    local_cost=action.cost(reference),
                    delay_cost=elapsed,
                )
            )
        elapsed += pool_costs[index]
    return PlanCost(actions=tuple(breakdown), pool_costs=tuple(pool_costs))
