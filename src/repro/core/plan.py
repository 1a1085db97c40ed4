"""Reconfiguration plans: ordered pools of parallel actions (Section 4.1).

A plan is a sequence of *pools*.  Pools are executed sequentially while the
actions of one pool run in parallel.  A plan is *feasible* when every action is
feasible against the temporary configuration obtained by applying all previous
pools, and *correct* for a target configuration when applying the whole plan to
the source configuration produces that target assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..model.configuration import Configuration
from ..model.errors import PlanningError
from ..model.resources import ResourceVector
from .actions import Action, ActionKind


def apply_pool_effects(configuration: Configuration, pool: Iterable[Action]) -> None:
    """Apply a pool's actions to ``configuration`` in place: liberating
    actions first, consumers second.  The end state is order-independent
    (one action touches at most one VM); this is the single definition of
    the pool end-state convention shared by plan application, the planner's
    working states and the constraint checker's stage walk."""
    for action in pool:
        if not action.consumes_resources():
            action.apply(configuration)
    for action in pool:
        if action.consumes_resources():
            action.apply(configuration)


@dataclass
class Pool:
    """A set of actions feasible in parallel."""

    actions: list[Action] = field(default_factory=list)

    def add(self, action: Action) -> None:
        self.actions.append(action)

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self) -> Iterator[Action]:
        return iter(self.actions)

    def __bool__(self) -> bool:
        return bool(self.actions)

    def cost(self, configuration: Configuration) -> int:
        """Cost of a pool: the cost of its most expensive action."""
        if not self.actions:
            return 0
        return max(action.cost(configuration) for action in self.actions)

    def kinds(self) -> dict[ActionKind, int]:
        counts: dict[ActionKind, int] = {}
        for action in self.actions:
            counts[action.kind] = counts.get(action.kind, 0) + 1
        return counts

    def __str__(self) -> str:
        return "{" + ", ".join(str(a) for a in self.actions) + "}"


@dataclass
class ReconfigurationPlan:
    """An ordered sequence of pools transforming ``source`` into a target
    assignment.

    ``constraint_violations`` is filled by the planner when placement
    constraints are supplied: each entry is a
    :class:`repro.constraints.checker.Violation` flagging an intermediate
    state (pool boundary) that breaks a constraint — continuous satisfaction
    bookkeeping, empty on unconstrained plans.
    """

    source: Configuration
    pools: list[Pool] = field(default_factory=list)
    constraint_violations: list = field(default_factory=list)

    # -- construction ---------------------------------------------------------

    def append_pool(self, pool: Pool) -> None:
        if pool:
            self.pools.append(pool)

    # -- basic queries --------------------------------------------------------

    def actions(self) -> list[Action]:
        return [action for pool in self.pools for action in pool]

    def action_count(self) -> int:
        return sum(len(pool) for pool in self.pools)

    def count(self, kind: ActionKind) -> int:
        return sum(1 for action in self.actions() if action.kind is kind)

    def __len__(self) -> int:
        return len(self.pools)

    def __iter__(self) -> Iterator[Pool]:
        return iter(self.pools)

    # -- semantics ------------------------------------------------------------

    def apply(self, configuration: Configuration | None = None) -> Configuration:
        """Apply every pool in order and return the resulting configuration.

        Raises :class:`PlanningError` if an action is not feasible when its
        pool starts — i.e. the plan violates the sequential constraints.
        """
        current = (configuration or self.source).copy()
        for index, pool in enumerate(self.pools):
            # Every action of the pool must be feasible before the pool starts.
            for action in pool:
                if not action.is_feasible(current):
                    raise PlanningError(
                        f"pool {index}: action {action} is not feasible"
                    )
            # Conservative parallel feasibility: the consumers of the pool must
            # fit on their destination nodes *without* counting the resources
            # that same-pool actions liberate (those only become available once
            # the pool completes).
            incoming: dict[str, list[Action]] = {}
            for action in pool:
                destination = action.destination()
                if destination is not None:
                    incoming.setdefault(destination, []).append(action)
            for node, actions in incoming.items():
                demand = ResourceVector.total(
                    current.vm(a.vm).demand for a in actions
                )
                if not demand.fits_in(current.free_capacity(node)):
                    raise PlanningError(
                        f"pool {index}: the actions targeting node {node} do "
                        "not fit in parallel"
                    )
            next_configuration = current.copy()
            apply_pool_effects(next_configuration, pool)
            current = next_configuration
        return current

    def check_reaches(self, target: Configuration) -> None:
        """Verify that applying the plan yields the target assignment."""
        result = self.apply()
        if not result.same_assignment(target):
            raise PlanningError("the plan does not reach the expected configuration")

    # -- reporting ------------------------------------------------------------

    def summary(self) -> dict[str, int]:
        counts = {kind.value: 0 for kind in ActionKind}
        for action in self.actions():
            counts[action.kind.value] += 1
        counts["pools"] = len(self.pools)
        counts["actions"] = self.action_count()
        return counts

    def __str__(self) -> str:
        lines = [f"ReconfigurationPlan({self.action_count()} actions, "
                 f"{len(self.pools)} pools)"]
        for index, pool in enumerate(self.pools):
            lines.append(f"  pool {index}: {pool}")
        return "\n".join(lines)


def plan_from_pools(source: Configuration, pools: Sequence[Sequence[Action]]) -> ReconfigurationPlan:
    """Convenience constructor used by tests."""
    plan = ReconfigurationPlan(source=source.copy())
    for actions in pools:
        plan.append_pool(Pool(list(actions)))
    return plan
