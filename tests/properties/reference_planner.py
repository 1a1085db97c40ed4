"""The rebuild-per-pool plan construction, kept as the planner's oracle.

Until PR 19 :meth:`ReconfigurationPlanner.build` re-derived the whole
reconfiguration graph from a fresh copy of the fleet after every pool
(``3 + 2·pools`` configuration copies, ``pools + 1`` fleet scans).  The
shipped planner now derives the edge list once and carries it from pool to
pool over one working configuration; this module keeps the old loop —
copied verbatim, down to the defensive copies — and the recursive cycle
search it used, so ``test_planner_equivalence.py`` next to it can hold the
two against each other pool for pool.

:class:`RebuildPerPoolPlanner` inherits pool selection, the bypass choice
and the vjob regrouping unchanged (the one edit to the copied loop is that
it hands ``constraints`` to ``_bypass_action`` like the shipped loop does):
what differs is only *how the remaining work is known* after a pool.  It
lives with the tests because nothing in the shipped package may use it.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.constraints.base import PlacementConstraint
from repro.constraints.checker import check_plan
from repro.core.actions import Migrate
from repro.core.graph import ReconfigurationGraph
from repro.core.plan import Pool, ReconfigurationPlan, apply_pool_effects
from repro.core.planner import ReconfigurationPlanner
from repro.model.configuration import Configuration
from repro.model.errors import PlanningError


class RebuildPerPoolPlanner(ReconfigurationPlanner):
    """A planner that asks the two configurations again after every pool."""

    def build(
        self,
        current: Configuration,
        target: Configuration,
        vjob_of_vm: Optional[Mapping[str, str]] = None,
        constraints: Sequence[PlacementConstraint] = (),
    ) -> ReconfigurationPlan:
        plan = ReconfigurationPlan(source=current.copy())
        working = current.copy()
        max_pools = (
            self.options.max_pools
            if self.options.max_pools is not None
            else 2 * len(current.vm_names) + 8
        )

        while True:
            graph = ReconfigurationGraph(working.copy(), target)
            if graph.is_empty():
                break
            if len(plan.pools) >= max_pools:
                raise PlanningError(
                    f"plan construction exceeded {max_pools} pools; the target "
                    "configuration is probably unreachable"
                )
            pool = self._select_pool(working, graph)
            if not pool:
                bypass = self._bypass_action(working, graph, constraints)
                pool = Pool([bypass])
            plan.append_pool(pool)
            working = self._apply_pool(working, pool)

        if self.options.enforce_vjob_consistency and vjob_of_vm:
            self._regroup_vjob_resumes(plan, vjob_of_vm)
        if constraints:
            plan.constraint_violations = check_plan(plan, constraints)
        return plan

    @staticmethod
    def _apply_pool(working: Configuration, pool: Pool) -> Configuration:
        """Temporary configuration once every action of the pool completed."""
        result = working.copy()
        apply_pool_effects(result, pool)
        return result


def recursive_find_cycle(migrations: Sequence[Migrate]) -> list[Migrate]:
    """The recursive depth-first cycle search (one frame per node of the
    path, the path copied per edge) the planner's explicit-stack walk must
    agree with: same start order, same edge order, same cycle."""
    outgoing: dict[str, list[Migrate]] = {}
    for migration in migrations:
        outgoing.setdefault(migration.source_node, []).append(migration)

    visited: set[str] = set()

    def dfs(node: str, stack: list[str], path: list[Migrate]) -> list[Migrate]:
        if node in stack:
            # Back edge: the cycle is the suffix of ``path`` starting where
            # ``node`` was first pushed on the stack.
            return path[stack.index(node):]
        if node in visited:
            return []
        visited.add(node)
        stack.append(node)
        for migration in outgoing.get(node, ()):  # explore every edge
            found = dfs(migration.destination_node, stack, path + [migration])
            if found:
                return found
        stack.pop()
        return []

    for start in list(outgoing):
        cycle = dfs(start, [], [])
        if cycle:
            return cycle
    return []
