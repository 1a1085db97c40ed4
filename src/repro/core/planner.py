"""Construction of feasible reconfiguration plans (Section 4.1).

The planner turns a (current configuration, target configuration) pair into a
:class:`~repro.core.plan.ReconfigurationPlan` whose pools satisfy both kinds of
plannification issues identified by the paper:

* **sequential constraints** — an action that requires resources only enters a
  pool once the actions that liberate those resources have been placed in an
  earlier pool;
* **inter-dependent constraints** — when a set of non-feasible migrations forms
  a cycle, the cycle is broken with a *bypass migration* that parks one VM on a
  pivot node outside the cycle.

A final pass restores the consistency of vjobs: all the resume actions of the
VMs of a vjob are regrouped into the pool that initially contained the last of
them, so the VMs of a distributed application are suspended and resumed
together within a short period (the executor then pipelines them one second
apart, sorted by hostname).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Mapping, Optional, Sequence

from ..constraints.base import PlacementConstraint
from ..constraints.checker import check_plan
from ..constraints.domains import vm_domains
from ..model.configuration import Configuration
from ..model.errors import NoPivotAvailableError, PlanningError
from ..model.overlay import Overlay
from ..model.resources import ResourceVector
from .actions import ActionKind, Migrate, Resume
from .graph import ReconfigurationGraph
from .plan import Pool, ReconfigurationPlan, apply_pool_effects


@dataclass
class PlannerOptions:
    """Tunables of the plan construction."""

    #: Regroup the suspend/resume actions of a vjob in a single pool.
    enforce_vjob_consistency: bool = True
    #: Hard bound on the number of pools, as a safety net against bugs in the
    #: target configuration (a correct construction needs at most one pool per
    #: action plus one bypass per cycle).
    max_pools: Optional[int] = None


class ReconfigurationPlanner:
    """Builds feasible plans between two configurations."""

    def __init__(self, options: Optional[PlannerOptions] = None) -> None:
        self.options = options or PlannerOptions()

    # ------------------------------------------------------------------ #
    # public API                                                          #
    # ------------------------------------------------------------------ #

    def build(
        self,
        current: Configuration,
        target: Configuration,
        vjob_of_vm: Optional[Mapping[str, str]] = None,
        constraints: Sequence[PlacementConstraint] = (),
        changed: Optional[Collection[str]] = None,
        settled: Optional[Dict[int, Optional[str]]] = None,
    ) -> ReconfigurationPlan:
        """Build a feasible plan from ``current`` to ``target``.

        ``vjob_of_vm`` maps VM names to vjob names and is only used by the
        consistency pass; omit it to plan VMs independently.

        ``changed`` names, in registration order, the VMs whose state or
        host differs between the two configurations, for a caller that
        built ``target`` from ``current`` and so knows; without it the two
        are compared.

        ``constraints`` turns on continuous-satisfaction bookkeeping: every
        intermediate state of the finished plan (each pool boundary) is
        validated with the independent checker, and any violation lands on
        ``plan.constraint_violations`` (the control loop keeps running and
        the run reports the violation timeline).  They also steer the one
        placement the planner picks itself: the pivot of a bypass migration
        (:meth:`_bypass_action`).  ``settled`` is what the caller knows of
        the constraints' answers on ``current``, handed to the check
        (:func:`~repro.constraints.checker.check_plan`).
        """
        plan = ReconfigurationPlan(source=current.copy())
        # One working configuration, written pool by pool as a delta over
        # the plan's source, and one edge list, derived here and shortened
        # by what each pool applied.
        working = Overlay(plan.source)
        graph = ReconfigurationGraph(working, target, changed=changed)
        max_pools = (
            self.options.max_pools
            if self.options.max_pools is not None
            else 2 * current.vm_count + 8
        )

        while not graph.is_empty():
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
            apply_pool_effects(working, pool)
            graph.advance(pool)

        if self.options.enforce_vjob_consistency and vjob_of_vm:
            self._regroup_vjob_resumes(plan, vjob_of_vm)
        if constraints:
            plan.constraint_violations = check_plan(
                plan, constraints, settled=settled
            )
        return plan

    # ------------------------------------------------------------------ #
    # pool selection                                                      #
    # ------------------------------------------------------------------ #

    def _select_pool(self, working: Configuration, graph: ReconfigurationGraph) -> Pool:
        """Select every action directly feasible against ``working``.

        Liberating actions (suspend, stop) are always feasible.  Consuming
        actions (run, resume, migrate) are admitted conservatively: each must
        fit on its destination given the consumers already admitted in the same
        pool, without counting the resources that same-pool liberating actions
        will free (those only become available in the next pool).
        """
        pool = Pool()
        liberators = [a for a in graph.actions if not a.consumes_resources()]
        consumers = [a for a in graph.actions if a.consumes_resources()]

        for action in liberators:
            if action.is_feasible(working):
                pool.add(action)

        # Admit consumers in decreasing demand order so large VMs get the first
        # pick of the free space (mirrors the FFD flavour of the heuristics).
        # A consumer is admitted only if it fits on its destination given the
        # consumers already admitted in this pool — the resources liberated by
        # same-pool actions are deliberately not counted, they only become
        # available to the next pool.
        consumers.sort(
            key=lambda a: working.vm(a.vm).demand.as_tuple(), reverse=True
        )
        reserved: dict[str, ResourceVector] = {}
        for action in consumers:
            if not action.is_feasible(working):
                continue
            destination = action.destination()
            demand = working.vm(action.vm).demand
            already = reserved.get(destination, ResourceVector(0, 0))
            if (already + demand).fits_in(working.free_capacity(destination)):
                reserved[destination] = already + demand
                pool.add(action)
        return pool

    # ------------------------------------------------------------------ #
    # inter-dependent cycles and bypass migrations                        #
    # ------------------------------------------------------------------ #

    def _bypass_action(
        self,
        working: Configuration,
        graph: ReconfigurationGraph,
        constraints: Sequence[PlacementConstraint] = (),
    ) -> Migrate:
        """Break a cycle of non-feasible migrations with a bypass migration.

        A pivot node outside the cycle temporarily hosts one of the cycle's
        VMs; once that VM has left, at least one other migration of the cycle
        becomes feasible.  The following pools bring the parked VM to its
        final destination (its edge of the graph now leaves from the pivot).

        Under ``constraints`` a pivot inside the parked VM's unary domain
        (its fence, outside its bans) is preferred; only when none has room
        does the VM park wherever it fits, and the checker then records the
        transient violation on the plan.
        """
        migrations = [
            a for a in graph.actions if isinstance(a, Migrate)
        ]
        if not migrations:
            raise PlanningError(
                "no feasible action and no pending migration: the target "
                "configuration is not reachable (is it viable?)"
            )
        cycle = self._find_cycle(migrations)
        if not cycle:
            raise PlanningError(
                "no feasible action but the pending migrations do not form a "
                "cycle: the target configuration is not reachable"
            )

        cycle_nodes = {m.source_node for m in cycle} | {
            m.destination_node for m in cycle
        }
        # Prefer parking the smallest VM of the cycle on the pivot node.
        candidates = sorted(
            cycle,
            key=lambda m: working.vm(m.vm).memory,
        )
        domains = vm_domains(working, [m.vm for m in cycle], constraints)

        for honour_domains in (True, False):
            # A pivot outside the cycle first; failing that any node that
            # can host a VM of the cycle, even one inside it: this still
            # unlocks the cycle although the paper prefers an outside pivot.
            for outside_cycle in (True, False):
                for migration in candidates:
                    vm = working.vm(migration.vm)
                    excluded = cycle_nodes if outside_cycle else {migration.source_node}
                    allowed = domains[migration.vm] if honour_domains else None
                    for node in working.node_names:
                        if node in excluded:
                            continue
                        if allowed is not None and node not in allowed:
                            continue
                        if working.can_host(node, vm):
                            return Migrate(
                                vm=migration.vm,
                                source_node=migration.source_node,
                                destination_node=node,
                            )
        raise NoPivotAvailableError(
            "no node can temporarily host any VM of the migration cycle"
        )

    @staticmethod
    def _find_cycle(migrations: Sequence[Migrate]) -> list[Migrate]:
        """Find a cycle in the directed node graph induced by the migrations.

        Returns the migrations forming the cycle, or an empty list when the
        graph is acyclic.  A depth-first search over the node graph is used,
        keeping the migration taken to reach each node on the current path
        so the cycle's edges can be reported — on an explicit stack: the
        path is as long as the longest chain of pending migrations, which
        the interpreter's recursion limit must not bound.
        """
        outgoing: dict[str, list[Migrate]] = {}
        for migration in migrations:
            outgoing.setdefault(migration.source_node, []).append(migration)

        visited: set[str] = set()
        for start in outgoing:
            if start in visited:
                continue
            visited.add(start)
            #: The nodes of the current path in order, each with its depth
            #: on it, and the migrations between them: ``path[i]`` leaves
            #: the node of depth ``i``.
            depth = {start: 0}
            path: list[Migrate] = []
            #: Per node of the path, its edges still to explore.
            pending = [iter(outgoing[start])]
            while pending:
                migration = next(pending[-1], None)
                if migration is None:
                    pending.pop()
                    depth.popitem()
                    if path:
                        path.pop()
                    continue
                node = migration.destination_node
                if node in depth:
                    # Back edge: the cycle is the path from where ``node``
                    # entered it, closed by this migration.
                    return path[depth[node]:] + [migration]
                if node in visited:
                    continue
                visited.add(node)
                depth[node] = len(depth)
                path.append(migration)
                pending.append(iter(outgoing.get(node, ())))
        return []

    # ------------------------------------------------------------------ #
    # vjob consistency                                                    #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _regroup_vjob_resumes(
        plan: ReconfigurationPlan, vjob_of_vm: Mapping[str, str]
    ) -> None:
        """Move every resume action of a vjob into the pool that initially
        contains the last of them (Section 4.1).

        Delaying a resume never invalidates the plan: the destination space was
        reserved for the VM from the original pool onwards, so it is still free
        when the regrouped pool starts.  Suspend actions need no treatment:
        being always feasible, the construction already groups them in the
        first pool.
        """
        # vjob name -> list of (pool index, action)
        resumes: dict[str, list[tuple[int, Resume]]] = {}
        for index, pool in enumerate(plan.pools):
            for action in pool:
                if action.kind is ActionKind.RESUME:
                    vjob = vjob_of_vm.get(action.vm)
                    if vjob is not None:
                        resumes.setdefault(vjob, []).append((index, action))

        for vjob, entries in resumes.items():
            if len(entries) <= 1:
                continue
            last_pool = max(index for index, _ in entries)
            for index, action in entries:
                if index == last_pool:
                    continue
                plan.pools[index].actions.remove(action)
                plan.pools[last_pool].actions.append(action)

        # Remove pools emptied by the regrouping and sort each pool by
        # destination hostname then VM name so the executor can pipeline the
        # actions deterministically.
        plan.pools = [pool for pool in plan.pools if pool]
        for pool in plan.pools:
            pool.actions.sort(
                key=lambda a: (a.kind.value, a.destination() or a.source() or "", a.vm)
            )


def build_plan(
    current: Configuration,
    target: Configuration,
    vjob_of_vm: Optional[Mapping[str, str]] = None,
    options: Optional[PlannerOptions] = None,
    constraints: Sequence[PlacementConstraint] = (),
) -> ReconfigurationPlan:
    """Module-level convenience wrapper around :class:`ReconfigurationPlanner`."""
    return ReconfigurationPlanner(options).build(
        current, target, vjob_of_vm, constraints=constraints
    )
