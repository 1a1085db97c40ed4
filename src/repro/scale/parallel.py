"""Solving placement zones one after another and merging the sub-plans.

:class:`ParallelOptimizer` is a
:class:`~repro.core.optimizer.ContextSwitchOptimizer` whose search is
decomposed: it partitions the instance with
:func:`repro.scale.partition.partition`, solves every zone in-process, one
after another, and merges the per-zone assignments deterministically into
one global assignment, which the base class turns into a target, a plan and
a price exactly as it does its own.  The merged plan is therefore exactly as
checker-validated as a monolithic one: the planner re-applies the whole
constraint catalog to every intermediate state.

Tracing: every zone opens a ``zone`` span around its ``cp.solve``.

Why this is sound: the partitioner guarantees that zone node sets are
disjoint and that every zone VM's candidate nodes lie inside its zone, so

* per-zone bin packing equals global bin packing (no placement can cross a
  zone boundary), and
* every relational constraint is confined to one zone, whose sub-model
  compiles and enforces it.

One deadline bounds the whole solve: the ``deadline`` argument, or the
constructor's ``timeout`` from the call's entry.  The partition, every zone
and the monolithic re-solve run against it, so each zone gets what the
earlier ones left and a partitioned round stays within the per-round time
budget the monolithic engine honours.  When the partitioner finds no
decomposition — or any zone turns out infeasible by the deadline, or the
planner cannot reach the merged target (a ``PlanningError``) — the optimizer
re-solves with the inherited monolithic search, so ``engine="partitioned"``
is always safe to request.  That re-solve gets the same deadline and nothing
past it: a round the zones starved answers with the keep-in-place
incumbent, or raises.  A solve that finds nothing raises, as the monolithic
one does.

Sub-problem extraction (:func:`repro.core.optimizer.extract`): a zone's
sub-configuration contains only the zone's nodes and VMs.  A zone VM whose
current host (or suspend image) lies outside the zone is represented as
*waiting* in the sub-configuration — its true movement cost is then a
constant (the same for every zone node), so the arg-min placement is
unaffected and the exact cost is restored by the global planning pass.

Zones serve the whole-fleet step of
:meth:`~repro.core.optimizer.ContextSwitchOptimizer.optimize` only, of which
this optimizer overrides two things: whether the keep-in-place pass may
answer first — only when every placed VM has a *tight* domain
(:func:`~repro.scale.partition.is_tight`): the decomposition would be exact,
so no home and no domain crosses a zone and the zones' incumbents compose to
that one pass — and the search when it declines.  A round the pass answers
cuts no zone (an answer the planner cannot reach raises, as it does in the
monolithic optimizer); a solve handed the repair engine's dirty region is
the inherited attempt.  Nothing is kept across rounds but the unary domains
(:attr:`ParallelOptimizer.domains`, inherited).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Callable, List, Mapping, Optional, Sequence

from ..constraints.base import PlacementConstraint
from ..core.optimizer import (
    ContextSwitchOptimizer,
    Found,
    OptimizationResult,
    extract,
)
from ..cp import SearchStatistics
from ..model.configuration import Configuration
from ..model.errors import PlanningError, SolverError
from ..model.vm import VMState
from ..obs import span
from .partition import PartitionResult, Zone, is_tight, partition


@dataclass
class ZoneOutcome:
    """One zone's solve result, as
    :attr:`~repro.core.optimizer.OptimizationResult.zone_reports` keeps
    it."""

    index: int
    assignment: Optional[dict[str, str]]
    statistics: SearchStatistics
    #: The zone's size.
    node_count: int = 0
    vm_count: int = 0


def build_zone_configuration(current: Configuration, zone: Zone) -> Configuration:
    """A zone's sub-configuration (:func:`~repro.core.optimizer.extract`):
    its nodes and VMs."""
    return extract(current, zone.nodes, zone.vms)


def solve_zone(
    zone: Zone, configuration: Configuration, deadline: float
) -> ZoneOutcome:
    """Solve one zone by ``deadline`` (a :func:`time.monotonic` instant)
    under a ``zone`` span.  ``configuration`` is the zone's extracted
    *sub*-configuration (:func:`build_zone_configuration`), not the full
    cluster."""
    with span("zone", zone=zone.index, vms=len(zone.vms), nodes=len(zone.nodes)):
        # Every VM the zone extracted is to run: its wanted states are
        # complete as built, and the search reads no list of changed VMs.
        states = dict.fromkeys(configuration.vm_names, VMState.RUNNING)
        assignment, statistics, _ = ContextSwitchOptimizer().search_assignment(
            configuration,
            states,
            constraints=zone.constraints,
            deadline=deadline,
            completed=(states, ()),
        )
        return ZoneOutcome(
            index=zone.index,
            assignment=assignment,
            statistics=statistics,
            node_count=len(zone.nodes),
            vm_count=len(zone.vms),
        )


def merge_statistics(
    outcomes: Sequence[ZoneOutcome],
    exact: bool = False,
) -> SearchStatistics:
    """Aggregate per-zone search statistics: effort counters and the
    elapsed time add up (the zones run one after another), and quality
    flags compose conservatively (optimal only if *every* zone proved it
    AND the partition restricted nothing).

    ``exact`` says whether the decomposition restricted nothing
    (:attr:`~repro.scale.partition.PartitionResult.exact`).  Sharded and
    heuristically-anchored partitions are domain restrictions, so even when
    every zone proved its *local* optimum the merged solution is not
    provably the global one — ``proven_optimal`` is cleared.  The default
    fails safe: a merge never claims optimality unless the caller vouches
    for the partition's exactness."""
    merged = SearchStatistics()
    for outcome in outcomes:
        stats = outcome.statistics
        merged.nodes += stats.nodes
        merged.backtracks += stats.backtracks
        merged.solutions += stats.solutions
        merged.propagations += stats.propagations
        merged.events += stats.events
        merged.elapsed += stats.elapsed
        merged.timed_out = merged.timed_out or stats.timed_out
        merged.limit_reached = merged.limit_reached or stats.limit_reached
    merged.proven_optimal = (
        exact
        and bool(outcomes)
        and all(o.statistics.proven_optimal for o in outcomes)
    )
    return merged


class ParallelOptimizer(ContextSwitchOptimizer):
    """Partition the instance into zones and solve them one by one.

    The constructor takes :class:`ContextSwitchOptimizer`'s ``timeout`` (the
    zones and the monolithic re-solve run the ``event`` propagation engine)
    and adds ``shards`` (the shard count of the k-way fallback, 4 by
    default; ``None`` disables sharding so only constraint-induced
    partitions are used).
    """

    def __init__(
        self,
        timeout: float = 40.0,
        shards: int | str | None = "auto",
    ) -> None:
        if shards not in ("auto", None) and (
            type(shards) is not int or shards < 1
        ):
            raise SolverError(
                f"shards must be 'auto', None or an int >= 1, not {shards!r}"
            )
        super().__init__(timeout=timeout)
        #: Fallback shard count: ``"auto"`` is 4, ``None`` disables the
        #: k-way sharding fallback entirely, an int fixes the count.
        self.shards = 4 if shards == "auto" else shards

    # ------------------------------------------------------------------ #

    def _may_keep_in_place(
        self,
        current: Configuration,
        vms: Sequence[str],
        domains: Mapping[str, Optional[AbstractSet[str]]],
    ) -> bool:
        """Only when every VM to place is *tight* (:func:`is_tight`, judged
        once per domain object): the decomposition would then be exact."""
        node_count = len(current.node_names)
        distinct = {id(domain): domain for domain in map(domains.__getitem__, vms)}
        return all(is_tight(domain, node_count) for domain in distinct.values())

    def _search_whole(
        self,
        current: Configuration,
        states: Mapping[str, VMState],
        vms: Sequence[str],
        domains: Mapping[str, Optional[AbstractSet[str]]],
        constraints: Sequence[PlacementConstraint],
        deadline: float,
        finish: Callable[[Found], OptimizationResult],
    ) -> OptimizationResult:
        """The search by zones: the result's ``partition_method`` and
        ``zone_reports`` say how the instance was decomposed.  No
        decomposition, a failed zone or a merged assignment the planner
        cannot reach hand the round to the inherited search."""
        with span("partition") as partition_span:
            decomposition = partition(
                current, states, constraints, shards=self.shards, domains=domains
            )
            partition_span.set(
                method=decomposition.method,
                zones=len(decomposition.zones),
                exact=decomposition.exact,
            )
        if decomposition.is_win:
            outcomes = self._solve_zones(current, decomposition, deadline)
            if all(outcome.assignment is not None for outcome in outcomes):
                # Deterministic merge: zones are index-ordered, assignments
                # are disjoint by construction.
                merged = {
                    vm: node for o in outcomes for vm, node in o.assignment.items()
                }
                statistics = merge_statistics(outcomes, exact=decomposition.exact)
                try:
                    result = finish((merged, statistics, []))
                except PlanningError:
                    # The planner cannot reach the merged target (no pivot
                    # for a migration cycle, say): the monolithic search may
                    # pick a target it can.
                    pass
                else:
                    result.partition_method = decomposition.method
                    result.zone_reports = outcomes
                    return result
        # The monolithic search runs against the round's deadline: it gets
        # what the partition and the zones left, and nothing past it.
        return super()._search_whole(
            current, states, vms, domains, constraints, deadline, finish
        )

    # ------------------------------------------------------------------ #

    def _solve_zones(
        self,
        current: Configuration,
        decomposition: PartitionResult,
        deadline: float,
    ) -> List[ZoneOutcome]:
        """Solve the zones of ``decomposition`` in zone order by
        ``deadline`` — the round's: the partition before the first zone is
        paid out of the same budget, each zone gets what the earlier ones
        left, and none gets anything once it has passed (an out-of-time
        zone answers with its incumbent or fails into the monolithic
        re-solve)."""
        return [
            solve_zone(zone, build_zone_configuration(current, zone), deadline)
            for zone in decomposition.zones
        ]
