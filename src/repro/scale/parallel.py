"""Solving placement zones concurrently and merging the sub-plans.

:class:`ParallelOptimizer` is a
:class:`~repro.core.optimizer.ContextSwitchOptimizer` whose search is
decomposed: it partitions the instance with
:func:`repro.scale.partition.partition`, solves every zone — in-process one
after another, or on a :class:`concurrent.futures.ProcessPoolExecutor` when
the zones of this solve are big enough to pay for one (``_POOL_ZONE_VMS``;
the CP search is pure Python, so threads would serialize on the GIL) — and
merges the per-zone assignments deterministically into one global
assignment, which the base class turns into a target, a plan and a price
exactly as it does its own.  The merged plan is therefore exactly as
checker-validated as a monolithic one: the planner re-applies the whole
constraint catalog to every intermediate state.

Tracing: a zone solved in-process opens a ``zone`` span around its
``cp.solve``.  A worker process records nothing and answers only its
:class:`ZoneOutcome`; the parent records that zone's ``zone`` span from it
(``remote``, with the zone's search counters and flags).

Why this is sound: the partitioner guarantees that zone node sets are
disjoint and that every zone VM's candidate nodes lie inside its zone, so

* per-zone bin packing equals global bin packing (no placement can cross a
  zone boundary), and
* every relational constraint is confined to one zone, whose sub-model
  compiles and enforces it.

One deadline bounds the whole solve: the ``deadline`` argument, or the
constructor's ``timeout`` from the call's entry.  The partition, every zone
and the monolithic re-solve run against it.  Zones that genuinely overlap
each get what is left of it; zones the executor runs sequentially (the
serial executor, or more zones than workers queuing in waves on the pool)
share it, so a partitioned round stays within the per-round time budget the
monolithic engine honours.  When the partitioner finds no decomposition — or
any zone turns out infeasible by the deadline, or the planner cannot reach
the merged target (a ``PlanningError``) — the optimizer re-solves with the
inherited monolithic search, so ``engine="partitioned"`` is always safe to
request.  That re-solve gets the same deadline and nothing past it: a round
the zones starved answers with the keep-in-place incumbent, or raises.  A
solve that finds nothing raises, as the monolithic one does.

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
(:attr:`ParallelOptimizer.domains`, inherited) and the worker pool.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextvars import Context
from dataclasses import dataclass
from typing import AbstractSet, Callable, Dict, List, Mapping, Optional, Sequence

from ..constraints.base import PlacementConstraint
from ..core.context_switch import ZONE_EXECUTORS
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
from ..obs import current_tracer, span
from .partition import PartitionResult, Zone, is_tight, partition

#: The ``"auto"`` rule: the pool is used only when the host has more than
#: one core *and* at least two of the zones pending in this solve each hold
#: at least this many VMs, and it gets ``min(cores, such zones)``
#: workers.  Shipping a zone costs a pickle of its sub-configuration both
#: ways (and, for a one-shot solve, the fork), so small zones — every fenced
#: test fixture — lose to running in-process.
#: Measured on a 2-core host: cold rounds of the round benchmark's fenced
#: fleet (one restarted VM a round), p50 ms over three repetitions, serial ->
#: pool of 2:
#:
#:   fleet / zone VMs (zones)  one persistent switch        a switch per solve
#:    1 000 /   125  (8)         49-64 -> 40-64 (unresolved)  40-41 -> 47-55
#:    2 500 /   125 (20)       129-145 -> 102-113
#:    2 500 /   312  (8)       157-174 -> 95-120             112-113 -> 100-101
#:    5 000 /   625  (8)       299-350 -> 250-311            260-292 -> 206-207
#:   20 000 / 2 500  (8)     2304-2489 -> 1646-1647
#:
#: The pool starts to pay somewhere between 125- and 312-VM zones;
#: ``docs/PERFORMANCE.md`` says how to re-measure.  Those were cold no-op
#: rounds, which no longer reach a zone: only a round the keep-in-place pass
#: declines, or a repair full solve, reaches this rule.
_POOL_ZONE_VMS = 256


@dataclass
class ZoneTask:
    """Everything a worker needs to solve one zone (picklable).

    ``configuration`` is the zone's extracted *sub*-configuration
    (:func:`build_zone_configuration`), not the full cluster — workers only
    ever see their own zone.
    ``timeout`` is relative, seconds from the zone's start: a
    :func:`time.monotonic` instant means nothing in another process.
    """

    zone: Zone
    configuration: Configuration
    timeout: float = 40.0


@dataclass
class ZoneOutcome:
    """One zone's solve result, as the worker ships it back and as
    :attr:`~repro.core.optimizer.OptimizationResult.zone_reports` keeps
    it."""

    index: int
    assignment: Optional[dict[str, str]]
    statistics: SearchStatistics
    elapsed: float
    #: The zone's size.
    node_count: int = 0
    vm_count: int = 0


def build_zone_configuration(current: Configuration, zone: Zone) -> Configuration:
    """A zone's sub-configuration (:func:`~repro.core.optimizer.extract`):
    its nodes and VMs."""
    return extract(current, zone.nodes, zone.vms)


def _zone_size(zone: Zone) -> Dict[str, int]:
    """The ``zone`` span's size attributes."""
    return {"zone": zone.index, "vms": len(zone.vms), "nodes": len(zone.nodes)}


def solve_zone(task: ZoneTask) -> ZoneOutcome:
    """Solve one zone under a ``zone`` span; module-level so process pools
    can import it."""
    extracted = task.configuration.vm_names
    with span("zone", **_zone_size(task.zone)):
        optimizer = ContextSwitchOptimizer()
        # Every VM the zone extracted is to run: its wanted states are
        # complete as built, and the search reads no list of changed VMs.
        states = dict.fromkeys(extracted, VMState.RUNNING)
        started = time.monotonic()
        assignment, statistics, _ = optimizer.search_assignment(
            task.configuration,
            states,
            constraints=task.zone.constraints,
            deadline=started + task.timeout,
            completed=(states, ()),
        )
        return ZoneOutcome(
            index=task.zone.index,
            assignment=assignment,
            statistics=statistics,
            elapsed=time.monotonic() - started,
            node_count=len(task.zone.nodes),
            vm_count=len(task.zone.vms),
        )


def _solve_zone_in_worker(task: ZoneTask) -> ZoneOutcome:
    """:func:`solve_zone` in an empty context: a forked worker inherits the
    parent's active span, and whatever it recorded there would be lost with
    the worker, so it records nothing and the parent spans the outcome."""
    return Context().run(solve_zone, task)


def merge_statistics(
    outcomes: Sequence[ZoneOutcome],
    exact: bool = False,
) -> SearchStatistics:
    """Aggregate per-zone search statistics: effort counters add up, the
    elapsed time is the slowest zone (they run concurrently), and quality
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
        merged.timed_out = merged.timed_out or stats.timed_out
        merged.limit_reached = merged.limit_reached or stats.limit_reached
    merged.proven_optimal = (
        exact
        and bool(outcomes)
        and all(o.statistics.proven_optimal for o in outcomes)
    )
    merged.elapsed = max((o.statistics.elapsed for o in outcomes), default=0.0)
    return merged


class ParallelOptimizer(ContextSwitchOptimizer):
    """Partition the instance into zones and solve them concurrently.

    The constructor takes :class:`ContextSwitchOptimizer`'s ``timeout`` (the
    zones and the monolithic re-solve run the ``event`` propagation engine)
    and adds ``zone_executor`` (``"auto"`` decides per solve, from the
    pending zones and the host's cores, between in-process and the worker
    pool and sizes the pool; ``"serial"`` / ``"process"`` force one or the
    other — see :data:`ZONE_EXECUTORS`) and ``shards`` (the shard count of
    the k-way fallback, 4 by default; ``None`` disables sharding so only
    constraint-induced partitions are used).
    """

    #: Class-level defaults: ``__del__`` runs even when the constructor
    #: raises — for a rejected keyword, before its first statement.
    _pool: Optional[ProcessPoolExecutor] = None
    _pool_size = 0

    def __init__(
        self,
        timeout: float = 40.0,
        zone_executor: str = "auto",
        shards: int | str | None = "auto",
    ) -> None:
        if zone_executor not in ZONE_EXECUTORS:
            raise SolverError(
                f"unknown zone executor {zone_executor!r}; expected one of "
                f"{ZONE_EXECUTORS}"
            )
        if shards not in ("auto", None) and (
            type(shards) is not int or shards < 1
        ):
            raise SolverError(
                f"shards must be 'auto', None or an int >= 1, not {shards!r}"
            )
        super().__init__(timeout=timeout)
        self.zone_executor = zone_executor
        #: Fallback shard count: ``"auto"`` is 4, ``None`` disables the
        #: k-way sharding fallback entirely, an int fixes the count.  The
        #: persistent worker pool (``_pool``) is forked lazily by the first
        #: solve that uses it and reused across rounds — see :meth:`close`.
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
            outcomes = sorted(
                self._solve_zones(current, decomposition, deadline),
                key=lambda o: o.index,
            )
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
        """Solve the zones of ``decomposition`` by ``deadline`` — the
        round's: the partition and the extraction before the first zone are
        paid out of the same budget."""
        tasks = [
            ZoneTask(zone, build_zone_configuration(current, zone))
            for zone in decomposition.zones
        ]
        if self.zone_executor == "auto":
            worth_a_worker = sum(
                task.configuration.vm_count >= _POOL_ZONE_VMS for task in tasks
            )
            workers = min(os.cpu_count() or 1, worth_a_worker)
        else:
            workers = len(tasks) if self.zone_executor == "process" else 1
        if workers < 2:
            # Zones run one after another against the one deadline: each
            # gets what the earlier ones left, nothing once it has passed (an
            # out-of-time zone answers with its incumbent or fails into the
            # monolithic re-solve).
            outcomes = []
            for task in tasks:
                task.timeout = deadline - time.monotonic()
                outcomes.append(solve_zone(task))
            return outcomes
        # More zones than workers queue in ceil(zones/workers) waves on the
        # pool; each wave gets its share of what is left, so the last one
        # ends by the deadline.
        waves = -(-len(tasks) // workers)
        share = (deadline - time.monotonic()) / waves
        for task in tasks:
            task.timeout = share
        if self._pool is not None and self._pool_size < workers:
            # A later round partitioned into more zones than the cached pool
            # can overlap: respawn rather than silently serializing on an
            # undersized pool for the rest of the loop's lifetime.
            self.close()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=workers)
            self._pool_size = workers
        tracer = current_tracer()
        submitted = tracer.now() if tracer is not None else 0.0
        try:
            outcomes = list(self._pool.map(_solve_zone_in_worker, tasks))
        except BrokenProcessPool:
            # A worker died (killed, out of memory): the pool is unusable,
            # so drop it and let the next solve that needs one respawn it.
            self.close()
            raise
        if tracer is not None:
            # The worker's clock is its own: a pooled zone's span starts at
            # the submit time and lasts what the worker measured.
            # ``remote`` gives it its own track in the Chrome export, so
            # concurrent zones render side by side.
            for task, outcome in zip(tasks, outcomes):
                with span("zone", remote=True, **_zone_size(task.zone)) as zone_span:
                    outcome.statistics.record_on(zone_span)
                zone_span.start = submitted
                zone_span.end = submitted + outcome.elapsed
        return outcomes

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent; the optimizer
        remains usable — the next partitioned solve respawns it)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelOptimizer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        self.close()
