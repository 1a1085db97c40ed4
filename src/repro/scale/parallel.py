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
inherited monolithic solve, so ``engine="partitioned"`` is always safe to
request.  That re-solve gets the same deadline and nothing past it: a round
the zones starved answers with the keep-in-place incumbent, or raises.  A
solve that finds nothing raises, as the monolithic one does.

Keep-in-place before the partition: under a unary catalog whose every
placed VM has a *tight* domain (:func:`~repro.scale.partition.is_tight`:
the decomposition would be exact) no home and no domain crosses a zone, so
the zones' incumbents compose to one pass that reads node loads and the few
VMs that cannot stay home
(:meth:`~repro.core.optimizer.ContextSwitchOptimizer._keep_in_place`, the
pass a repair attempt runs first).  It runs before the partition is cut: a
round it answers at the lower bound cuts no partition and no zone, and only
a round it declines is partitioned and solved by zones.

Sub-problem extraction (:func:`repro.core.optimizer.extract`): a zone's
sub-configuration contains only the zone's nodes and VMs.  A zone VM whose
current host (or suspend image) lies outside the zone is represented as
*waiting* in the sub-configuration — its true movement cost is then a
constant (the same for every zone node), so the arg-min placement is
unaffected and the exact cost is restored by the global planning pass.

Zones serve the whole-fleet solve only: this optimizer overrides the
whole-fleet step of :meth:`~repro.core.optimizer.ContextSwitchOptimizer.optimize`
and nothing else, so a solve handed the repair engine's dirty region is the
inherited one — the keep-in-place pass, then one cut of the dirty VMs — and
cuts no zone.

What is kept from one round to the next, each with one owner and one
invalidation point:

* the unary domains — :attr:`ParallelOptimizer.domains`, a
  :class:`~repro.constraints.domains.RetainedDomains` (key: the constraint
  objects, the node descriptions, every restriction placement-independent;
  in a control loop the policy's candidate filter reads the same one);
* the decomposition — :attr:`ParallelOptimizer._kept`, reused while it was
  cut under the generation that key returns, the completed target states
  are the same and the partition is exact (every placed VM tight, so no
  zone read a placement, a demand or a capacity); everything else is re-cut by
  :func:`~repro.scale.partition.partition` as before.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextvars import Context
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence, Tuple

from ..constraints.base import PlacementConstraint
from ..core.context_switch import ZONE_EXECUTORS
from ..core.optimizer import (
    CompletedStates,
    ContextSwitchOptimizer,
    OptimizationResult,
    extract,
)
from ..cp import SearchStatistics
from ..model.configuration import Configuration
from ..model.errors import PlanningError, SolverError
from ..model.vm import VMState
from ..obs import current_tracer, span
from .partition import PartitionResult, Zone, is_tight, partition, placed_vms

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
        #: The last exact decomposition, with what it is a function of: the
        #: generation of :attr:`domains` it was cut under and the completed
        #: target states (see :meth:`_decompose`).
        self._kept: Optional[Tuple[object, Mapping[str, VMState], PartitionResult]] = None

    # ------------------------------------------------------------------ #

    def _optimize_whole(
        self,
        current: Configuration,
        target_states: Mapping[str, VMState],
        vjob_of_vm: Optional[Mapping[str, str]],
        constraints: Sequence[PlacementConstraint],
        deadline: float,
        completed: CompletedStates,
        settled: Optional[Dict[int, Optional[str]]],
    ) -> OptimizationResult:
        """The whole-fleet step, by zones: the result's ``partition_method``
        / ``partition_reason`` / ``zone_reports`` say how the instance was
        decomposed.  A round the keep-in-place pass answers cuts no zone and
        no partition: its ``partition_method`` is ``"monolithic"``, its
        ``zone_reports`` empty.  No decomposition, a failed zone or an
        unplannable answer hand the round to the inherited step."""
        states, changed = completed
        placed = placed_vms(states)
        domains = self.domains.of(current, placed, constraints)
        of_placed = list(map(domains.__getitem__, placed))
        node_count = len(current.node_names)
        found = None
        # The decomposition would be exact under a unary catalog — every
        # placed VM tight, judged once per domain object — so no home and no
        # domain would cross a zone, and the zones' incumbents compose to
        # one pass over the placed VMs.
        if (
            placed
            and not any(c.relational for c in constraints)
            and all(
                is_tight(domain, node_count)
                for domain in dict(zip(map(id, of_placed), of_placed)).values()
            )
        ):
            running = VMState.RUNNING
            leaving, arriving = [], []
            for vm in changed:
                if current.state_of(vm) is running:
                    leaving.append(vm)
                elif states[vm] is running:
                    arriving.append(vm)
            placed_set = set(placed)
            hosts = {
                vm: host for vm, host in current.iter_placement() if vm in placed_set
            }
            found = self._keep_in_place(current, domains, hosts, leaving, arriving)
        method, outcomes, answer = "monolithic", [], "keep-in-place"
        reason = ""
        if found is None:
            with span("partition") as partition_span:
                decomposition, reused = self._decompose(
                    current, states, constraints, domains
                )
                partition_span.set(
                    method=decomposition.method,
                    zones=len(decomposition.zones),
                    exact=decomposition.exact,
                    reused=reused,
                )
            reason = decomposition.reason
            if decomposition.is_win:
                outcomes = sorted(
                    self._solve_zones(current, decomposition, deadline),
                    key=lambda o: o.index,
                )
                failed = [o.index for o in outcomes if o.assignment is None]
                if failed:
                    reason = f"zones {failed} found no viable assignment"
                else:
                    # Deterministic merge: zones are index-ordered,
                    # assignments are disjoint by construction.
                    merged: dict[str, str] = {}
                    for outcome in outcomes:
                        merged.update(outcome.assignment)
                    statistics = merge_statistics(outcomes, exact=decomposition.exact)
                    found = merged, statistics, []
                    method, answer = decomposition.method, "merged"
        if found is not None:
            try:
                result = self._finish(
                    current, completed, found, vjob_of_vm, constraints, settled
                )
            except PlanningError as error:
                # The pass or the zones answered, but the planner cannot
                # reach that target (no pivot for a migration cycle, say):
                # the monolithic search may pick a target it can.
                reason = (
                    f"the {answer} assignment could not be planned "
                    f"({type(error).__name__}: {error})"
                )
            else:
                result.partition_method = method
                result.zone_reports = outcomes
                return result
        # The re-solve runs against the round's deadline: it gets what the
        # partition and the zones left, and nothing past it.
        result = super()._optimize_whole(
            current, target_states, vjob_of_vm, constraints, deadline,
            completed, settled,
        )
        result.partition_reason = reason
        return result

    # ------------------------------------------------------------------ #

    def _decompose(
        self,
        current: Configuration,
        states: Mapping[str, VMState],
        constraints: Sequence[PlacementConstraint],
        domains: Mapping[str, Optional[AbstractSet[str]]],
    ) -> Tuple[PartitionResult, bool]:
        """The round's decomposition over the placed VMs' ``domains``, and
        whether it is the kept one.

        The kept decomposition answers for this round when it is provably
        the one :func:`partition` would cut again: it was cut under the
        generation the domains' key returns now (same constraint objects,
        same node descriptions, none of them reading a placement —
        :meth:`RetainedDomains.key`), the completed target states are equal
        (so the same VMs are placed), and it was exact — every placed VM
        tight, so no VM was anchored by its host, its demand or a node's
        headroom."""
        key = self.domains.key(current, constraints)
        kept = self._kept
        if kept is not None and kept[0] is key and kept[1] == states:
            return kept[2], True
        decomposition = partition(
            current, states, constraints, shards=self.shards, domains=domains
        )
        self._kept = None
        if key is not None and decomposition.is_win and decomposition.exact:
            self._kept = (key, states, decomposition)
        return decomposition, False

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
