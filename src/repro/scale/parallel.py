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

Why this is sound: the partitioner guarantees that zone node sets are
disjoint and that every zone VM's candidate nodes lie inside its zone, so

* per-zone bin packing equals global bin packing (no placement can cross a
  zone boundary), and
* every relational constraint is confined to one zone, whose sub-model
  compiles and enforces it.

The wall-clock budget of a call (its ``timeout`` argument, the constructor's
by default) bounds the whole solve — zones that genuinely overlap each get
the full budget, while zones the executor runs sequentially (the serial
executor, or more zones than workers queuing in waves on the pool) share it,
so a partitioned round stays within the per-round time budget the monolithic
engine honours.  When the partitioner finds no decomposition — or any zone
turns out infeasible under its carved budget — the optimizer transparently
falls back to the inherited monolithic solve, so ``engine="partitioned"`` is
always safe to request; a post-zone fallback only gets the wall-clock the
zones left over (floored at a small fraction of the budget), so even the
worst case stays near the budget instead of doubling it.

Sub-problem extraction: a zone's sub-configuration contains only the zone's
nodes and VMs.  A zone VM whose current host (or suspend image) lies outside
the zone is represented as *waiting* in the sub-configuration — its true
movement cost is then a constant (the same for every zone node), so the
arg-min placement is unaffected and the exact cost is restored by the global
planning pass.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from ..constraints.base import PlacementConstraint
from ..core.optimizer import (
    MIN_CARVED_TIMEOUT_S,
    ContextSwitchOptimizer,
    OptimizationResult,
    fallback_budget,
)
from ..cp import SearchStatistics
from ..model.configuration import Configuration
from ..model.errors import SolverError
from ..model.vm import VMState
from ..obs import Span, Tracer, current_span, current_tracer, span
from .partition import PartitionResult, Zone, partition

#: Executor kinds accepted by :class:`ParallelOptimizer`.  ``"auto"`` (the
#: default) is decided per solve from the zones about to be solved — see
#: :data:`_POOL_ZONE_VMS`.  ``"serial"`` always runs the zones in-process
#: (deterministic, no pickling); ``"process"`` always ships two or more
#: pending zones to the pool, one worker per zone.
ZONE_EXECUTORS = ("auto", "process", "serial")

#: The ``"auto"`` rule: the pool is used only when the host has more than
#: one core *and* at least two of the zones pending in this solve each hold
#: at least this many unpinned VMs, and it gets ``min(cores, such zones)``
#: workers.  Shipping a zone costs a pickle of its sub-configuration both
#: ways (and, for a one-shot solve, the fork), so small zones — every warm
#: repair round, every fenced test fixture — lose to running in-process.
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
#: and the warm ``fleet-repair`` stream (about 10 pending zones of about 2
#: unpinned VMs each) 19.8-21.2 -> 22.9-27.4 ms with a pool.  The pool starts
#: to pay somewhere between 125- and 312-VM zones; ``docs/PERFORMANCE.md``
#: says how to re-measure.
_POOL_ZONE_VMS = 256


@dataclass
class ZoneTask:
    """Everything a worker needs to solve one zone (picklable).

    ``configuration`` is the zone's extracted *sub*-configuration
    (:func:`build_zone_configuration`), not the full cluster — workers only
    ever see their own zone.
    """

    zone: Zone
    configuration: Configuration
    engine: str = "event"
    timeout: float = 40.0
    #: VM -> node-name placements frozen by the repair engine (only pins
    #: whose VM *and* node lie inside the zone are carried; a zone whose VMs
    #: are all pinned never reaches a worker — see ``_solve_zones``).
    pinned: Optional[dict[str, str]] = None
    #: True when the parent solve is being traced: the worker records a
    #: local :class:`repro.obs.Tracer` and ships the span tree back in
    #: :attr:`ZoneOutcome.trace` for re-parenting.
    trace: bool = False


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
    #: True when the zone was untouched by the repair round: its previous
    #: sub-assignment was reused verbatim without entering a solver.
    reused: bool = False
    #: Serialized worker-side span tree (``Tracer.to_dict()``), present only
    #: when :attr:`ZoneTask.trace` was set and the zone solved in a worker
    #: process; the parent re-parents it into its own timeline.
    trace: Optional[dict] = None


def build_zone_configuration(
    current: Configuration, zone: Zone
) -> Configuration:
    """Extract a zone's sub-configuration: its nodes plus its VMs, keeping
    each VM's current state when the relevant node is inside the zone and
    degrading to *waiting* otherwise (a constant cost offset — see the
    module docstring)."""
    sub = Configuration(nodes=[current.node(name) for name in zone.nodes])
    inside = set(zone.nodes)
    for vm_name in zone.vms:
        sub.add_vm(current.vm(vm_name))
        state = current.state_of(vm_name)
        if state is VMState.RUNNING:
            host = current.location_of(vm_name)
            if host in inside:
                sub.set_running(vm_name, host)
        elif state is VMState.SLEEPING:
            image = current.image_location_of(vm_name)
            if image in inside:
                sub.set_sleeping(vm_name, image)
    return sub


def solve_zone(task: ZoneTask) -> ZoneOutcome:
    """Solve one zone; module-level so process pools can import it.

    Tracing composes with both executors: in-process (serial) zones open a
    ``zone`` span under whatever is already active, while worker processes
    record a local tracer when :attr:`ZoneTask.trace` is set and ship its
    tree back in :attr:`ZoneOutcome.trace` for the parent to re-parent.
    The flag — not the ambient contextvar — decides, because forked
    workers *inherit* the parent's active span and any span recorded on
    that copied tracer would be lost with the worker.
    """
    if task.trace:
        tracer = Tracer(name="zone")
        with tracer.activate() as root:
            # ``remote`` makes the Chrome exporter give this subtree its
            # own track, so concurrent zones render side by side.
            root.set(zone=task.zone.index, remote=True)
            outcome = _solve_zone_traced(task, root)
        outcome.trace = tracer.to_dict()
        return outcome
    with span("zone", zone=task.zone.index) as zone_span:
        return _solve_zone_traced(task, zone_span)


def _solve_zone_traced(task: ZoneTask, zone_span: Span) -> ZoneOutcome:
    zone_span.set(
        vms=len(task.zone.vms),
        nodes=len(task.zone.nodes),
        pinned=len(task.pinned or {}),
    )
    optimizer = ContextSwitchOptimizer(engine=task.engine)
    states = {vm: VMState.RUNNING for vm in task.zone.vms}
    started = time.monotonic()
    assignment, statistics, _ = optimizer.search_assignment(
        task.configuration,
        states,
        constraints=task.zone.constraints,
        pinned=task.pinned,
        timeout=task.timeout,
    )
    return ZoneOutcome(
        index=task.zone.index,
        assignment=assignment,
        statistics=statistics,
        elapsed=time.monotonic() - started,
        node_count=len(task.zone.nodes),
        vm_count=len(task.zone.vms),
    )


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

    The constructor mirrors :class:`ContextSwitchOptimizer` and adds
    ``zone_executor`` (``"auto"`` decides per solve, from the pending zones
    and the host's cores, between in-process and the worker pool and sizes
    the pool; ``"serial"`` / ``"process"`` force one or the other — see
    :data:`ZONE_EXECUTORS`) and ``shards`` (the shard count of the k-way
    fallback, 4 by default; ``None`` disables sharding so only
    constraint-induced partitions are used).
    """

    #: Class-level defaults: ``__del__`` runs even when the constructor
    #: raises — for a rejected keyword, before its first statement.
    _pool: Optional[ProcessPoolExecutor] = None
    _pool_size = 0

    def __init__(
        self,
        timeout: float = 40.0,
        planner_options=None,
        engine: str = "event",
        zone_executor: str = "auto",
        shards: int | str | None = "auto",
    ) -> None:
        if zone_executor not in ZONE_EXECUTORS:
            raise SolverError(
                f"unknown zone executor {zone_executor!r}; expected one of "
                f"{ZONE_EXECUTORS}"
            )
        super().__init__(
            timeout=timeout, planner_options=planner_options, engine=engine
        )
        self.zone_executor = zone_executor
        #: Fallback shard count: ``"auto"`` is 4, ``None`` disables the
        #: k-way sharding fallback entirely, an int fixes the count.  The
        #: persistent worker pool (``_pool``) is forked lazily by the first
        #: solve that uses it and reused across rounds — see :meth:`close`.
        self.shards = 4 if shards == "auto" else shards

    # ------------------------------------------------------------------ #

    def optimize(
        self,
        current: Configuration,
        target_states: Mapping[str, VMState],
        vjob_of_vm: Optional[Mapping[str, str]] = None,
        fallback_target: Optional[Configuration] = None,
        constraints: Sequence[PlacementConstraint] = (),
        pinned: Optional[Mapping[str, str]] = None,
        timeout: Optional[float] = None,
    ) -> OptimizationResult:
        """Same contract as :meth:`ContextSwitchOptimizer.optimize`; the
        result's ``partition_method`` / ``partition_reason`` /
        ``zone_reports`` say how the instance was decomposed.

        ``pinned`` composes the repair engine with partitioning: a zone
        whose VMs are all pinned short-circuits to its previous
        sub-assignment verbatim (no solver, no worker), a partially-dirty
        zone solves with its clean VMs pinned, and only pins whose node
        lies inside the zone are honoured (the partitioner anchors VMs to
        their current host's zone, so that is the common case)."""
        budget = self.timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        states = self._complete_states(current, target_states)
        with span("partition") as partition_span:
            decomposition = partition(
                current, states, constraints, shards=self.shards
            )
            partition_span.set(
                method=decomposition.method,
                zones=len(decomposition.zones),
                exact=decomposition.exact,
            )
        outcomes: List[ZoneOutcome] = []
        if decomposition.is_win:
            outcomes = sorted(
                self._solve_zones(current, decomposition, budget, pinned=pinned),
                key=lambda o: o.index,
            )
        failed = [o.index for o in outcomes if o.assignment is None]
        if failed or not decomposition.is_win:
            reason = decomposition.reason
            if failed:
                reason = f"zones {failed} found no viable assignment"
                # The zones already consumed part of the round's budget: the
                # transparent fallback only gets what they left, keeping the
                # whole round near the per-round budget instead of doubling
                # it.
                budget = fallback_budget(budget, deadline)
            result = super().optimize(
                current,
                target_states,
                vjob_of_vm=vjob_of_vm,
                fallback_target=fallback_target,
                constraints=constraints,
                pinned=pinned,
                timeout=budget,
            )
            result.partition_reason = reason
            return result

        # Deterministic merge: zones are index-ordered, assignments are
        # disjoint by construction.
        merged: dict[str, str] = {}
        for outcome in outcomes:
            merged.update(outcome.assignment)
        result = self._finish(
            current,
            states,
            merged,
            merge_statistics(outcomes, exact=decomposition.exact),
            [],
            vjob_of_vm,
            fallback_target,
            constraints,
        )
        result.partition_method = decomposition.method
        result.zone_reports = outcomes
        return result

    # ------------------------------------------------------------------ #

    @staticmethod
    def _zone_pins(
        zone: Zone, pinned: Optional[Mapping[str, str]]
    ) -> dict[str, str]:
        """The pins relevant to one zone: its VMs pinned to its own nodes.
        A pin targeting a node outside the zone is dropped — the VM is then
        solved freely inside the zone, which is always sound (just less
        incremental)."""
        if not pinned:
            return {}
        inside = set(zone.nodes)
        return {
            vm: pinned[vm]
            for vm in zone.vms
            if vm in pinned and pinned[vm] in inside
        }

    def _zone_tasks(
        self,
        current: Configuration,
        zones: Sequence[Zone],
        budget: float,
        waves: int = 1,
        pins_by_zone: Optional[Mapping[int, dict[str, str]]] = None,
    ) -> List[ZoneTask]:
        """One task per zone, with the call's ``budget`` carved: when the
        executor cannot overlap every zone, each gets ``1/waves`` of it
        (``waves`` is how many batches the zones queue in), so a partitioned
        solve never exceeds the control loop's per-round time budget.
        ``zones`` are the zones of a decomposition still pending after the
        repair composition reused the fully-pinned ones."""
        tasks = []
        for zone in zones:
            pins = (pins_by_zone or {}).get(zone.index) or None
            tasks.append(
                ZoneTask(
                    zone=zone,
                    configuration=build_zone_configuration(current, zone),
                    engine=self.engine,
                    timeout=max(MIN_CARVED_TIMEOUT_S, budget / max(1, waves)),
                    pinned=pins,
                )
            )
        return tasks

    def _solve_zones(
        self,
        current: Configuration,
        decomposition: PartitionResult,
        budget: float,
        pinned: Optional[Mapping[str, str]] = None,
    ) -> List[ZoneOutcome]:
        # Repair composition: a zone whose VMs are all pinned is untouched
        # by this round — reuse its previous sub-assignment verbatim and
        # never ship it to a worker.  Only the dirty zones are solved, and
        # they keep their clean VMs pinned.
        reused: List[ZoneOutcome] = []
        pending: List[Zone] = []
        pins_by_zone: dict[int, dict[str, str]] = {}
        for zone in decomposition.zones:
            pins = self._zone_pins(zone, pinned)
            if zone.vms and len(pins) == len(zone.vms):
                reused.append(
                    ZoneOutcome(
                        index=zone.index,
                        assignment=dict(pins),
                        statistics=SearchStatistics(),
                        elapsed=0.0,
                        node_count=len(zone.nodes),
                        vm_count=len(zone.vms),
                        reused=True,
                    )
                )
            else:
                pending.append(zone)
                pins_by_zone[zone.index] = pins
        if not pending:
            return reused

        if self.zone_executor == "auto":
            worth_a_worker = sum(
                len(zone.vms) - len(pins_by_zone[zone.index]) >= _POOL_ZONE_VMS
                for zone in pending
            )
            workers = min(os.cpu_count() or 1, worth_a_worker)
        else:
            workers = len(pending) if self.zone_executor == "process" else 1
        if workers < 2:
            # Zones run one after another, so they share the single
            # wall-clock budget: each gets what the earlier ones left over
            # (a small floor keeps every zone able to at least attempt a
            # first solution; an out-of-budget zone fails fast and triggers
            # the monolithic fallback).
            tasks = self._zone_tasks(
                current, pending, budget, pins_by_zone=pins_by_zone
            )
            deadline = time.monotonic() + budget
            outcomes = list(reused)
            for task in tasks:
                task.timeout = max(
                    MIN_CARVED_TIMEOUT_S, deadline - time.monotonic()
                )
                outcomes.append(solve_zone(task))
            return outcomes
        # More zones than workers queue in ceil(zones/workers) waves on the
        # pool; carve the budget per wave so wall-clock stays <= budget.
        waves = -(-len(pending) // workers)
        tasks = self._zone_tasks(
            current, pending, budget, waves=waves, pins_by_zone=pins_by_zone
        )
        if self._pool is not None and self._pool_size < workers:
            # A later round partitioned into more zones than the cached pool
            # can overlap: respawn rather than silently serializing on an
            # undersized pool for the rest of the loop's lifetime.
            self.close()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=workers)
            self._pool_size = workers
        tracer = current_tracer()
        parent_span = current_span()
        if tracer is not None:
            for task in tasks:
                task.trace = True
        submitted_at = tracer.now() if tracer is not None else 0.0
        outcomes = list(self._pool.map(solve_zone, tasks))
        if tracer is not None and parent_span is not None:
            # Worker clocks are independent; aligning each zone tree to the
            # submit time is approximate (documented by the ``adopted``
            # attribute the graft sets) but keeps concurrent zones visible
            # inside the parent solve span.
            for outcome in sorted(outcomes, key=lambda o: o.index):
                if outcome.trace is not None:
                    tracer.adopt(
                        parent_span, outcome.trace, offset=submitted_at
                    )
        return reused + outcomes

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
