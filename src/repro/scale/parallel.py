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
turns out infeasible under its carved budget — the optimizer re-solves with
the inherited monolithic solve, so ``engine="partitioned"`` is always safe
to request; a post-zone re-solve only gets the wall-clock the zones left
over (floored at a small fraction of the budget), so even the worst case
stays near the budget instead of doubling it.  A solve that finds nothing
raises, as the monolithic one does.

Sub-problem extraction: a zone's sub-configuration contains only the zone's
nodes and VMs.  A zone VM whose current host (or suspend image) lies outside
the zone is represented as *waiting* in the sub-configuration — its true
movement cost is then a constant (the same for every zone node), so the
arg-min placement is unaffected and the exact cost is restored by the global
planning pass.

A warm round costs what changed.  Under ``frozen`` (the repair engine's
frozen region: VMs that keep the host they run on, inside their domain — so
inside their zone) the pending zones are found from the VMs that are *not*
frozen — a zone none of them belongs to is reused without being looked at —
and a pending zone is *cut* rather than extracted: only its unfrozen VMs
enter the sub-configuration, over nodes whose capacity is what the frozen
residents leave (the live free capacity plus what the unfrozen residents
hold), so extraction, model and search scale with the dirty VMs and the
nodes of their zones.  A zone is extracted whole, frozen VMs and all, when
the model has to see them (a relational constraint in its catalog) or to
refuse them (a frozen region that overloads a node).

What is kept from one round to the next, each with one owner and one
invalidation point:

* the unary domains — :attr:`ParallelOptimizer.domains`, a
  :class:`~repro.constraints.domains.RetainedDomains` (key: the constraint
  objects, the node names, every restriction placement-independent);
* the decomposition — :attr:`ParallelOptimizer._kept`, reused while those
  domains stand (their ``generation``), the completed target states are the
  same and the partition is exact (every placed VM tight, so no zone read a
  placement, a demand or a capacity); everything else is re-cut by
  :func:`~repro.scale.partition.partition` as before.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence, Tuple

from ..constraints.base import PlacementConstraint
from ..core.optimizer import (
    MIN_CARVED_TIMEOUT_S,
    ContextSwitchOptimizer,
    OptimizationResult,
    leftover_budget,
)
from ..cp import SearchStatistics
from ..model.configuration import Configuration
from ..model.errors import SolverError
from ..model.node import Node
from ..model.vm import VMState
from ..obs import Span, Tracer, current_span, current_tracer, span
from .partition import PartitionResult, Zone, partition, placed_vms

#: Executor kinds accepted by :class:`ParallelOptimizer`.  ``"auto"`` (the
#: default) is decided per solve from the zones about to be solved — see
#: :data:`_POOL_ZONE_VMS`.  ``"serial"`` always runs the zones in-process
#: (deterministic, no pickling); ``"process"`` always ships two or more
#: pending zones to the pool, one worker per zone.
ZONE_EXECUTORS = ("auto", "process", "serial")

#: The ``"auto"`` rule: the pool is used only when the host has more than
#: one core *and* at least two of the zones pending in this solve each hold
#: at least this many unfrozen VMs, and it gets ``min(cores, such zones)``
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
#: unfrozen VMs each) 19.8-21.2 -> 22.9-27.4 ms with a pool.  The pool starts
#: to pay somewhere between 125- and 312-VM zones; ``docs/PERFORMANCE.md``
#: says how to re-measure.
_POOL_ZONE_VMS = 256


@dataclass
class ZoneTask:
    """Everything a worker needs to solve one zone (picklable).

    ``configuration`` is the zone's extracted *sub*-configuration
    (:func:`build_zone_configuration`), not the full cluster — workers only
    ever see their own zone, and of a cut zone only the VMs to re-place.
    """

    zone: Zone
    configuration: Configuration
    engine: str = "event"
    timeout: float = 40.0
    #: The zone's VMs the repair engine froze on their hosts, for a zone
    #: extracted whole (a cut zone carries none, its frozen VMs are in the
    #: capacities; a zone whose VMs are all frozen never reaches a worker —
    #: see ``_zone_tasks``).
    frozen: AbstractSet[str] = frozenset()
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
    #: True when the zone was untouched by the repair round: its VMs stay
    #: where they are (``assignment`` names none of them) without entering a
    #: solver.
    reused: bool = False
    #: Serialized worker-side span tree (``Tracer.to_dict()``), present only
    #: when :attr:`ZoneTask.trace` was set and the zone solved in a worker
    #: process; the parent re-parents it into its own timeline.
    trace: Optional[dict] = None


def build_zone_configuration(
    current: Configuration,
    zone: Zone,
    dirty: Optional[Sequence[str]] = None,
    released: Optional[Mapping[str, Sequence[int]]] = None,
) -> Optional[Configuration]:
    """Extract a zone's sub-configuration: its nodes plus its VMs, keeping
    each VM's current state when the relevant node is inside the zone and
    degrading to *waiting* otherwise (a constant cost offset — see the
    module docstring).

    With ``dirty`` — the zone's VMs this round re-places, in zone order —
    the zone is *cut*: only they are extracted, over nodes that offer what
    the VMs frozen on them leave, i.e. their live free capacity plus
    ``released``, the (cpus, MB) held on each node by residents the round
    does not freeze there (the dirty ones among them).  ``None`` when the
    frozen residents alone overload a node: no cut can say so, the zone has
    to be extracted whole for the model builder to refuse it."""
    if dirty is None:
        nodes = [current.node(name) for name in zone.nodes]
        vms: Sequence[str] = zone.vms
    else:
        nodes = []
        for name in zone.nodes:
            free = current.free_capacity(name)
            extra_cpu, extra_memory = (released or {}).get(name, (0, 0))
            cpu, memory = free.cpu + extra_cpu, free.memory + extra_memory
            if cpu < 0 or memory < 0:
                return None
            nodes.append(Node(name, cpu, memory, current.node(name).role))
        vms = dirty
    sub = Configuration(nodes=nodes)
    inside = set(zone.nodes)
    for vm_name in vms:
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
    extracted = task.configuration.vm_names
    zone_span.set(
        vms=len(task.zone.vms),
        nodes=len(task.zone.nodes),
        pinned=len(task.frozen) + len(task.zone.vms) - len(extracted),
    )
    optimizer = ContextSwitchOptimizer(engine=task.engine)
    states = dict.fromkeys(extracted, VMState.RUNNING)
    started = time.monotonic()
    assignment, statistics, _ = optimizer.search_assignment(
        task.configuration,
        states,
        constraints=task.zone.constraints,
        frozen=task.frozen,
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
        #: The last exact decomposition, with what it is a function of: the
        #: generation of :attr:`domains` it was cut under and the completed
        #: target states (see :meth:`_decompose`).
        self._kept: Optional[Tuple[object, Mapping[str, VMState], PartitionResult]] = None

    # ------------------------------------------------------------------ #

    def optimize(
        self,
        current: Configuration,
        target_states: Mapping[str, VMState],
        vjob_of_vm: Optional[Mapping[str, str]] = None,
        constraints: Sequence[PlacementConstraint] = (),
        frozen: AbstractSet[str] = frozenset(),
        timeout: Optional[float] = None,
    ) -> OptimizationResult:
        """Same contract as :meth:`ContextSwitchOptimizer.optimize`; the
        result's ``partition_method`` / ``partition_reason`` /
        ``zone_reports`` say how the instance was decomposed.

        ``frozen`` composes the repair engine with partitioning: a zone
        whose VMs are all frozen keeps them where they are (no solver, no
        worker), a partially-dirty zone solves around its frozen VMs.  A
        frozen VM sits inside its domain, so the partitioner put it in the
        zone of its host."""
        budget = self.timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        states, changed = self._complete_states(current, target_states)
        with span("partition") as partition_span:
            decomposition, reused = self._decompose(current, states, constraints)
            partition_span.set(
                method=decomposition.method,
                zones=len(decomposition.zones),
                exact=decomposition.exact,
                reused=reused,
            )
        outcomes: List[ZoneOutcome] = []
        if decomposition.is_win:
            running = VMState.RUNNING
            leaving = [
                vm
                for vm in changed
                if states[vm] is not running and current.state_of(vm) is running
            ]
            outcomes = sorted(
                self._solve_zones(
                    current, decomposition, deadline, frozen=frozen, leaving=leaving
                ),
                key=lambda o: o.index,
            )
        failed = [o.index for o in outcomes if o.assignment is None]
        if failed or not decomposition.is_win:
            reason = decomposition.reason
            if failed:
                reason = f"zones {failed} found no viable assignment"
                # The zones already consumed part of the round's budget: the
                # monolithic re-solve only gets what they left, keeping the
                # whole round near the per-round budget instead of doubling
                # it.
                budget = leftover_budget(budget, deadline)
            result = super().optimize(
                current,
                target_states,
                vjob_of_vm=vjob_of_vm,
                constraints=constraints,
                frozen=frozen,
                timeout=budget,
            )
            result.partition_reason = reason
            return result

        # Deterministic merge: zones are index-ordered, assignments are
        # disjoint by construction; a VM none of them names stays put.
        merged: dict[str, str] = {}
        for outcome in outcomes:
            merged.update(outcome.assignment)
        result = self._finish(
            current,
            states,
            changed,
            merged,
            merge_statistics(outcomes, exact=decomposition.exact),
            [],
            vjob_of_vm,
            constraints,
        )
        result.partition_method = decomposition.method
        result.zone_reports = outcomes
        return result

    # ------------------------------------------------------------------ #

    def _decompose(
        self,
        current: Configuration,
        states: Mapping[str, VMState],
        constraints: Sequence[PlacementConstraint],
    ) -> Tuple[PartitionResult, bool]:
        """The round's decomposition, and whether it is the kept one.

        The kept decomposition answers for this round when it is provably
        the one :func:`partition` would cut again: the domains it read still
        stand (same constraint objects, same node names, none of them
        reading a placement — :class:`RetainedDomains`), the completed
        target states are equal (so the same VMs are placed), and it was
        exact — every placed VM tight, so no VM was anchored by its host,
        its demand or a node's headroom."""
        kept = self._kept
        if (
            kept is not None
            and self.domains.holds(current, constraints)
            and kept[0] is self.domains.generation
            and kept[1] == states
        ):
            return kept[2], True
        domains = self.domains.of(current, placed_vms(states), constraints)
        decomposition = partition(
            current, states, constraints, shards=self.shards, domains=domains
        )
        self._kept = None
        if (
            decomposition.is_win
            and decomposition.exact
            and self.domains.holds(current, constraints)
        ):
            self._kept = (self.domains.generation, states, decomposition)
        return decomposition, False

    def _zone_tasks(
        self,
        current: Configuration,
        decomposition: PartitionResult,
        frozen: AbstractSet[str] = frozenset(),
        leaving: Sequence[str] = (),
    ) -> Tuple[List[ZoneOutcome], List[ZoneTask]]:
        """The outcomes of the zones the frozen region leaves nothing to
        decide in, and one task (its timeout still to be carved) per zone to
        solve.

        Repair composition: a zone whose VMs are all frozen is untouched by
        this round — its VMs stay where they are and it is never shipped to
        a worker.  The dirty zones are found from the VMs that are *not*
        frozen, and each is cut around them (:func:`build_zone_configuration`)
        unless the model has to see its frozen VMs: under a relational
        constraint, or to refuse a frozen region that overloads a node.
        ``leaving`` are the running VMs that must not keep running: they
        hold capacity no zone's model counts."""
        if not frozen:
            return [], [
                ZoneTask(zone, build_zone_configuration(current, zone), self.engine)
                for zone in decomposition.zones
            ]
        zone_of_vm = decomposition.zone_of_vm
        #: The VMs each zone re-places: its placed VMs the round does not
        #: freeze.
        free: Dict[int, List[str]] = {}
        for vm in zone_of_vm.keys() - frozen:
            free.setdefault(zone_of_vm[vm], []).append(vm)
        #: (cpus, MB) held on each node by residents this round does not
        #: freeze there.
        released = current.load_by_host(set(leaving).union(*free.values()))
        reused: List[ZoneOutcome] = []
        tasks: List[ZoneTask] = []
        for zone in decomposition.zones:
            if zone.index not in free:
                reused.append(
                    ZoneOutcome(
                        index=zone.index,
                        assignment={},
                        statistics=SearchStatistics(),
                        elapsed=0.0,
                        node_count=len(zone.nodes),
                        vm_count=len(zone.vms),
                        reused=True,
                    )
                )
                continue
            cut = None
            if not any(constraint.relational for constraint in zone.constraints):
                cut = build_zone_configuration(
                    current,
                    zone,
                    current.in_registration_order(free[zone.index]),
                    released,
                )
            if cut is not None:
                tasks.append(ZoneTask(zone, cut, self.engine))
                continue
            tasks.append(
                ZoneTask(
                    zone,
                    build_zone_configuration(current, zone),
                    self.engine,
                    frozen={vm for vm in zone.vms if vm in frozen},
                )
            )
        return reused, tasks

    def _solve_zones(
        self,
        current: Configuration,
        decomposition: PartitionResult,
        deadline: float,
        frozen: AbstractSet[str] = frozenset(),
        leaving: Sequence[str] = (),
    ) -> List[ZoneOutcome]:
        """Solve the zones of ``decomposition`` by ``deadline`` — the
        round's: the partition and the extraction before the first zone are
        paid out of the same budget."""
        reused, tasks = self._zone_tasks(current, decomposition, frozen, leaving)
        if not tasks:
            return reused

        if self.zone_executor == "auto":
            worth_a_worker = sum(
                len(task.configuration.vm_names) - len(task.frozen)
                >= _POOL_ZONE_VMS
                for task in tasks
            )
            workers = min(os.cpu_count() or 1, worth_a_worker)
        else:
            workers = len(tasks) if self.zone_executor == "process" else 1
        if workers < 2:
            # Zones run one after another, so they share the single
            # wall-clock budget: each gets what the earlier ones left over
            # (a small floor keeps every zone able to at least attempt a
            # first solution; an out-of-budget zone fails fast and triggers
            # the monolithic re-solve).
            outcomes = list(reused)
            for task in tasks:
                task.timeout = max(
                    MIN_CARVED_TIMEOUT_S, deadline - time.monotonic()
                )
                outcomes.append(solve_zone(task))
            return outcomes
        # More zones than workers queue in ceil(zones/workers) waves on the
        # pool; carve what is left of the budget per wave so wall-clock
        # stays <= budget.
        waves = -(-len(tasks) // workers)
        carved = max(MIN_CARVED_TIMEOUT_S, (deadline - time.monotonic()) / waves)
        for task in tasks:
            task.timeout = carved
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
        try:
            outcomes = list(self._pool.map(solve_zone, tasks))
        except BrokenProcessPool:
            # A worker died (killed, out of memory): the pool is unusable,
            # so drop it and let the next solve that needs one respawn it.
            self.close()
            raise
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
