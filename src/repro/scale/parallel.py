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

Keep-in-place before the zones: on an *exact* decomposition under a unary
catalog no home and no domain crosses a zone, so the zones' incumbents
compose to one pass, run before any zone is cut, that reads node loads and
the few VMs that cannot stay home.  Only a round it misses the lower bound
on is solved by zones.

Sub-problem extraction (:func:`repro.core.optimizer.extract`): a zone's
sub-configuration contains only the zone's nodes and VMs.  A zone VM whose
current host (or suspend image) lies outside the zone is represented as
*waiting* in the sub-configuration — its true movement cost is then a
constant (the same for every zone node), so the arg-min placement is
unaffected and the exact cost is restored by the global planning pass.

A warm round costs what changed.  Under ``dirty`` (the repair engine's
dirty region: the VMs it re-decides; every other VM that runs and must keep
running is *frozen* — it keeps its host, inside its domain, so inside its
zone) the pending zones are found from the dirty VMs — a zone none of them
belongs to is reused without being looked at, and no layer lists the frozen
ones — and every pending zone is *cut*: only its dirty VMs enter the
sub-configuration, over nodes whose capacity is what the frozen residents
leave (the live free capacity plus what the dirty and leaving residents
hold), under what its catalog asks of them once the frozen VMs stay
(:func:`repro.core.optimizer.residual_catalog`), so extraction, model and
search scale with the dirty VMs and the nodes of their zones.  A zone whose
frozen VMs alone break a relation answers no assignment without a solve.

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
from dataclasses import dataclass, replace
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence, Tuple

from ..constraints.base import PlacementConstraint
from ..core.optimizer import (
    CompletedStates,
    ContextSwitchOptimizer,
    OptimizationResult,
    extract,
    residual_catalog,
)
from ..cp import SearchStatistics
from ..model.configuration import Configuration
from ..model.errors import PlanningError, SolverError
from ..model.vm import VMState
from ..obs import current_tracer, span
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
    ever see their own zone, and of a cut zone only the VMs to re-place
    (whose ``zone.constraints`` are then the residual catalog).
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
    #: True when the zone was untouched by the repair round: its VMs stay
    #: where they are (``assignment`` names none of them) without entering a
    #: solver.
    reused: bool = False


def build_zone_configuration(
    current: Configuration,
    zone: Zone,
    dirty: Optional[Sequence[str]] = None,
    released: Optional[Mapping[str, Sequence[int]]] = None,
) -> Configuration:
    """A zone's sub-configuration (:func:`~repro.core.optimizer.extract`):
    its nodes and VMs, or, with ``dirty`` — the zone's VMs this round
    re-places, in zone order — the zone *cut* around them, its nodes
    offering their live free capacity plus ``released``, the (cpus, MB) held
    on each node by residents the round does not freeze there."""
    if dirty is None:
        return extract(current, zone.nodes, zone.vms)
    return extract(current, zone.nodes, dirty, released or {})


def _zone_size(zone: Zone, extracted: Sequence[str]) -> Dict[str, int]:
    """The ``zone`` span's size attributes: ``pinned`` counts the zone's VMs
    the round froze, those its cut did not extract."""
    return {
        "zone": zone.index,
        "vms": len(zone.vms),
        "nodes": len(zone.nodes),
        "pinned": len(zone.vms) - len(extracted),
    }


def solve_zone(task: ZoneTask) -> ZoneOutcome:
    """Solve one zone under a ``zone`` span; module-level so process pools
    can import it."""
    extracted = task.configuration.vm_names
    with span("zone", **_zone_size(task.zone, extracted)):
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

    def optimize(
        self,
        current: Configuration,
        target_states: Mapping[str, VMState],
        vjob_of_vm: Optional[Mapping[str, str]] = None,
        constraints: Sequence[PlacementConstraint] = (),
        dirty: Optional[AbstractSet[str]] = None,
        deadline: Optional[float] = None,
        completed: Optional[CompletedStates] = None,
        settled: Optional[Dict[int, Optional[str]]] = None,
    ) -> OptimizationResult:
        """Same contract as :meth:`ContextSwitchOptimizer.optimize`; the
        result's ``partition_method`` / ``partition_reason`` /
        ``zone_reports`` say how the instance was decomposed.

        ``dirty`` composes the repair engine with partitioning: a zone none
        of whose VMs is dirty keeps them where they are (no solver, no
        worker), a partially-dirty zone solves around its frozen VMs.  A
        frozen VM sits inside its domain, so the partitioner put it in the
        zone of its host.  Every layer reads the dirty VMs, never the
        frozen ones, so a warm round pays for what changed.

        A round :meth:`_keep_in_place` answers cuts no zone: its
        ``zone_reports`` is empty, its ``partition`` span says
        ``answered="incumbent"``."""
        if deadline is None:
            deadline = time.monotonic() + self.timeout
        if completed is None:
            completed = self._complete_states(current, target_states)
        states, changed = completed
        with span("partition") as partition_span:
            decomposition, reused = self._decompose(current, states, constraints)
            partition_span.set(
                method=decomposition.method,
                zones=len(decomposition.zones),
                exact=decomposition.exact,
                reused=reused,
            )
        outcomes: List[ZoneOutcome] = []
        kept = None
        if decomposition.is_win:
            running = VMState.RUNNING
            leaving, arriving = [], []
            for vm in changed:
                if current.state_of(vm) is running:
                    leaving.append(vm)
                elif states[vm] is running:
                    arriving.append(vm)
            if decomposition.exact and not any(c.relational for c in constraints):
                kept = self._keep_in_place(
                    current, decomposition, dirty, leaving, arriving
                )
            if kept is not None:
                partition_span.set(answered="incumbent")
            else:
                outcomes = sorted(
                    self._solve_zones(
                        current, decomposition, deadline, dirty=dirty, leaving=leaving
                    ),
                    key=lambda o: o.index,
                )
        failed = [o.index for o in outcomes if o.assignment is None]
        reason = decomposition.reason
        if failed:
            reason = f"zones {failed} found no viable assignment"
        elif decomposition.is_win:
            # Deterministic merge: zones are index-ordered, assignments are
            # disjoint by construction; a VM none of them names stays put.
            merged: dict[str, str] = {}
            for outcome in outcomes:
                merged.update(outcome.assignment)
            statistics = merge_statistics(outcomes, exact=decomposition.exact)
            if kept is not None:
                merged, statistics = kept
            try:
                result = self._finish(
                    current,
                    states,
                    changed,
                    merged,
                    statistics,
                    [],
                    vjob_of_vm,
                    constraints,
                    settled,
                )
            except PlanningError as error:
                # The zones answered, but the planner cannot reach their
                # merged target (no pivot for a migration cycle, say): the
                # monolithic search may pick a target it can.
                reason = (
                    "the merged assignment could not be planned "
                    f"({type(error).__name__}: {error})"
                )
            else:
                result.partition_method = decomposition.method
                result.zone_reports = outcomes
                return result
        # The re-solve runs against the round's deadline: it gets what the
        # partition and the zones left, and nothing past it.
        result = super().optimize(
            current,
            target_states,
            vjob_of_vm=vjob_of_vm,
            constraints=constraints,
            dirty=dirty,
            deadline=deadline,
            completed=completed,
            settled=settled,
        )
        result.partition_reason = reason
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
        domains = self.domains.of(current, placed_vms(states), constraints)
        decomposition = partition(
            current, states, constraints, shards=self.shards, domains=domains
        )
        self._kept = None
        if key is not None and decomposition.is_win and decomposition.exact:
            self._kept = (key, states, decomposition)
        return decomposition, False

    def _keep_in_place(
        self,
        current: Configuration,
        decomposition: PartitionResult,
        dirty: Optional[AbstractSet[str]],
        leaving: Sequence[str],
        arriving: Sequence[str],
    ) -> Optional[Tuple[Dict[str, str], SearchStatistics]]:
        """What the zones of an exact ``decomposition`` under a unary catalog
        merge to when each answers with its incumbent at the lower bound, else
        ``None``.  Its ``cp.solve`` span covers it.

        Table 1 prices a stay below a move, so the bound is met exactly when
        every VM that may stay home does.  Every VM stays but the
        ``leaving``, the *misplaced* (running outside its domain) and the
        ``arriving`` ones, of which only a resume onto its image node stays
        home.  A node has what it offers a zone's sub-configuration left,
        less its stayers: its free capacity, plus what its leaving and
        misplaced residents hold, minus the resumes onto it.  The stayers
        all stay when no node is left short, and a node none of the
        exceptions touches is short only when it is overloaded.  The
        homeless are packed by the zones' packer over what is left, in
        registration order, each domain in node order."""
        tracer = current_tracer()
        started = tracer.now() if tracer is not None else None
        domains = decomposition.domains
        # The unfrozen placed VMs that run, on their hosts: a warm round
        # reads its few dirty ones, a cold one the placement (less the
        # leaving VMs).
        if dirty is None:
            unfrozen = decomposition.zone_of_vm.keys()
            placement = current.iter_placement()
        else:
            unfrozen = dirty
            placement = zip(dirty, map(current.location_of, dirty))
        hosts = {
            vm: host
            for vm, host in placement
            if host is not None and vm in unfrozen
        }
        misplaced = [vm for vm, host in hosts.items() if host not in domains[vm]]
        shift = current.load_by_host([*leaving, *misplaced])
        homeless, bound = [], 0
        for vm in [*misplaced, *arriving]:
            elsewhere, home, at_home = self._movement_costs(current, vm)
            if home in domains[vm]:
                hosts[vm] = home
                machine = current.vm(vm)
                load = shift.setdefault(home, [0, 0])
                load[0] -= machine.cpu_demand
                load[1] -= machine.memory
                bound += at_home
            else:
                homeless.append(vm)
                bound += elsewhere

        def room(node: str) -> Tuple[int, int]:
            free = current.free_capacity(node)
            cpu, memory = shift.get(node, (0, 0))
            return free.cpu + cpu, free.memory + memory

        overloaded = [v.node for v in current.viability_violations(only_dirty=True)]
        if any(min(room(node)) < 0 for node in {*overloaded, *shift}):
            return None
        homeless = current.in_registration_order(homeless)
        candidates, ordered = [], {}
        for vm in homeless:
            allowed = domains[vm]
            nodes = ordered.get(id(allowed))
            if nodes is None:
                nodes = ordered[id(allowed)] = sorted(allowed, key=current.node_index)
            candidates.append(nodes)
        demands = [current.vm(vm).demand.as_tuple() for vm in homeless]
        packed = self._incumbent(demands, room, candidates, [None] * len(homeless))
        if packed is None:
            return None
        hosts.update(zip(homeless, packed))
        return hosts, self._answered_by_incumbent(bound, started)

    def _zone_tasks(
        self,
        current: Configuration,
        decomposition: PartitionResult,
        dirty: Optional[AbstractSet[str]] = None,
        leaving: Sequence[str] = (),
    ) -> Tuple[List[ZoneOutcome], List[ZoneTask]]:
        """The outcomes of the zones answered without a solve, and one task
        (its timeout still to be set) per zone to solve.

        Repair composition: a zone with no dirty VM is untouched by this
        round — its VMs stay where they are and it is never shipped to a
        worker.  The dirty zones are found from the dirty VMs, and each is
        cut around them (:func:`build_zone_configuration`) under its
        residual catalog; one whose frozen VMs alone break a relation
        answers no assignment.  ``leaving`` are the running VMs that must
        not keep running: they hold capacity no zone's model counts."""
        if dirty is None:
            return [], [
                ZoneTask(zone, build_zone_configuration(current, zone))
                for zone in decomposition.zones
            ]
        zone_of_vm = decomposition.zone_of_vm
        #: The VMs each zone re-places: its dirty VMs.
        free: Dict[int, List[str]] = {}
        for vm in dirty:
            free.setdefault(zone_of_vm[vm], []).append(vm)
        #: The running VMs that do not keep their host, and the (cpus, MB)
        #: they hold on each node.
        moving = set(leaving).union(dirty)
        released = current.load_by_host(moving)
        answered: List[ZoneOutcome] = []
        tasks: List[ZoneTask] = []
        for zone in decomposition.zones:
            reused = zone.index not in free
            catalog = None if reused else residual_catalog(
                zone.constraints, current, moving
            )
            if catalog is None:
                # Nothing to decide, or nothing its frozen VMs let it decide.
                answered.append(
                    ZoneOutcome(
                        index=zone.index,
                        assignment={} if reused else None,
                        statistics=SearchStatistics(),
                        elapsed=0.0,
                        node_count=len(zone.nodes),
                        vm_count=len(zone.vms),
                        reused=reused,
                    )
                )
                continue
            vms = current.in_registration_order(free[zone.index])
            cut = build_zone_configuration(current, zone, vms, released)
            residual = replace(zone, constraints=tuple(catalog))
            tasks.append(ZoneTask(residual, cut))
        return answered, tasks

    def _solve_zones(
        self,
        current: Configuration,
        decomposition: PartitionResult,
        deadline: float,
        dirty: Optional[AbstractSet[str]] = None,
        leaving: Sequence[str] = (),
    ) -> List[ZoneOutcome]:
        """Solve the zones of ``decomposition`` by ``deadline`` — the
        round's: the partition and the extraction before the first zone are
        paid out of the same budget."""
        answered, tasks = self._zone_tasks(current, decomposition, dirty, leaving)
        if not tasks:
            return answered

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
            outcomes = list(answered)
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
                size = _zone_size(task.zone, task.configuration.vm_names)
                with span("zone", remote=True, **size) as zone_span:
                    outcome.statistics.record_on(zone_span)
                zone_span.start = submitted
                zone_span.end = submitted + outcome.elapsed
        return answered + outcomes

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
