"""Fault injection: node crashes, slow-downs, migration failures, late boots.

The paper's evaluation replays clean, static campaigns, but the whole point
of the cluster-wide context switch is reacting to a cluster whose *demand and
availability* change under it.  This module adds the availability half: a
seeded, scriptable fault schedule whose events fire inside the control loop,
so policies observe failures mid-run and must re-plan.

Four fault kinds are modelled:

``NODE_CRASH``
    The node disappears.  Running VMs hosted on it are killed and the suspend
    images it stored are lost; the affected vjobs fall back to the Waiting
    state (all their VMs together — the consistency requirement of
    Section 4.1) and re-enter the queue, so the next decision round restarts
    them elsewhere.  The node is evicted from the configuration: planners and
    decision modules simply stop seeing it.
``NODE_SLOWDOWN``
    For a time window, vjob progress on the node advances ``factor`` times
    slower (a failing disk, a noisy neighbour, thermal throttling).
``MIGRATION_FAILURE``
    A live migration aborts mid-flight: the VM stays on its source node, the
    attempt's duration is wasted, and the switch report records the failure.
    The loop replans the move on the next round — failed migrations re-enter
    the queue implicitly because the decision module re-derives them.
``DELAYED_BOOT``
    A node of the fleet only becomes available at the event time (slow POST,
    staggered power-on, late delivery).  Until then it is absent from the
    configuration.

The injector keeps the events that have not fired on a time-ordered heap,
and the control loop takes what is due up to its current simulated time at
the start of each iteration — faults are therefore *detected* with the
loop's monitoring granularity, like on a real cluster.

Everything stochastic flows through seeded ``random.Random`` instances:
the same :class:`FaultSchedule` always produces the same run, which is what
lets ``tests/integration/golden/chaos_recovery.json`` pin an entire chaos
campaign byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..model.configuration import Configuration


class FaultKind(enum.Enum):
    """The injectable fault families."""

    NODE_CRASH = "node_crash"
    NODE_SLOWDOWN = "node_slowdown"
    MIGRATION_FAILURE = "migration_failure"
    DELAYED_BOOT = "delayed_boot"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` names a node (crash, slowdown, delayed boot) or a VM
    (migration failure).  ``factor`` and ``duration`` only apply to
    slow-downs: progress on the node is divided by ``factor`` during
    ``[time, time + duration)``.
    """

    time: float
    kind: FaultKind
    target: str
    factor: float = 1.0
    duration: float = 0.0

    def __post_init__(self) -> None:
        for name in ("time", "factor", "duration"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"fault {name} must be finite")
        if self.time < 0:
            raise ValueError("fault time must be non-negative")
        if self.kind is FaultKind.NODE_SLOWDOWN:
            if self.factor <= 1.0:
                raise ValueError("a slowdown needs a factor > 1")
            if self.duration <= 0:
                raise ValueError("a slowdown needs a positive duration")

    @property
    def end(self) -> float:
        """End of a slowdown window (the event time otherwise)."""
        return self.time + self.duration


@dataclass
class FaultSchedule:
    """A deterministic script of faults plus stochastic failure rates.

    Build one fluently::

        schedule = (
            FaultSchedule()
            .node_crash("node-1", at=120.0)
            .node_slowdown("node-2", at=60.0, duration=300.0, factor=2.0)
            .add(FaultEvent(0.0, FaultKind.MIGRATION_FAILURE, "vjob0.vm1"))
        )

    or draw one from seeded rates with :func:`random_fault_schedule`.
    ``migration_failure_rate`` additionally makes *every* migration attempt
    fail with that probability (drawn from ``seed``, so runs stay
    reproducible).  A schedule is a passive description — hand it to
    :class:`~repro.api.scenario.Scenario` (``faults=schedule``), which builds
    one fresh :class:`FaultInjector` per run.
    """

    events: list[FaultEvent] = field(default_factory=list)
    migration_failure_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.migration_failure_rate <= 1.0:
            raise ValueError(
                "migration_failure_rate must be a probability in [0, 1], "
                f"not {self.migration_failure_rate!r}"
            )

    # ------------------------------------------------------------------ #
    # fluent builders                                                     #
    # ------------------------------------------------------------------ #

    def add(self, event: FaultEvent) -> "FaultSchedule":
        self.events.append(event)
        return self

    def node_crash(self, node: str, at: float) -> "FaultSchedule":
        """Crash ``node`` at time ``at`` (its VMs and images are lost)."""
        return self.add(FaultEvent(time=at, kind=FaultKind.NODE_CRASH, target=node))

    def node_slowdown(
        self, node: str, at: float, duration: float, factor: float = 2.0
    ) -> "FaultSchedule":
        """Slow vjob progress on ``node`` by ``factor`` during the window."""
        return self.add(
            FaultEvent(
                time=at,
                kind=FaultKind.NODE_SLOWDOWN,
                target=node,
                factor=factor,
                duration=duration,
            )
        )

    # ------------------------------------------------------------------ #
    # views                                                               #
    # ------------------------------------------------------------------ #

    def ordered(self) -> list[FaultEvent]:
        """Events sorted by time, insertion order breaking ties."""
        return sorted(self.events, key=lambda e: e.time)

    def of_kind(self, kind: FaultKind) -> list[FaultEvent]:
        return [e for e in self.ordered() if e.kind is kind]

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events) or self.migration_failure_rate > 0


def random_fault_schedule(
    node_names: Iterable[str],
    horizon: float,
    seed: int = 0,
    crash_rate_per_hour: float = 0.0,
    slowdown_rate_per_hour: float = 0.0,
    slowdown_factor: float = 2.0,
    slowdown_duration: float = 300.0,
    migration_failure_rate: float = 0.0,
    max_crashes: Optional[int] = None,
) -> FaultSchedule:
    """Draw a seeded stochastic fault schedule over ``[0, horizon)``.

    Crash and slowdown arrivals follow independent per-node Poisson processes
    (exponential inter-arrival times at the given hourly rates); each node
    crashes at most once.  ``max_crashes`` caps the total number of crashes so
    a small cluster cannot be wiped out by an unlucky seed.  The same
    arguments always produce the same schedule.
    """
    # The per-node draws consume the seeded stream in iteration order, so an
    # *unordered* collection (a set of node names, a dict-keys view) would
    # make the timeline depend on hash randomization and differ between
    # processes.  Sequences keep their caller-chosen order; anything else is
    # canonicalized by sorting so one seed means one timeline, everywhere.
    if isinstance(node_names, (list, tuple)):
        ordered_nodes: Sequence[str] = node_names
    else:
        ordered_nodes = sorted(node_names)
    rng = random.Random(seed)
    schedule = FaultSchedule(
        migration_failure_rate=migration_failure_rate, seed=seed
    )
    crashes: list[FaultEvent] = []
    for node in ordered_nodes:
        if crash_rate_per_hour > 0:
            at = rng.expovariate(crash_rate_per_hour / 3600.0)
            if at < horizon:
                crashes.append(
                    FaultEvent(time=at, kind=FaultKind.NODE_CRASH, target=node)
                )
        if slowdown_rate_per_hour > 0:
            t = rng.expovariate(slowdown_rate_per_hour / 3600.0)
            while t < horizon:
                schedule.node_slowdown(
                    node, at=t, duration=slowdown_duration, factor=slowdown_factor
                )
                t += slowdown_duration + rng.expovariate(
                    slowdown_rate_per_hour / 3600.0
                )
    crashes.sort(key=lambda e: e.time)
    if max_crashes is not None:
        crashes = crashes[:max_crashes]
    for event in crashes:
        schedule.add(event)
    return schedule


@dataclass(frozen=True)
class NodeEviction:
    """Outcome of evicting a node from a configuration (crash semantics)."""

    node: str
    #: Running VMs that were killed with the node.
    displaced_vms: tuple[str, ...]
    #: Sleeping VMs whose suspend image lived on the node and is now lost.
    lost_images: tuple[str, ...]

    @property
    def affected_vms(self) -> tuple[str, ...]:
        return self.displaced_vms + self.lost_images


def evict_node(configuration: Configuration, node_name: str) -> NodeEviction:
    """Apply the configuration-level effects of a node crash.

    Running VMs on the node are killed (back to Waiting), suspend images
    stored on it vanish (their sleeping VMs fall back to Waiting — there is
    nothing left to resume), and the node itself is removed.  Callers own the
    vjob-level consequences: the control loop additionally resets every
    sibling VM of an affected vjob so the vjob restarts consistently.
    """
    displaced = tuple(configuration.vms_on(node_name))
    # O(answer) via the per-node suspend-image index, in registration order.
    lost = configuration.images_on(node_name)
    for vm in displaced + lost:
        configuration.set_waiting(vm)
    configuration.remove_node(node_name)
    return NodeEviction(node=node_name, displaced_vms=displaced, lost_images=lost)


class FaultInjector:
    """Live state of one fault schedule during one control-loop run.

    The injector keeps the node events that have not fired yet on a heap
    ordered by time, then by scheduling order; the loop calls :meth:`fire`
    once per iteration and applies whatever became due.  The executor
    consults :meth:`should_fail_migration` per migration attempt and the
    progress accounting consults :meth:`slowdowns_at` once per round.

    One injector serves exactly one run — it is as stateful as the workloads.
    :meth:`Scenario.build <repro.api.scenario.Scenario.build>` therefore
    creates a fresh injector from the scenario's schedule for every run.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        #: Node events not fired yet, as ``(time, sequence, event)``.
        self._pending: list[tuple[float, int, FaultEvent]] = []
        self._sequence = itertools.count()
        #: The latest instant :meth:`fire` was asked about.
        self._now = 0.0
        #: One-shot scripted migration failures, armed until consumed.
        self._pending_migration_faults: list[FaultEvent] = []
        self._rng = random.Random(schedule.seed)
        self._slowdowns: list[FaultEvent] = []
        for event in schedule.ordered():
            if event.kind is FaultKind.MIGRATION_FAILURE:
                self._pending_migration_faults.append(event)
            else:
                self._schedule(event)

    def _schedule(self, event: FaultEvent) -> None:
        if event.kind is FaultKind.NODE_SLOWDOWN:
            # Windows are queried by time, but the event still fires so
            # observers see it start.
            self._slowdowns.append(event)
        heapq.heappush(self._pending, (event.time, next(self._sequence), event))

    def inject(self, event: FaultEvent) -> None:
        """Add one fault event to a *live* injector (operator-daemon path).

        Scripted schedules are fixed at construction; this is the runtime
        escape hatch the service's ``POST /faults`` endpoint uses (the
        schedule object stays untouched — it may be shared across runs).  An
        event whose time is already in the simulated past is scheduled *now*
        — it fires at the next :meth:`fire` call (you cannot crash a node
        retroactively).  ``DELAYED_BOOT`` cannot be injected at runtime: the
        held-back node set is fixed when the control loop is built.
        """
        if event.kind is FaultKind.DELAYED_BOOT:
            raise ValueError(
                "delayed_boot faults cannot be injected into a running loop; "
                "declare them on the scenario's FaultSchedule instead"
            )
        if event.time < self._now:
            # Re-stamp the event at its effective time so every consumer —
            # the fault timeline, slowdown windows, repair-latency
            # attribution — sees when the fault actually happened, not the
            # stale past timestamp the operator asked for.
            event = dataclasses.replace(event, time=self._now)
        if event.kind is FaultKind.MIGRATION_FAILURE:
            self._pending_migration_faults.append(event)
        else:
            self._schedule(event)

    # ------------------------------------------------------------------ #
    # queries                                                             #
    # ------------------------------------------------------------------ #

    def delayed_boot_nodes(self) -> tuple[str, ...]:
        """Nodes that must be absent from the initial configuration."""
        return tuple(
            e.target for e in self.schedule.of_kind(FaultKind.DELAYED_BOOT)
        )

    def fire(self, now: float) -> list[FaultEvent]:
        """Events that became due at or before ``now`` and have not fired
        yet, in time order, ties in scheduling order."""
        self._now = max(self._now, now)
        due = []
        while self._pending and self._pending[0][0] <= now:
            due.append(heapq.heappop(self._pending)[2])
        return due

    def slowdowns_at(self, time: float) -> dict[str, float]:
        """The nodes whose progress is slowed at ``time``, each with its
        factor (> 1; the worst of its windows open at ``time``): empty when
        no slowdown is in force, so one query tells a round whether any
        host needs asking."""
        slowed: dict[str, float] = {}
        for event in self._slowdowns:
            if event.time <= time < event.end:
                slowed[event.target] = max(
                    slowed.get(event.target, 1.0), event.factor
                )
        return slowed

    def should_fail_migration(self, vm_name: str, time: float) -> bool:
        """Whether the migration of ``vm_name`` starting at ``time`` aborts.

        Scripted one-shot failures are consumed first; otherwise the
        stochastic ``migration_failure_rate`` draws from the injector's seeded
        generator.  Either way the decision is deterministic for a given
        schedule and execution history.
        """
        for event in self._pending_migration_faults:
            if event.target == vm_name and event.time <= time:
                self._pending_migration_faults.remove(event)
                return True
        if self.schedule.migration_failure_rate > 0:
            return self._rng.random() < self.schedule.migration_failure_rate
        return False
