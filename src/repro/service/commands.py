"""The command queue the control loop drains between rounds.

HTTP handler threads (or any other producer) push commands; the loop pops
and applies them at the next iteration boundary, *before* observing the
cluster — so a command always takes effect at a well-defined point of
simulated time, runs are deterministic for a given arrival round, and no
producer ever touches live simulation state concurrently with the loop.

Two operator commands are provided — submit a vjob workload mid-run, inject
a fault — plus a generic :meth:`LoopCommandQueue.call` escape hatch.  A
command that raises is recorded (``errors``) and does not poison the queue:
the loop keeps running, the daemon reports the failure.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, List, Tuple

from ..sim.faults import FaultEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.loop import ControlLoop

#: A command: applied as ``command(loop, now)`` at an iteration boundary.
LoopCommand = Callable[["ControlLoop", float], None]


class LoopCommandQueue:
    """Thread-safe FIFO of commands drained by the control loop.

    The loop calls :meth:`drain` once per iteration (its only coupling to
    this module — the queue is duck-typed there); producers use
    :meth:`submit_workload`, :meth:`inject_fault` or :meth:`call`.
    """

    def __init__(self) -> None:
        self._pending: List[Tuple[str, LoopCommand]] = []
        self._lock = threading.Lock()
        #: ``(label, repr(error))`` of every command that raised during a
        #: drain, in application order.
        self.errors: List[Tuple[str, str]] = []
        #: Labels of successfully applied commands, in application order.
        self.applied: List[str] = []

    # ------------------------------------------------------------------ #
    # producers                                                           #
    # ------------------------------------------------------------------ #

    def call(self, command: LoopCommand, label: str = "call") -> None:
        """Enqueue an arbitrary ``command(loop, now)`` callable."""
        with self._lock:
            self._pending.append((label, command))

    def submit_workload(self, workload: Any) -> None:
        """Enqueue a :class:`~repro.workloads.traces.VJobWorkload` for
        mid-run submission.

        Applied at the next iteration boundary through
        :meth:`ControlLoop.add_workload <repro.api.loop.ControlLoop.add_workload>`:
        the vjob's VMs join the cluster in the Waiting state and the vjob is
        submitted at the current simulated time (an earlier ``submitted_at``
        is bumped — a vjob cannot arrive in the past).
        """

        def apply(loop: "ControlLoop", now: float) -> None:
            loop.add_workload(workload)
            # The loop submits the vjob to its queue later in this round,
            # and the queue reads its key then.
            workload.vjob.submitted_at = max(workload.vjob.submitted_at, now)

        self.call(apply, label=f"submit_vjob:{workload.vjob.name}")

    def inject_fault(self, event: FaultEvent) -> None:
        """Enqueue a fault event for the run's injector.

        The loop must have been built with a fault injector (the daemon
        always attaches one — an empty schedule if the scenario declared
        none); an event scheduled in the simulated past fires at the next
        iteration boundary instead.
        """

        def apply(loop: "ControlLoop", now: float) -> None:
            if loop.faults is None:
                raise RuntimeError(
                    "this run has no fault injector; build the scenario with "
                    "faults=FaultSchedule() (Scenario.serve does this) to "
                    "accept runtime fault injection"
                )
            loop.faults.inject(event)

        self.call(apply, label=f"inject_fault:{event.kind.value}:{event.target}")

    # ------------------------------------------------------------------ #
    # the loop side                                                       #
    # ------------------------------------------------------------------ #

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._pending)

    def drain(self, loop: "ControlLoop", now: float) -> int:
        """Apply every queued command against ``loop`` at time ``now``;
        return how many ran (the loop then reconciles its vjobs).

        A failing command is recorded on :attr:`errors` and skipped.
        """
        with self._lock:
            commands, self._pending = self._pending, []
        for label, command in commands:
            try:
                command(loop, now)
            except Exception as error:
                with self._lock:
                    self.errors.append((label, repr(error)))
            else:
                with self._lock:
                    self.applied.append(label)
        return len(commands)
