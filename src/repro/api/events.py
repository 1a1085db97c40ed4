"""Observer hooks for the control loop.

A :class:`LoopObserver` receives a callback at each stage of the
observe/decide/plan/execute iteration, so metrics sampling, tracing or live
dashboards attach to a run without subclassing the loop.  The base class is a
no-op: override only the hooks you care about and pass the instance through
``Scenario(observers=[...])`` or ``Scenario.observe(...)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.context_switch import ContextSwitchReport
    from ..model.configuration import Configuration
    from .decision import Decision
    from .results import (
        ConstraintViolationRecord,
        ContextSwitchRecord,
        FaultRecord,
        RunResult,
        UtilizationSample,
    )


class LoopObserver:
    """No-op base class for control-loop observers."""

    def on_run_start(self, loop: Any) -> None:
        """The loop is about to execute its first iteration."""

    def on_iteration(self, time: float, configuration: "Configuration") -> None:
        """A new iteration starts; monitoring has just been refreshed."""

    def on_decision(self, time: float, decision: "Decision") -> None:
        """The decision module returned its target VM states."""

    def on_switch(
        self, record: "ContextSwitchRecord", report: "ContextSwitchReport"
    ) -> None:
        """A cluster-wide context switch was planned and executed."""

    def on_sample(self, sample: "UtilizationSample") -> None:
        """A utilization sample was taken (end of the iteration)."""

    def on_vjob_completed(self, name: str, time: float) -> None:
        """A vjob finished all its work and was terminated."""

    def on_fault(self, record: "FaultRecord") -> None:
        """A fault fired and was applied to the cluster (chaos runs only)."""

    def on_repair(self, name: str, latency: float) -> None:
        """A vjob knocked out by a crash is running again; ``latency`` is the
        crash-to-running repair time in seconds."""

    def on_constraint_violation(
        self, record: "ConstraintViolationRecord"
    ) -> None:
        """A placement constraint was observed broken (constrained runs
        only); fires once per violation-timeline entry."""

    def on_run_end(self, result: "RunResult") -> None:
        """The loop completed; ``result`` is about to be returned."""


class RecordingObserver(LoopObserver):
    """Observer that records every event — handy in tests and notebooks."""

    def __init__(self) -> None:
        self.events: list[tuple[str, Any]] = []

    def on_run_start(self, loop: Any) -> None:
        self.events.append(("run_start", loop))

    def on_iteration(self, time: float, configuration: "Configuration") -> None:
        self.events.append(("iteration", time))

    def on_decision(self, time: float, decision: "Decision") -> None:
        self.events.append(("decision", (time, decision)))

    def on_switch(
        self, record: "ContextSwitchRecord", report: "ContextSwitchReport"
    ) -> None:
        self.events.append(("switch", record))

    def on_sample(self, sample: "UtilizationSample") -> None:
        self.events.append(("sample", sample))

    def on_vjob_completed(self, name: str, time: float) -> None:
        self.events.append(("vjob_completed", (name, time)))

    def on_fault(self, record: "FaultRecord") -> None:
        self.events.append(("fault", record))

    def on_repair(self, name: str, latency: float) -> None:
        self.events.append(("repair", (name, latency)))

    def on_constraint_violation(
        self, record: "ConstraintViolationRecord"
    ) -> None:
        self.events.append(("constraint_violation", record))

    def on_run_end(self, result: "RunResult") -> None:
        self.events.append(("run_end", result))

    def of_kind(self, kind: str) -> list[Any]:
        return [payload for name, payload in self.events if name == kind]
