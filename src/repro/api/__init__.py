"""Public API of the pluggable control loop.

This package is the single entry point for building and running experiments:

* :class:`Scenario` — declarative experiment description replacing
  hand-wired simulation setup;
* :class:`ControlLoop` — the policy-agnostic observe/decide/plan/execute loop;
* :class:`Decision` / :class:`DecisionModule` — the contract every decision
  policy implements;
* :func:`register_decision_module` / :func:`get_decision_module` — the
  string-keyed policy registry ("consolidation", "fcfs", "ffd", "rjsp" are
  pre-registered);
* :class:`RunResult` and friends — the structured result every run returns,
  including the chaos series (:class:`FaultRecord` timeline, repair
  latencies, SLA violations, lost vjobs) populated when a scenario attaches
  a :class:`~repro.sim.faults.FaultSchedule` (``Scenario(faults=...)``);
* :class:`LoopObserver` — per-iteration hooks for metrics and tracing
  (``on_fault`` / ``on_repair`` fire during chaos runs).
"""

from .decision import (
    Decision,
    DecisionModule,
    needs_switch,
    stop_terminated_vms,
)
from .events import LoopObserver, RecordingObserver
from .loop import ControlLoop, policy_label, resolve_policy
from .registry import (
    UnknownDecisionModuleError,
    available_decision_modules,
    get_decision_module,
    register_decision_module,
)
from .results import (
    ConstraintViolationRecord,
    ContextSwitchRecord,
    FaultRecord,
    RunResult,
    UtilizationSample,
)
from .scenario import Scenario

__all__ = [
    "FaultRecord",
    "Decision",
    "DecisionModule",
    "needs_switch",
    "stop_terminated_vms",
    "LoopObserver",
    "RecordingObserver",
    "ControlLoop",
    "policy_label",
    "resolve_policy",
    "UnknownDecisionModuleError",
    "available_decision_modules",
    "get_decision_module",
    "register_decision_module",
    "ConstraintViolationRecord",
    "ContextSwitchRecord",
    "RunResult",
    "UtilizationSample",
    "Scenario",
]
