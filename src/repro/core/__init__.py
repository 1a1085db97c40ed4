"""The paper's primary contribution: the cluster-wide context switch.

Actions and their cost model (Table 1), reconfiguration graphs and plans,
the pool-based planner that resolves sequential and inter-dependent
constraints (Section 4.1), the plan cost model (Section 4.2) and the
constraint-programming optimizer (Section 4.3).

Exports resolve lazily (PEP 562): importing a light submodule such as
:mod:`repro.core.actions` or :mod:`repro.core.plan` no longer loads the CP
optimizer and its solver.  The standalone verifier
(:mod:`repro.instances.verifier`) depends on this — it scores plans with the
action/plan/cost machinery and the independent constraint checker, and a
test asserts that its call path never imports the optimizer.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - static-analysis / IDE resolution only
    from .actions import (
        Action,
        ActionKind,
        Migrate,
        Resume,
        Run,
        Stop,
        Suspend,
    )
    from .context_switch import ClusterContextSwitch, ContextSwitchReport
    from .cost import ActionCost, PlanCost, plan_cost
    from .graph import Edge, ReconfigurationGraph
    from .optimizer import ContextSwitchOptimizer, OptimizationResult
    from .plan import Pool, ReconfigurationPlan, plan_from_pools
    from .planner import PlannerOptions, ReconfigurationPlanner, build_plan

#: Export name -> defining submodule, resolved on first attribute access.
_EXPORTS = {
    "Action": "actions",
    "ActionKind": "actions",
    "Migrate": "actions",
    "Resume": "actions",
    "Run": "actions",
    "Stop": "actions",
    "Suspend": "actions",
    "ClusterContextSwitch": "context_switch",
    "ContextSwitchReport": "context_switch",
    "ActionCost": "cost",
    "PlanCost": "cost",
    "plan_cost": "cost",
    "Edge": "graph",
    "ReconfigurationGraph": "graph",
    "ContextSwitchOptimizer": "optimizer",
    "OptimizationResult": "optimizer",
    "Pool": "plan",
    "ReconfigurationPlan": "plan",
    "plan_from_pools": "plan",
    "PlannerOptions": "planner",
    "ReconfigurationPlanner": "planner",
    "build_plan": "planner",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(f".{module_name}", __name__), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
