"""Reproduction of "Cluster-Wide Context Switch of Virtualized Jobs".

Hermenier, Lèbre, Menaud — INRIA RR-6929 / HPDC 2010.

The package provides:

* :mod:`repro.api` — the public experiment API: the pluggable
  observe/decide/plan/execute control loop, the ``Scenario`` facade, the
  decision-module protocol and registry, and the structured ``RunResult``;
* :mod:`repro.model` — nodes, VMs, vjobs, configurations, viability;
* :mod:`repro.cp` — a finite-domain constraint solver (Choco replacement);
* :mod:`repro.constraints` — the declarative placement-constraint catalog
  (``Spread``, ``Ban``, ``Fence``, ``RunningCapacity``), compiled into the
  CP optimizer and checked end to end;
* :mod:`repro.core` — the cluster-wide context switch: actions, cost model,
  reconfiguration graphs/plans, planner and CP optimizer;
* :mod:`repro.scale` — scale-out: the interference partitioner and the
  parallel zone optimizer (``Scenario(engine="partitioned")``);
* :mod:`repro.instances` — the standalone benchmark suite: versioned
  problem instances (fleet + vjobs + constraints + faults + seed as one
  canonical JSON document), the optimizer-independent ``repro-verify``
  plan verifier and baseline floors;
* :mod:`repro.decision` — decision modules (FFD, RJSP, dynamic consolidation,
  FCFS), all registered in :mod:`repro.api`, and the analytic
  static-allocation (FCFS + EASY backfilling) baseline;
* :mod:`repro.sim` — a discrete-event cluster simulator calibrated on the
  paper's measurements (Xen/Ganglia/NFS substitute);
* :mod:`repro.workloads` — NASGrid-like vjobs and configuration generators;
* :mod:`repro.analysis` — metrics and report helpers for the experiments;
* :mod:`repro.testing` — factories shared by the test-suite and examples.

Quickstart::

    from repro import Scenario
    from repro.model import make_working_nodes
    from repro.workloads import paper_experiment_vjobs

    scenario = Scenario(
        nodes=make_working_nodes(11, cpu_capacity=2, memory_capacity=3584),
        workloads=paper_experiment_vjobs(count=8, vm_count=9),
        policy="consolidation",
    )
    result = scenario.run()
    print(result.makespan, result.switch_count)

Top-level exports resolve lazily (PEP 562): ``import repro`` — and therefore
any ``repro.<subpackage>`` import — stays cheap, and consumers that only need
the model or the constraint checker (the ``repro-verify`` verifier most of
all) never load the CP solver, the optimizer or the decision policies.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - static-analysis / IDE resolution only
    from . import config
    from .api import (
        ConstraintViolationRecord,
        ControlLoop,
        Decision,
        DecisionModule,
        FaultRecord,
        LoopObserver,
        RunResult,
        Scenario,
        UnknownDecisionModuleError,
        available_decision_modules,
        get_decision_module,
        register_decision_module,
    )
    from .constraints import (
        Ban,
        Fence,
        PlacementConstraint,
        RunningCapacity,
        Spread,
    )
    from .core import (
        ClusterContextSwitch,
        ContextSwitchOptimizer,
        ReconfigurationPlan,
        ReconfigurationPlanner,
        build_plan,
        plan_cost,
    )
    from .model import (
        Configuration,
        Node,
        ResourceVector,
        VirtualMachine,
        VJob,
        VJobQueue,
        VJobState,
        VMState,
        make_working_nodes,
    )
    from .sim.faults import FaultKind, FaultSchedule, random_fault_schedule

__version__ = "1.2.0"

#: Export name -> defining module (relative), resolved on first access.
_EXPORTS = {
    "config": ".config",
    "ConstraintViolationRecord": ".api",
    "ControlLoop": ".api",
    "Decision": ".api",
    "DecisionModule": ".api",
    "FaultRecord": ".api",
    "LoopObserver": ".api",
    "RunResult": ".api",
    "Scenario": ".api",
    "UnknownDecisionModuleError": ".api",
    "available_decision_modules": ".api",
    "get_decision_module": ".api",
    "register_decision_module": ".api",
    "Ban": ".constraints",
    "Fence": ".constraints",
    "PlacementConstraint": ".constraints",
    "RunningCapacity": ".constraints",
    "Spread": ".constraints",
    "FaultKind": ".sim.faults",
    "FaultSchedule": ".sim.faults",
    "random_fault_schedule": ".sim.faults",
    "ClusterContextSwitch": ".core",
    "ContextSwitchOptimizer": ".core",
    "ReconfigurationPlan": ".core",
    "ReconfigurationPlanner": ".core",
    "build_plan": ".core",
    "plan_cost": ".core",
    "Configuration": ".model",
    "Node": ".model",
    "ResourceVector": ".model",
    "VirtualMachine": ".model",
    "VJob": ".model",
    "VJobQueue": ".model",
    "VJobState": ".model",
    "VMState": ".model",
    "make_working_nodes": ".model",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    module = importlib.import_module(module_name, __name__)
    value = module if module_name == f".{name}" else getattr(module, name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
