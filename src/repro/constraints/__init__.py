"""Declarative placement constraints, compiled into the CP core and checked
end to end.

The subsystem has three faces (see :mod:`repro.constraints.base`):

1. **compile** — each relation contributes unary domain restrictions and
   dedicated propagators to the optimizer's CP model
   (:mod:`repro.core.optimizer`);
2. **check** — an independent checker validates configurations and every
   intermediate state of a reconfiguration plan
   (:mod:`repro.constraints.checker`), wired into the planner, the executor
   and the control loop;
3. **repair** — on a node failure the control loop offers every constraint a
   repair hook before replanning the crashed vjobs onto the survivors.

Quickstart::

    from repro import Scenario
    from repro.constraints import Ban, Spread

    result = (
        Scenario(nodes=nodes, workloads=workloads, policy="consolidation")
        .with_constraints(Spread(["db.0", "db.1"]), Ban(["db.0"], ["node-3"]))
        .run()
    )
    print(result.constraint_violations)  # per-constraint violation timeline

The full catalog reference lives in ``docs/SCENARIOS.md``.
"""

from .base import NodeSetConstraint, PlacementConstraint, VMGroupConstraint
from .catalog import Ban, Fence, RunningCapacity, Spread
from .checker import (
    Violation,
    check_configuration,
    check_plan,
    plan_stages,
    violated_constraints,
)
from .domains import vm_domains
from .filtering import CandidateFilter

#: Every relation of the catalog, in documentation order.
CATALOG = (Spread, Ban, Fence, RunningCapacity)

__all__ = [
    "PlacementConstraint",
    "VMGroupConstraint",
    "NodeSetConstraint",
    "Spread",
    "Ban",
    "Fence",
    "RunningCapacity",
    "Violation",
    "check_configuration",
    "check_plan",
    "plan_stages",
    "violated_constraints",
    "CandidateFilter",
    "vm_domains",
    "CATALOG",
]
