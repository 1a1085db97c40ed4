"""Independent checking of placement constraints, end to end.

The checker is the second face of the catalog: it never trusts the CP
compilation and re-validates constraints against concrete states —

* :func:`check_configuration` — one configuration, e.g. the optimizer's
  target or the live cluster after a switch;
* :func:`check_plan` — **every intermediate state** of a
  :class:`~repro.core.plan.ReconfigurationPlan` (continuous satisfaction at
  pool granularity: the state after each pool completes, plus the stateful
  transition checks such as ``Root``'s no-migrate pin against the plan's
  source);
* :func:`violated_constraints` — the boolean variant the optimizer's
  fallback path asks (:mod:`repro.core.optimizer`).

The solver-side compilation and this checker are deliberately independent
implementations of the same semantics; the Hypothesis suite
(``tests/properties/test_constraint_properties.py``) holds them against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence

from .base import PlacementConstraint

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a core import cycle)
    from ..core.plan import ReconfigurationPlan
    from ..model.configuration import Configuration


@dataclass(frozen=True)
class Violation:
    """One constraint broken by a configuration or a plan stage.

    ``stage`` is ``None`` for a standalone configuration check; for a plan it
    is the number of pools already applied (``1`` = after the first pool, and
    the last stage is the plan's final state).
    """

    constraint: str
    message: str
    stage: Optional[int] = None

    def __str__(self) -> str:
        prefix = "" if self.stage is None else f"[after pool {self.stage}] "
        return f"{prefix}{self.message}"


def violated_constraints(
    configuration: "Configuration",
    constraints: Sequence[PlacementConstraint],
) -> List[PlacementConstraint]:
    """The constraints violated by ``configuration`` (boolean face)."""
    return [c for c in constraints if not c.is_satisfied_by(configuration)]


def check_configuration(
    configuration: "Configuration",
    constraints: Sequence[PlacementConstraint],
    stage: Optional[int] = None,
) -> List[Violation]:
    """Validate one configuration; returns one :class:`Violation` per broken
    constraint (empty when everything holds)."""
    violations: List[Violation] = []
    for constraint in constraints:
        if constraint.is_satisfied_by(configuration):
            continue
        message = (
            constraint.explain(configuration) or f"{constraint.label} is violated"
        )
        violations.append(
            Violation(constraint=constraint.label, message=message, stage=stage)
        )
    return violations


def plan_stages(plan: "ReconfigurationPlan") -> Iterator["Configuration"]:
    """The source configuration followed by the state after each pool.

    Stages follow the shared pool end-state convention
    (:func:`repro.core.plan.apply_pool_effects`) without the feasibility
    validation of :meth:`~repro.core.plan.ReconfigurationPlan.apply` — the
    checker's job is constraint satisfaction, not feasibility.
    """
    from ..core.plan import apply_pool_effects  # deferred: core imports us

    current = plan.source.copy()
    yield current
    for pool in plan.pools:
        stage = current.copy()
        apply_pool_effects(stage, pool)
        current = stage
        yield current


def check_plan(
    plan: "ReconfigurationPlan",
    constraints: Sequence[PlacementConstraint],
    include_source: bool = False,
) -> List[Violation]:
    """Validate every intermediate state of ``plan`` (continuous
    satisfaction).

    Stage ``k`` (``k >= 1``) is the configuration once the first ``k`` pools
    completed; stateful relations are additionally checked as transitions
    from the plan's source.  ``include_source`` also reports the violations
    already present *before* the plan runs — off by default, because a plan
    whose purpose is to repair a violation necessarily starts violated.
    """
    if not constraints:
        return []
    violations: List[Violation] = []
    stages = iter(plan_stages(plan))
    source = next(stages)
    if include_source:
        violations.extend(check_configuration(source, constraints, stage=0))
    for stage_index, state in enumerate(stages, start=1):
        violations.extend(
            check_configuration(state, constraints, stage=stage_index)
        )
        for constraint in constraints:
            if constraint.is_transition_satisfied(source, state):
                continue
            message = (
                constraint.explain_transition(source, state)
                or f"{constraint.label} is violated by the transition"
            )
            violations.append(
                Violation(
                    constraint=constraint.label,
                    message=message,
                    stage=stage_index,
                )
            )
    return violations
