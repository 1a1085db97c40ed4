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
* :func:`violated_constraints` — the boolean variant the one degrade path
  asks of a fallback (:mod:`repro.core.context_switch`).

The solver-side compilation and this checker are deliberately independent
implementations of the same semantics; the Hypothesis suite
(``tests/properties/test_constraint_properties.py``) holds them against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Iterator, List, Optional, Sequence

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


def _violation(
    constraint: PlacementConstraint, configuration: "Configuration"
) -> Optional[str]:
    """The constraint's account of how ``configuration`` breaks it, ``None``
    when it holds."""
    if constraint.is_satisfied_by(configuration):
        return None
    return constraint.explain(configuration) or f"{constraint.label} is violated"


def _transition_violation(
    constraint: PlacementConstraint,
    reference: "Configuration",
    state: "Configuration",
) -> Optional[str]:
    if constraint.is_transition_satisfied(reference, state):
        return None
    return (
        constraint.explain_transition(reference, state)
        or f"{constraint.label} is violated by the transition"
    )


def check_configuration(
    configuration: "Configuration",
    constraints: Sequence[PlacementConstraint],
    stage: Optional[int] = None,
) -> List[Violation]:
    """Validate one configuration; returns one :class:`Violation` per broken
    constraint (empty when everything holds)."""
    violations: List[Violation] = []
    for constraint in constraints:
        message = _violation(constraint, configuration)
        if message is not None:
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


def _reads_only(constraint: PlacementConstraint) -> Optional[AbstractSet[str]]:
    """The VMs whose state and host are all the constraint's checker faces
    read, or ``None`` when they may read more.  A unary relation restricts
    each member on its own (:attr:`PlacementConstraint.relational`), so one
    with declared members reads them and nothing else; a relational or a
    member-less one (``Lonely``, ``MaxOnline``, a custom quarantine) may
    watch any VM."""
    if constraint.relational or not constraint.vms:
        return None
    return getattr(constraint, "vm_set", None) or frozenset(constraint.vms)


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

    The stages are walked on one working copy of the source, and a
    constraint no action of the plan touches (:func:`_reads_only`) is asked
    once, on the source: nothing it reads changes from stage to stage, so
    its answer is reported for every stage as the stage-by-stage walk
    (:func:`plan_stages`) would report it.
    """
    if not constraints:
        return []
    from ..core.plan import apply_pool_effects  # deferred: core imports us

    source = plan.source
    violations: List[Violation] = []
    if include_source:
        violations.extend(check_configuration(source, constraints, stage=0))
    if not plan.pools:
        return violations
    acted = {action.vm for pool in plan.pools for action in pool}
    #: Per constraint: ``None`` to ask it of every stage, else what it said
    #: of the source (its violation, its transition violation).
    settled: List[Optional[tuple[Optional[str], Optional[str]]]] = []
    for constraint in constraints:
        read = _reads_only(constraint)
        if read is None or not acted.isdisjoint(read):
            settled.append(None)
        else:
            settled.append(
                (
                    _violation(constraint, source),
                    _transition_violation(constraint, source, source),
                )
            )
    state = source.copy()
    for stage_index, pool in enumerate(plan.pools, start=1):
        apply_pool_effects(state, pool)
        said = [
            kept
            or (
                _violation(constraint, state),
                _transition_violation(constraint, source, state),
            )
            for constraint, kept in zip(constraints, settled)
        ]
        # Every constraint's say on the stage, then every transition's.
        for face in (0, 1):
            for constraint, answer in zip(constraints, said):
                message = answer[face]
                if message is not None:
                    violations.append(
                        Violation(constraint.label, message, stage_index)
                    )
    return violations
