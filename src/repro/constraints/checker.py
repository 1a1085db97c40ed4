"""Independent checking of placement constraints, end to end.

The checker is the second face of the catalog: it never trusts the CP
compilation and re-validates constraints against concrete states —

* :func:`check_configuration` — one configuration, e.g. the optimizer's
  target or the live cluster after a switch;
* :func:`check_plan` — **every intermediate state** of a
  :class:`~repro.core.plan.ReconfigurationPlan` (continuous satisfaction at
  pool granularity: the state after each pool completes);
* :func:`violated_constraints` — the boolean variant the one degrade path
  asks of a fallback (:mod:`repro.core.context_switch`).

The solver-side compilation and this checker are deliberately independent
implementations of the same semantics; the Hypothesis suite
(``tests/properties/test_constraint_properties.py``) holds them against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
)

from ..obs import span
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
    """The VMs whose state and host are all the constraint's checker face
    reads, or ``None`` when it may read more.  A unary relation restricts
    each member on its own (:attr:`PlacementConstraint.relational`), so one
    with declared members reads them and nothing else; a relational or a
    member-less one (``RunningCapacity``, a custom quarantine) may watch any
    VM."""
    if constraint.relational or not constraint.vms:
        return None
    return getattr(constraint, "vm_set", None) or frozenset(constraint.vms)


def unwritten_answers(
    settled: Dict[int, Optional[str]],
    constraints: Sequence[PlacementConstraint],
    written: AbstractSet[str],
) -> Dict[int, Optional[str]]:
    """The answers of ``settled`` (what :func:`check_plan` left in it) that
    still hold on a source where only the ``written`` VMs may differ: those
    of the constraints reading none of them."""
    return {
        index: answer
        for index, answer in settled.items()
        if _reads_only(constraints[index]).isdisjoint(written)
    }


def check_plan(
    plan: "ReconfigurationPlan",
    constraints: Sequence[PlacementConstraint],
    include_source: bool = False,
    settled: Optional[Dict[int, Optional[str]]] = None,
) -> List[Violation]:
    """Validate every intermediate state of ``plan`` (continuous
    satisfaction).

    Stage ``k`` (``k >= 1``) is the configuration once the first ``k`` pools
    completed.  ``include_source`` also reports the violations already
    present *before* the plan runs — off by default, because a plan whose
    purpose is to repair a violation necessarily starts violated.

    The stages are walked on one working copy of the source, and a
    constraint no action of the plan touches (:func:`_reads_only`) is asked
    once, on the source: nothing it reads changes from stage to stage, so
    its answer is reported for every stage as the stage-by-stage walk
    (:func:`plan_stages`) would report it.

    ``settled`` is for a caller that checks one plan after another: by
    position in ``constraints``, the answer (a message, or ``None`` when it
    holds) a constraint gave on the source, known without asking — an
    earlier check's, kept while nothing the constraint reads was written
    (:func:`unwritten_answers`).  A constraint no action touches takes it
    instead of being asked, and on return ``settled`` holds the source
    answer of every constraint no action touched, for the next check.
    """
    if not constraints:
        return []
    from ..core.plan import apply_pool_effects  # deferred: core imports us

    with span("check-plan", stages=len(plan.pools)) as check_span:
        source = plan.source
        violations: List[Violation] = []
        asked = kept = 0
        if include_source:
            violations.extend(check_configuration(source, constraints, stage=0))
            asked += len(constraints)
        if not plan.pools:
            check_span.set(asked=asked, kept=kept)
            return violations
        if settled is None:
            settled = {}
        acted = {action.vm for pool in plan.pools for action in pool}
        #: Per constraint: whether to ask it of every stage, else what it
        #: said of the source.
        ask_each: List[bool] = []
        answers: List[Optional[str]] = []
        for index, constraint in enumerate(constraints):
            read = _reads_only(constraint)
            ask = read is None or not acted.isdisjoint(read)
            ask_each.append(ask)
            if ask:
                settled.pop(index, None)
                answers.append(None)
            elif index in settled:
                kept += 1
                answers.append(settled[index])
            else:
                asked += 1
                settled[index] = _violation(constraint, source)
                answers.append(settled[index])
        state = source.copy()
        for stage_index, pool in enumerate(plan.pools, start=1):
            apply_pool_effects(state, pool)
            for constraint, ask, answer in zip(constraints, ask_each, answers):
                if ask:
                    asked += 1
                    answer = _violation(constraint, state)
                if answer is not None:
                    violations.append(Violation(constraint.label, answer, stage_index))
        check_span.set(asked=asked, kept=kept)
    return violations
