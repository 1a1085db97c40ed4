"""The standalone, method-independent plan verifier.

:func:`verify_submission` scores a submitted reconfiguration *plan* or
target *assignment* against an :class:`~repro.instances.format.Instance`
using only the independent pipeline — the constraint checker
(:mod:`repro.constraints.checker`), configuration viability
(:meth:`~repro.model.configuration.Configuration.viability_violations`)
and the Table 1 cost model (:mod:`repro.core.cost`).  The CP solver and the
optimizer are never imported: a test holds ``repro.cp`` and
``repro.core.optimizer`` out of ``sys.modules`` across a verification, so a
submission produced by *any* method (this repo's optimizer, another solver,
a hand-written plan) is judged by the same referee.

Two submission shapes are accepted:

``{"plan": {"pools": [[{action}, ...], ...]}}``
    Ordered pools of parallel actions (the audit-log serialization).  The
    verifier replays the pools against the instance's initial
    configuration, checking feasibility pool by pool, continuous constraint
    satisfaction at every pool boundary, final viability, and the full
    Table 1 cost (local costs plus delay costs; the makespan is the sum of
    the pool costs).

``{"assignment": {"placement": {vm: node, ...}}}``
    A target placement only.  Every listed VM must end Running on its node;
    unlisted VMs keep their initial state.  The verifier checks viability
    and constraints on the target and charges the Table 1 *lower bound* to
    reach it (migrate = Dm, local resume = Dm, remote resume = 2·Dm,
    run/stop = 0).

Malformed submissions raise :class:`SubmissionError` with a stable machine
code; the CLI maps those to exit status 2 and a structured JSON report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from ..constraints.checker import Violation, check_configuration, check_plan, plan_stages
from ..core.actions import Action, ActionKind, UnknownActionKind, action_from_dict
from ..core.cost import plan_cost
from ..core.plan import Pool, ReconfigurationPlan
from ..model.configuration import Configuration
from ..model.errors import PlanningError, ReproError
from ..model.vm import VMState
from .format import Instance

#: Document marker for submission files (optional but recommended).
SUBMISSION_FORMAT = "repro-submission"


class SubmissionError(Exception):
    """A submission that cannot be scored at all.

    ``code`` is stable and machine-readable: ``malformed-submission``,
    ``truncated-plan``, ``unknown-action``, ``unknown-vm``,
    ``unknown-node``, ``instance-mismatch``.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class VerificationReport:
    """The scored verdict on one submission.

    ``passed`` is the headline: the submission is feasible, every
    intermediate and final state is viable, and no placement constraint is
    broken at any stage.  The cost fields always report Table 1 numbers so
    scoreboards can compare submissions that *pass* by cost.
    """

    instance: str
    fingerprint: str
    kind: str
    feasible: bool
    infeasibility: Optional[str]
    viability_violations: tuple[str, ...]
    constraint_violations: tuple[Violation, ...]
    actions: int
    migrations: int
    switch_cost: int
    minimum_cost: int
    makespan: int
    metadata: Mapping[str, Any] = field(default_factory=dict)

    @property
    def viable(self) -> bool:
        return not self.viability_violations

    @property
    def passed(self) -> bool:
        return self.feasible and self.viable and not self.constraint_violations

    def to_dict(self) -> dict[str, Any]:
        """The JSON report the CLI emits (deterministic under
        ``sort_keys``)."""
        return {
            "instance": self.instance,
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "passed": self.passed,
            "feasible": self.feasible,
            "infeasibility": self.infeasibility,
            "viable": self.viable,
            "viability_violations": list(self.viability_violations),
            "constraint_violations": [
                {
                    "constraint": v.constraint,
                    "message": v.message,
                    "stage": v.stage,
                }
                for v in self.constraint_violations
            ],
            "actions": self.actions,
            "migrations": self.migrations,
            "switch_cost": self.switch_cost,
            "minimum_cost": self.minimum_cost,
            "makespan": self.makespan,
            **({"metadata": dict(self.metadata)} if self.metadata else {}),
        }


# --------------------------------------------------------------------- #
# submission decoding                                                    #
# --------------------------------------------------------------------- #


def _require(payload: Mapping[str, Any], key: str, context: str) -> Any:
    if not isinstance(payload, Mapping) or key not in payload:
        raise SubmissionError(
            "truncated-plan", f"{context}: missing required field {key!r}"
        )
    return payload[key]


def _decode_plan(
    payload: Mapping[str, Any], source: Configuration
) -> ReconfigurationPlan:
    pools_spec = _require(payload, "pools", "plan")
    if not isinstance(pools_spec, (list, tuple)):
        raise SubmissionError(
            "truncated-plan", "plan: 'pools' must be a list of action lists"
        )
    plan = ReconfigurationPlan(source=source)
    for index, pool_spec in enumerate(pools_spec):
        if not isinstance(pool_spec, (list, tuple)):
            raise SubmissionError(
                "truncated-plan",
                f"plan pool {index}: expected a list of actions, "
                f"got {type(pool_spec).__name__}",
            )
        pool = Pool()
        for action_spec in pool_spec:
            try:
                action = action_from_dict(action_spec, f"plan pool {index}")
            except UnknownActionKind as exc:
                raise SubmissionError("unknown-action", str(exc)) from None
            except ValueError as exc:
                raise SubmissionError("truncated-plan", str(exc)) from None
            _check_action_references(action, source, f"plan pool {index}")
            pool.add(action)
        plan.append_pool(pool)
    return plan


def _check_action_references(
    action: Action, configuration: Configuration, context: str
) -> None:
    if not configuration.has_vm(action.vm):
        raise SubmissionError(
            "unknown-vm", f"{context}: action names unknown VM {action.vm!r}"
        )
    for node in (action.destination(), action.source()):
        if node is not None and not configuration.has_node(node):
            raise SubmissionError(
                "unknown-node",
                f"{context}: action {action} names unknown node {node!r}",
            )


# --------------------------------------------------------------------- #
# verification                                                           #
# --------------------------------------------------------------------- #


def verify_submission(
    instance: Instance, submission: Mapping[str, Any]
) -> VerificationReport:
    """Score ``submission`` against ``instance``; see the module docstring
    for the accepted shapes.  Raises :class:`SubmissionError` when the
    submission cannot be scored, returns a report (possibly failing)
    otherwise."""
    if not isinstance(submission, Mapping):
        raise SubmissionError(
            "malformed-submission", "a submission must be a JSON object"
        )
    declared = submission.get("format")
    if declared is not None and declared != SUBMISSION_FORMAT:
        raise SubmissionError(
            "malformed-submission",
            f"submission format {declared!r} is not {SUBMISSION_FORMAT!r}",
        )
    claimed = submission.get("instance")
    if claimed is not None and claimed not in (
        instance.name,
        instance.fingerprint,
    ):
        raise SubmissionError(
            "instance-mismatch",
            f"submission targets instance {claimed!r}, not "
            f"{instance.name!r} ({instance.fingerprint})",
        )
    if "plan" in submission:
        return _verify_plan(instance, submission["plan"])
    if "assignment" in submission:
        return _verify_assignment(instance, submission["assignment"])
    raise SubmissionError(
        "malformed-submission",
        "a submission carries either a 'plan' or an 'assignment'",
    )


def _verify_plan(
    instance: Instance, payload: Mapping[str, Any]
) -> VerificationReport:
    source = instance.configuration()
    plan = _decode_plan(payload, source)

    feasible = True
    infeasibility: Optional[str] = None
    try:
        plan.apply()
    except PlanningError as exc:
        feasible = False
        infeasibility = str(exc)

    # Constraint satisfaction and viability walk the pool effects without
    # the feasibility gate, so a failing plan still gets a full diagnosis —
    # unless an action is outright inapplicable (run on a non-waiting VM,
    # resume of a running one), in which case the walk itself stops.
    viability: list[str] = []
    constraint_violations: tuple[Violation, ...] = ()
    try:
        for stage_index, stage in enumerate(plan_stages(plan)):
            for violation in stage.viability_violations():
                viability.append(f"[after pool {stage_index}] {violation}")
        constraint_violations = tuple(
            check_plan(plan, instance.constraints, include_source=False)
        )
    except ReproError as exc:
        feasible = False
        if infeasibility is None:
            infeasibility = str(exc)

    costs = plan_cost(plan)
    return VerificationReport(
        instance=instance.name,
        fingerprint=instance.fingerprint,
        kind="plan",
        feasible=feasible,
        infeasibility=infeasibility,
        viability_violations=tuple(viability),
        constraint_violations=constraint_violations,
        actions=plan.action_count(),
        migrations=plan.count(ActionKind.MIGRATE),
        switch_cost=costs.total,
        minimum_cost=costs.local_total,
        makespan=sum(costs.pool_costs),
        metadata={"pools": len(plan.pools)},
    )


def _verify_assignment(
    instance: Instance, payload: Mapping[str, Any]
) -> VerificationReport:
    placement = _require(payload, "placement", "assignment")
    if not isinstance(placement, Mapping):
        raise SubmissionError(
            "malformed-submission",
            "assignment: 'placement' must map VM names to node names",
        )
    source = instance.configuration()
    target = instance.configuration()
    cost = 0
    migrations = 0
    actions = 0
    for vm_name in sorted(placement):
        node_name = placement[vm_name]
        if not target.has_vm(vm_name):
            raise SubmissionError(
                "unknown-vm", f"assignment places unknown VM {vm_name!r}"
            )
        if not target.has_node(node_name):
            raise SubmissionError(
                "unknown-node",
                f"assignment places {vm_name!r} on unknown node {node_name!r}",
            )
        state = source.state_of(vm_name)
        memory = source.vm(vm_name).memory
        if state is VMState.RUNNING:
            if source.location_of(vm_name) != node_name:
                cost += memory  # Table 1: migrate = Dm(vm)
                migrations += 1
                actions += 1
        elif state is VMState.SLEEPING:
            image = source.image_location_of(vm_name)
            cost += memory if image == node_name else 2 * memory
            actions += 1
        else:
            actions += 1  # run = 0 cost
        target.set_running(vm_name, node_name)

    viability = tuple(str(v) for v in target.viability_violations())
    constraint_violations = tuple(
        check_configuration(target, instance.constraints)
    )
    return VerificationReport(
        instance=instance.name,
        fingerprint=instance.fingerprint,
        kind="assignment",
        feasible=True,
        infeasibility=None,
        viability_violations=viability,
        constraint_violations=constraint_violations,
        actions=actions,
        migrations=migrations,
        switch_cost=cost,
        minimum_cost=cost,
        makespan=cost,
        metadata={},
    )
