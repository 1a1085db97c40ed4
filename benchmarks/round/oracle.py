"""The correctness oracle: every plan is checked without the solver.

The same calls :func:`repro.instances.verify_submission` makes on a
submitted plan — feasibility pool by pool, viability of the stages, the
constraint checker on every intermediate state, the Table 1 cost — applied
to the plan object directly, because a mid-run switch starts from a state no
stored ``Instance`` describes.  Runs outside the timed window; a failing
check makes the operation a failed one and the run goes on.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.constraints.checker import check_plan, plan_stages
from repro.core.cost import plan_cost
from repro.model.errors import ReproError


def verify_plan(
    plan,
    target,
    reported_cost: int,
    catalog: Sequence,
    wanted_states: Mapping,
) -> list[str]:
    """Reasons why ``plan`` is wrong (empty when it is right).

    A node overloaded in the plan's source may stay overloaded until the
    plan relieves it — repairing that is what an overload round is for — but
    no stage may overload another node, and the final state must be viable.
    """
    problems: list[str] = []
    try:
        plan.check_reaches(target)
        stages = list(plan_stages(plan))
        overloaded_at_start = {v.node for v in stages[0].viability_violations()}
        for index, stage in enumerate(stages[1:], start=1):
            for violation in stage.viability_violations():
                if index == len(stages) - 1 or (
                    violation.node not in overloaded_at_start
                ):
                    problems.append(f"[after pool {index}] {violation}")
        problems.extend(str(v) for v in check_plan(plan, catalog))
    except ReproError as exc:
        problems.append(f"infeasible: {exc}")
    if not target.is_viable():
        problems.append("the target configuration is not viable")
    cost = plan_cost(plan).total
    if cost != reported_cost:
        problems.append(f"reported cost {reported_cost}, Table 1 says {cost}")
    for vm, state in wanted_states.items():
        if target.state_of(vm) is not state:
            problems.append(f"{vm} is {target.state_of(vm).name}, wanted {state.name}")
    return problems
