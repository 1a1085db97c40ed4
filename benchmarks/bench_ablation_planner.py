"""Ablations of the design choices called out in DESIGN.md.

Three knobs of the cluster-wide context switch are switched off one at a time
on the Figure 10 workload to quantify their contribution:

* **CP optimization** — replace the branch-and-bound placement with the FFD
  baseline (what Figure 10 measures), and with the first viable CP solution;
* **optimizer time budget** — shrink the search budget and watch the plan cost;
* **vjob consistency regrouping** — disable the pass that gathers the resumes
  of a vjob in a single pool and count how many pools the resumes span.
"""

from __future__ import annotations

from repro.analysis.report import format_fraction, series
from repro.core import ContextSwitchOptimizer, build_plan, plan_cost
from repro.core.actions import ActionKind
from repro.core.planner import PlannerOptions, ReconfigurationPlanner
from repro import get_decision_module
from repro.workloads import TraceConfigurationGenerator

VM_COUNT = 162
SEED = 2024


def _scenario():
    scenario = TraceConfigurationGenerator(seed=SEED).generate(VM_COUNT)
    decision = get_decision_module("consolidation").decide(scenario.configuration, scenario.queue)
    return scenario, decision


def bench_ablation_optimizer_timeout(benchmark):
    """Plan cost as a function of the CP time budget."""
    scenario, decision = _scenario()

    def sweep():
        results = []
        for timeout in (0.2, 1.0, 3.0):
            optimizer = ContextSwitchOptimizer(timeout=timeout)
            result = optimizer.optimize(
                scenario.configuration,
                decision.vm_states,
                vjob_of_vm=scenario.vjob_of_vm(),
            )
            results.append((timeout, result.cost))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    ffd_cost = plan_cost(
        build_plan(scenario.configuration, decision.fallback_target, scenario.vjob_of_vm())
    ).total

    rows = [("FFD baseline", ffd_cost, "-")]
    for timeout, cost in results:
        rows.append((f"CP, {timeout:.1f}s budget", cost, format_fraction(1 - cost / ffd_cost)))
    print()
    print(series(
        f"Ablation — optimizer time budget ({VM_COUNT} VMs, 200 nodes)",
        ["strategy", "plan cost", "reduction vs FFD"],
        rows,
    ))

    costs = [cost for _, cost in results]
    # more budget never hurts, and even the smallest budget beats FFD
    assert costs == sorted(costs, reverse=True) or len(set(costs)) == 1
    assert costs[-1] <= ffd_cost


def bench_ablation_first_solution_vs_optimum(benchmark):
    """Stopping at the first viable CP solution vs searching for the optimum."""
    scenario, decision = _scenario()

    def run(first_only: bool):
        optimizer = ContextSwitchOptimizer(timeout=3.0, first_solution_only=first_only)
        return optimizer.optimize(
            scenario.configuration,
            decision.vm_states,
            vjob_of_vm=scenario.vjob_of_vm(),
        ).cost

    first_cost = benchmark.pedantic(run, args=(True,), rounds=1, iterations=1)
    best_cost = run(False)

    print()
    print(series(
        "Ablation — first viable solution vs branch-and-bound",
        ["strategy", "plan cost"],
        [("first viable CP solution", first_cost), ("branch-and-bound (3s)", best_cost)],
    ))
    assert best_cost <= first_cost


def bench_ablation_vjob_consistency(benchmark):
    """Effect of the resume-regrouping pass on the structure of the plans."""
    scenario, decision = _scenario()
    optimizer = ContextSwitchOptimizer(timeout=2.0)
    result = optimizer.optimize(
        scenario.configuration,
        decision.vm_states,
        vjob_of_vm=scenario.vjob_of_vm(),
    )
    mapping = scenario.vjob_of_vm()

    def build(consistency: bool):
        planner = ReconfigurationPlanner(
            PlannerOptions(enforce_vjob_consistency=consistency)
        )
        return planner.build(scenario.configuration, result.target, mapping)

    grouped = benchmark.pedantic(build, args=(True,), rounds=1, iterations=1)
    ungrouped = build(False)

    def pools_spanned(plan):
        per_vjob: dict[str, set[int]] = {}
        for index, pool in enumerate(plan.pools):
            for action in pool:
                if action.kind is ActionKind.RESUME:
                    per_vjob.setdefault(mapping[action.vm], set()).add(index)
        if not per_vjob:
            return 0.0
        return sum(len(pools) for pools in per_vjob.values()) / len(per_vjob)

    rows = [
        ("with regrouping", len(grouped.pools), f"{pools_spanned(grouped):.2f}"),
        ("without regrouping", len(ungrouped.pools), f"{pools_spanned(ungrouped):.2f}"),
    ]
    print()
    print(series(
        "Ablation — vjob consistency regrouping",
        ["variant", "pools in plan", "avg pools spanned by a vjob's resumes"],
        rows,
    ))

    # with the pass enabled, the resumes of a vjob always share a single pool
    assert pools_spanned(grouped) <= 1.0
    assert pools_spanned(ungrouped) >= pools_spanned(grouped)
    # both plans reach the same target
    grouped.check_reaches(result.target)
    ungrouped.check_reaches(result.target)
