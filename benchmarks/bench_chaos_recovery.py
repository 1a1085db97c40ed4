"""Chaos recovery — fault-injected churn campaigns through the control loop.

The fault subsystem (``repro.sim.faults``) turns the reproduction from a
replay harness into a system that can be stress-tested: this benchmark runs
seeded chaos campaigns — churn-arriving vjobs on a heterogeneous fleet, one
node crashing mid-run, stochastic migration failures — and records how the
control loop absorbs them:

* each sample runs the *same* scenario twice, fault-free and under the fault
  schedule, on freshly generated workloads (paired seeds, so the comparison
  is apples-to-apples);
* ``repair_latency`` measures crash-to-running recovery of the knocked-out
  vjobs, ``wasted_migrations`` counts aborted migration attempts,
  ``lost_vjobs`` must be 0 (the loop may never drop work), and
  ``makespan_inflation`` is the fractional slowdown the faults cost;
* ``wall_seconds`` times the chaotic control-loop run itself, so the
  scenario engine's own overhead stays on the performance trajectory.

Run standalone (``python benchmarks/bench_chaos_recovery.py``) for the full
sweep; there is also a pytest entry point (``bench_chaos_recovery_smoke``)
covering the smallest tier.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Optional, Sequence

from repro import FaultSchedule, Scenario
from repro.analysis import makespan_inflation, recovery_statistics
from repro.workloads import ChurnGenerator, ProblemClass, heterogeneous_nodes

#: (node_count, vjob_count) of each tier.
TIERS: tuple[tuple[int, int], ...] = ((5, 5), (8, 10), (12, 16))
#: Seeded samples per tier.
SAMPLES_PER_TIER = 3
#: CP budget per switch — generous, the instances are small enough that the
#: budget never triggers and the runs stay deterministic.
OPTIMIZER_TIMEOUT_S = 10.0
#: Crash time as a fraction of the expected busy window.
CRASH_AT_S = 120.0
#: Stochastic migration-failure probability of the chaos runs.
MIGRATION_FAILURE_RATE = 0.1


def _build_scenario(
    node_count: int,
    vjob_count: int,
    seed: int,
    faults: Optional[FaultSchedule],
) -> Scenario:
    generator = ChurnGenerator(
        seed=seed,
        mean_interarrival_s=45.0,
        vm_count_choices=(2, 3),
        problem_classes=(ProblemClass.W,),
    )
    return Scenario(
        nodes=heterogeneous_nodes(node_count, seed=seed),
        workloads=generator.workloads(vjob_count),
        policy="consolidation",
        optimizer_timeout=OPTIMIZER_TIMEOUT_S,
        faults=faults,
        sla_factor=10.0,
    )


def _fault_schedule(node_count: int, seed: int) -> FaultSchedule:
    """One mid-run crash of a busy node plus stochastic migration failures."""
    schedule = FaultSchedule(
        migration_failure_rate=MIGRATION_FAILURE_RATE, seed=seed
    )
    schedule.node_crash(f"node-{seed % node_count}", at=CRASH_AT_S)
    return schedule


def run_sample(node_count: int, vjob_count: int, seed: int) -> dict:
    baseline = _build_scenario(node_count, vjob_count, seed, faults=None).run()

    chaotic_scenario = _build_scenario(
        node_count, vjob_count, seed, faults=_fault_schedule(node_count, seed)
    )
    started = time.perf_counter()
    chaotic = chaotic_scenario.run()
    wall = time.perf_counter() - started

    stats = recovery_statistics(chaotic)
    return {
        "seed": seed,
        "wall_seconds": round(wall, 4),
        "baseline_makespan": round(baseline.makespan, 2),
        "chaotic_makespan": round(chaotic.makespan, 2),
        "makespan_inflation": round(
            makespan_inflation(baseline.makespan, chaotic.makespan), 4
        ),
        "fault_count": stats.fault_count,
        "repaired_vjobs": stats.repaired_vjobs,
        "mean_repair_latency": round(stats.mean_repair_latency, 2),
        "max_repair_latency": round(stats.max_repair_latency, 2),
        "wasted_migrations": stats.wasted_migrations,
        "lost_vjobs": stats.lost_vjobs,
        "sla_violations": stats.sla_violations,
        "switches": chaotic.switch_count,
    }


def run_tier(node_count: int, vjob_count: int, samples: int) -> dict:
    tier_samples = [
        run_sample(node_count, vjob_count, seed=100 * node_count + index)
        for index in range(samples)
    ]
    return {
        "node_count": node_count,
        "vjob_count": vjob_count,
        "samples": tier_samples,
        "median": {
            "wall_seconds": round(
                statistics.median(s["wall_seconds"] for s in tier_samples), 4
            ),
            "makespan_inflation": round(
                statistics.median(s["makespan_inflation"] for s in tier_samples),
                4,
            ),
            "mean_repair_latency": round(
                statistics.median(
                    s["mean_repair_latency"] for s in tier_samples
                ),
                2,
            ),
        },
        "total_lost_vjobs": sum(s["lost_vjobs"] for s in tier_samples),
    }


def run(
    tiers: Sequence[tuple[int, int]] = TIERS,
    samples: int = SAMPLES_PER_TIER,
) -> dict:
    """Run every tier and return the full result document."""
    return {
        "methodology": (
            "paired fault-free vs chaos runs on identical seeded churn "
            "workloads; one node crash at t=120s plus 10% migration-failure "
            "rate; lost vjobs must stay 0"
        ),
        "crash_at_seconds": CRASH_AT_S,
        "migration_failure_rate": MIGRATION_FAILURE_RATE,
        "tiers": [
            run_tier(node_count, vjob_count, samples=samples)
            for node_count, vjob_count in tiers
        ],
    }


def format_results(results: dict) -> str:
    lines = [
        "Chaos recovery - crash + churn campaigns through the control loop",
        f"{'nodes':>5}  {'vjobs':>5}  {'wall (s)':>9}  {'inflation':>9}  "
        f"{'repair (s)':>10}  {'lost':>4}",
    ]
    for tier in results["tiers"]:
        median = tier["median"]
        lines.append(
            f"{tier['node_count']:>5}  {tier['vjob_count']:>5}  "
            f"{median['wall_seconds']:>9.3f}  "
            f"{median['makespan_inflation']:>8.1%}  "
            f"{median['mean_repair_latency']:>10.1f}  "
            f"{tier['total_lost_vjobs']:>4}"
        )
    return "\n".join(lines)


def bench_chaos_recovery_smoke():
    """One-sample smoke of the smallest tier, for ``pytest benchmarks``."""
    results = run(tiers=(TIERS[0],), samples=1)
    print()
    print(format_results(results))
    tier = results["tiers"][0]
    assert tier["total_lost_vjobs"] == 0
    sample = tier["samples"][0]
    assert sample["fault_count"] >= 1
    assert sample["repaired_vjobs"] >= 0


if __name__ == "__main__":
    full = run()
    print(format_results(full))
    print(json.dumps(full, indent=2))
