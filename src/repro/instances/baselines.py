"""Baseline floors: score every stock policy over the shipped pack.

The scoreboard runs FFD, FCFS (+EASY backfilling), RJSP, dynamic
consolidation and the partitioned engine over every pack instance through
:mod:`repro.scale.campaign` and flattens the results into one canonical
JSON document, committed next to the pack
(:data:`repro.instances.pack.SCOREBOARD_PATH`).  These numbers are the
*floors* any submitted method must beat; the golden test additionally
asserts the paper's headline ordering — consolidation beats the static
FFD/FCFS floors on the pack (the ~40% completion-time claim, in miniature).

Every run is deterministic: seeded instances, a generous optimizer timeout
(the solver finishes exhaustively, so wall-clock jitter cannot change
plans) and no wall-clock fields in the scoreboard.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, TYPE_CHECKING

from .format import fingerprint_of
from .pack import load_pack_instance, pack_instance_names

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.scenario import Scenario
    from ..scale.campaign import CampaignPoint

#: The scored policies.  ``partitioned`` is the consolidation policy solved
#: by the partitioned engine (``Scenario(engine="partitioned")``).
BASELINE_POLICIES = ("ffd", "fcfs", "rjsp", "consolidation", "partitioned")

#: Generous enough that the CP solve always completes exhaustively on the
#: pack's problem sizes — what keeps the scoreboard byte-stable (same
#: convention as tests/integration/test_golden_plans.py).
OPTIMIZER_TIMEOUT_S = 30.0

SCOREBOARD_FORMAT = "repro-scoreboard"
SCOREBOARD_SCHEMA_VERSION = 1

#: The deterministic subset of :meth:`RunResult.summary` the scoreboard
#: keeps (``runtime_seconds`` and other wall-clock fields are excluded).
SCORE_KEYS = (
    "makespan",
    "switches",
    "total_switch_cost",
    "migrations",
    "fallback_switches",
    "faults_injected",
    "sla_violations",
    "lost_vjobs",
    "constraint_violations",
    "planning_failures",
)


def scenario_for_point(point: "CampaignPoint") -> "Scenario":
    """Campaign factory: the instance name rides the point's opaque
    ``faults`` label, the policy axis carries the baseline name.
    Module-level so process-pool executors can pickle it."""
    instance = load_pack_instance(point.faults)
    policy, engine = (
        ("consolidation", "partitioned")
        if point.policy == "partitioned"
        else (point.policy, "event")
    )
    return instance.scenario(
        policy=policy,
        engine=engine,
        optimizer_timeout=OPTIMIZER_TIMEOUT_S,
    )


def baseline_scoreboard(
    instances: Optional[Sequence[str]] = None,
    policies: Sequence[str] = BASELINE_POLICIES,
    store_path: Optional[str | Path] = None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
) -> dict[str, Any]:
    """Run the baseline grid and build the scoreboard document.

    ``executor`` / ``max_workers`` are the campaign grid's: pass
    ``"process"`` to spread the grid over worker processes (the pack's
    zones are small, so the ``partitioned`` floor itself forks nothing).
    """
    from ..scale.campaign import CampaignSpec, run_campaign

    names = list(instances) if instances is not None else pack_instance_names()
    spec = CampaignSpec(
        scenario_factory=scenario_for_point,
        policies=tuple(policies),
        fleet_sizes=(1,),  # the instance fixes the fleet; one grid cell
        fault_labels=tuple(names),
    )
    campaign = run_campaign(
        spec,
        store_path=store_path,
        executor=executor,
        max_workers=max_workers,
    )
    board: dict[str, Any] = {
        "format": SCOREBOARD_FORMAT,
        "schema_version": SCOREBOARD_SCHEMA_VERSION,
        "optimizer_timeout": OPTIMIZER_TIMEOUT_S,
        "instances": {},
    }
    for name in names:
        instance = load_pack_instance(name)
        board["instances"][name] = {
            "fingerprint": instance.fingerprint,
            "nodes": len(instance.nodes),
            "vms": instance.vm_count,
            "policies": {},
        }
    for record in campaign.records:
        name = str(record["faults"])
        policy = str(record["policy"])
        if name not in board["instances"]:
            continue
        board["instances"][name]["policies"][policy] = {
            key: record[key] for key in SCORE_KEYS if key in record
        }
    board["fingerprint"] = fingerprint_of(board)
    return board


def scoreboard_to_json(board: Mapping[str, Any]) -> str:
    """Deterministic pretty serialization (what the golden file commits)."""
    return json.dumps(board, sort_keys=True, indent=2) + "\n"


def load_scoreboard(path: str | Path) -> dict[str, Any]:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("format") != SCOREBOARD_FORMAT:
        raise ValueError(f"{path}: not a {SCOREBOARD_FORMAT!r} document")
    return data


def floor_violations(board: Mapping[str, Any]) -> list[str]:
    """Check the headline ordering on a scoreboard: on every instance the
    consolidation makespan must not exceed the FFD and FCFS floors, and it
    must be strictly better in aggregate.  Returns human-readable problems
    (empty when the floors hold)."""
    problems: list[str] = []
    totals = {"consolidation": 0.0, "ffd": 0.0, "fcfs": 0.0}
    for name, entry in sorted(board.get("instances", {}).items()):
        policies = entry.get("policies", {})
        spans = {
            policy: float(policies[policy]["makespan"])
            for policy in ("consolidation", "ffd", "fcfs")
            if policy in policies
        }
        if len(spans) < 3:
            problems.append(
                f"{name}: missing baseline rows "
                f"(have {sorted(policies)})"
            )
            continue
        for static in ("ffd", "fcfs"):
            if spans["consolidation"] > spans[static]:
                problems.append(
                    f"{name}: consolidation makespan {spans['consolidation']}"
                    f" exceeds the {static} floor {spans[static]}"
                )
        for policy, value in spans.items():
            totals[policy] += value
    if not board.get("instances"):
        problems.append("scoreboard has no instances")
    for static in ("ffd", "fcfs"):
        if totals["consolidation"] >= totals[static] and not problems:
            problems.append(
                f"consolidation does not strictly beat {static} in aggregate "
                f"({totals['consolidation']} vs {totals[static]})"
            )
    return problems
