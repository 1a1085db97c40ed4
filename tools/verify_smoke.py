#!/usr/bin/env python
"""CI smoke of the benchmark-suite artifacts (the ``verify-smoke`` job).

End-to-end, against the *committed* pack under ``src/repro/instances/pack/``:

1. **Round trip** — every committed instance loads (fingerprint-verified),
   re-saves byte-for-byte, and matches its from-seed rebuild, so the
   shipped files cannot drift from the generators silently.
2. **CLI** — ``repro-verify`` (via :func:`repro.instances.cli.main`) scores
   an empty plan against every instance (exit 0), rejects garbage with exit
   2 and a structured error, and drives both submission shapes on the first
   instance: its FFD baseline plan serialized action by action
   (:func:`~repro.core.actions.action_to_dict`, exit 0), the same plan
   naming a VM the instance does not have (exit 2, ``unknown-vm``), and the
   identity assignment (exit 0 at cost 0).
3. **Floors** — the committed baseline scoreboard matches a fresh re-run of
   the whole policy grid byte-for-byte and still satisfies the headline
   ordering (consolidation at or under the FFD/FCFS floors).

Run locally with::

    python tools/verify_smoke.py

Exit status 0 on success, 1 with a diagnostic on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _ensure_importable() -> None:
    src = REPO_ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def fail(message: str) -> int:
    print(f"verify-smoke FAILED: {message}")
    return 1


def run_cli(*argv: str) -> tuple[int, str]:
    from repro.instances.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def baseline_pools(instance) -> list[list[dict]]:
    """The pools of the FFD baseline's plan on ``instance``, each action
    serialized with ``action_to_dict`` (the audit-log shape)."""
    from repro.core.actions import action_to_dict
    from repro.core.planner import build_plan
    from repro.decision import FFDDecisionModule
    from repro.model.vjob import index_vms_by_vjob

    configuration, queue = instance.configuration(), instance.queue()
    module = FFDDecisionModule()
    module.use_constraints(instance.constraints)
    target = module.decide(configuration, queue).target
    plan = build_plan(configuration, target, index_vms_by_vjob(queue.ordered()))
    return [[action_to_dict(action) for action in pool] for pool in plan.pools]


def main() -> int:
    _ensure_importable()

    from repro.instances.baselines import (
        baseline_scoreboard,
        floor_violations,
        load_scoreboard,
        scoreboard_to_json,
    )
    from repro.instances.format import instance_to_json, load_instance
    from repro.instances.pack import (
        PACK_DIR,
        SCOREBOARD_PATH,
        build_pack,
        pack_instance_names,
    )

    names = pack_instance_names()
    if not names:
        return fail(f"no committed instances under {PACK_DIR}")

    # 1. round trips and from-seed rebuilds --------------------------------
    built = {instance.name: instance for instance in build_pack()}
    if sorted(built) != names:
        return fail(
            f"committed pack {names} does not match the seed build "
            f"{sorted(built)}"
        )
    for name in names:
        path = PACK_DIR / f"{name}.json"
        committed = path.read_text()
        instance = load_instance(path)  # raises on fingerprint drift
        if instance_to_json(instance) + "\n" != committed:
            return fail(f"{name}: save(load({path.name})) is not byte-stable")
        if instance_to_json(built[name]) + "\n" != committed:
            return fail(
                f"{name}: committed file drifted from its from-seed rebuild "
                "(regenerate with REPRO_UPDATE_GOLDENS=1 if intentional)"
            )
        print(f"round-trip {name}: ok ({instance.fingerprint})")

    # 2. the CLI ----------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        empty_plan = Path(tmp) / "empty-plan.json"
        empty_plan.write_text(json.dumps({"plan": {"pools": []}}))
        for name in names:
            code, out = run_cli(
                str(PACK_DIR / f"{name}.json"), str(empty_plan)
            )
            if code != 0:
                return fail(
                    f"repro-verify on {name} with an empty plan exited "
                    f"{code}: {out}"
                )
        garbage = Path(tmp) / "garbage.json"
        garbage.write_text("{not json")
        code, out = run_cli(str(PACK_DIR / f"{names[0]}.json"), str(garbage))
        if code != 2 or "error" not in json.loads(out):
            return fail(
                f"malformed submission: expected exit 2 with a structured "
                f"error, got {code}: {out}"
            )

        instance_path = PACK_DIR / f"{names[0]}.json"
        instance = load_instance(instance_path)

        def submit(label: str, document: dict) -> tuple[int, dict]:
            path = Path(tmp) / f"{label}.json"
            path.write_text(json.dumps(document))
            code, out = run_cli(str(instance_path), str(path))
            return code, json.loads(out)

        pools = baseline_pools(instance)
        actions = sum(len(pool) for pool in pools)
        code, report = submit("baseline-plan", {"plan": {"pools": pools}})
        if not actions or code != 0 or report["actions"] != actions:
            return fail(
                f"{names[0]}'s baseline plan ({actions} actions) exited "
                f"{code}: {report}"
            )
        pools[0][0] = {**pools[0][0], "vm": "no-such-vm"}
        code, report = submit("unknown-vm", {"plan": {"pools": pools}})
        if code != 2 or report.get("error", {}).get("code") != "unknown-vm":
            return fail(
                f"a plan naming an unknown VM: expected exit 2 and an "
                f"unknown-vm error, got {code}: {report}"
            )
        placement = instance.configuration().placement()
        code, report = submit("identity", {"assignment": {"placement": placement}})
        if code != 0 or report["kind"] != "assignment" or report["switch_cost"]:
            return fail(
                f"the identity assignment on {names[0]} exited {code}: {report}"
            )
    print(
        f"cli: ok ({len(names)} instances scored, garbage rejected, "
        f"{names[0]}'s {actions}-action baseline plan passed, unknown VM "
        "refused, identity assignment free)"
    )

    # 3. the baseline floors ----------------------------------------------
    committed_board = load_scoreboard(SCOREBOARD_PATH)
    for name in names:
        entry = committed_board["instances"].get(name)
        fingerprint = load_instance(PACK_DIR / f"{name}.json").fingerprint
        if entry is None or entry["fingerprint"] != fingerprint:
            return fail(
                f"scoreboard is stale: {name} fingerprint mismatch "
                "(regenerate with REPRO_UPDATE_GOLDENS=1)"
            )
    fresh = baseline_scoreboard()
    if scoreboard_to_json(fresh) != SCOREBOARD_PATH.read_text():
        return fail(
            "baseline scoreboard drifted from a fresh re-run "
            "(a policy/solver change moved the floors; regenerate with "
            "REPRO_UPDATE_GOLDENS=1 and review the diff)"
        )
    problems = floor_violations(fresh)
    if problems:
        return fail("baseline floors violated: " + "; ".join(problems))
    print("floors: ok (consolidation beats the FFD/FCFS floors)")

    print("verify-smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
