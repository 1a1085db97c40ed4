"""``python -m repro.service`` / the ``repro-operator`` console script.

Boots an :class:`~repro.service.OperatorDaemon` for a scenario described in
a JSON file (``--scenario-file``) or, without one, a small built-in demo
fleet — then serves until interrupted.  ``--run`` starts the control loop
immediately; otherwise the loop waits for ``POST /run``.

Scenario file shape (every key optional except ``nodes``/``workloads``; any
other key is refused, and the command exits 2 naming it)::

    {
      "nodes": [{"name": "node-0", "cpu_capacity": 2, "memory_capacity": 3584}],
      "workloads": [{"name": "job-0", "vm_count": 2, "duration": 240.0}],
      "policy": "consolidation",
      "policy_options": {},
      "optimizer_timeout": 10.0,
      "sla_factor": 6.0,
      "max_time": 86400.0,
      "faults": [{"kind": "node_crash", "target": "node-0", "at": 120.0}]
    }

Workload entries take the same two spellings as ``POST /vjobs`` (simple spec
or full ``{"vjob": ..., "traces": ...}`` form — see
:func:`repro.service.serialize.workload_from_dict`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from ..api.scenario import Scenario
from ..model.node import Node, make_working_nodes
from ..sim.faults import FaultSchedule
from ..testing import make_workload
from .daemon import OperatorDaemon
from .serialize import fault_event_from_dict, workload_from_dict


def _nodes_from_spec(spec: Any) -> list[Node]:
    nodes = []
    for entry in spec:
        nodes.append(
            Node(
                name=str(entry["name"]),
                cpu_capacity=int(entry.get("cpu_capacity", 2)),
                memory_capacity=int(entry.get("memory_capacity", 3584)),
            )
        )
    return nodes


#: The keys of a scenario file.
_SCENARIO_KEYS = frozenset({
    "nodes", "workloads", "policy", "policy_options",
    "optimizer_timeout", "sla_factor", "max_time", "faults",
})


def scenario_from_file(path: str) -> Scenario:
    """Build a :class:`Scenario` from the JSON shape documented above;
    a key outside it is a ``ValueError`` that names it."""
    payload: Mapping[str, Any] = json.loads(Path(path).read_text())
    if unknown := sorted(set(payload) - _SCENARIO_KEYS):
        raise ValueError(
            f"{path}: unknown scenario key(s) {', '.join(map(repr, unknown))}; "
            f"expected {', '.join(sorted(_SCENARIO_KEYS))}"
        )
    faults: Optional[FaultSchedule] = None
    if payload.get("faults"):
        faults = FaultSchedule()
        for event_spec in payload["faults"]:
            faults.add(fault_event_from_dict(event_spec))
    return Scenario(
        nodes=_nodes_from_spec(payload["nodes"]),
        workloads=[workload_from_dict(w) for w in payload["workloads"]],
        policy=payload.get("policy", "consolidation"),
        policy_options=dict(payload.get("policy_options", {})),
        optimizer_timeout=float(payload.get("optimizer_timeout", 10.0)),
        sla_factor=(
            float(payload["sla_factor"])
            if payload.get("sla_factor") is not None
            else None
        ),
        max_time=float(payload.get("max_time", 24 * 3600.0)),
        faults=faults,
    )


def demo_scenario() -> Scenario:
    """Four paper-class nodes, three two-VM vjobs under the FFD baseline of
    Section 5.1 (no search) — enough to watch the loop on a dashboard."""
    return Scenario(
        nodes=make_working_nodes(4),
        workloads=[
            make_workload(f"job-{index}", vm_count=2, duration=240.0 + 60.0 * index)
            for index in range(3)
        ],
        policy="ffd",
        optimizer_timeout=2.0,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-operator",
        description="Serve a repro scenario behind the operator daemon.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8090, help="0 picks an ephemeral port"
    )
    parser.add_argument(
        "--scenario-file",
        help="JSON scenario description (default: a built-in demo fleet)",
    )
    parser.add_argument(
        "--audit-log", help="mirror the audit log to this JSONL file"
    )
    parser.add_argument(
        "--run",
        action="store_true",
        help="start the control loop immediately instead of waiting for POST /run",
    )
    parser.add_argument(
        "--oneshot",
        action="store_true",
        help="with --run: exit once the run finishes (for smoke tests)",
    )
    args = parser.parse_args(argv)

    if args.scenario_file:
        try:
            scenario = scenario_from_file(args.scenario_file)
        except ValueError as error:
            parser.error(str(error))
    else:
        scenario = demo_scenario()
    daemon = OperatorDaemon(
        scenario, host=args.host, port=args.port, audit_path=args.audit_log
    )
    with daemon:
        print(f"repro-operator serving on {daemon.url}", flush=True)
        if args.run:
            daemon.start_run()
        try:
            if args.run and args.oneshot:
                state = daemon.wait()
                print(f"run finished: {state}", flush=True)
                return 0 if state == "completed" else 1
            while True:
                time.sleep(3600.0)
        except KeyboardInterrupt:
            print("shutting down", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
