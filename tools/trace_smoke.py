"""CI smoke test for end-to-end span tracing (:mod:`repro.obs`).

Runs a seeded churn scenario through the control loop with tracing on,
then checks the observability pipeline end to end:

* the run's trace records the canonical phases (round, solve, cp.solve,
  repair-attempt, execute, ...) and survives the
  :class:`~repro.api.results.RunResult` round-trip;
* every ``cp.solve`` span says why it stopped, in a word that the ``stop``
  row of ``docs/OBSERVABILITY.md`` documents;
* no ``repair-attempt`` span of the loop run (``engine="repair"``) failed;
* the Chrome trace-event export parses back as JSON and passes the
  schema/nesting validator (drag-and-droppable into Perfetto);
* the ``repro-trace`` CLI summarizes and exports the written trace file;
* on the PR 7 churn tier (100 VMs, 10 % churn per round), ``repro-trace
  diff`` of a cold-solve trace against a repair-engine trace reports the
  repair engine's solve-phase time reduction;
* a traced partitioned solve over two fenced zones records one ``zone``
  span per zone under its ``solve`` span, each holding the zone's
  ``cp.solve`` span with the zone's search counters, and its Chrome export
  draws them on one track and passes the validator.

Exit code 0 on success; any failure raises and exits non-zero.

Usage::

    python tools/trace_smoke.py
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import Scenario  # noqa: E402
from repro.constraints import Fence, Spread  # noqa: E402
from repro.core.optimizer import ContextSwitchOptimizer  # noqa: E402
from repro.decision import ConsolidationDecisionModule  # noqa: E402
from repro.model.configuration import Configuration  # noqa: E402
from repro.model.node import make_working_nodes  # noqa: E402
from repro.model.vm import VMState  # noqa: E402
from repro.obs import (  # noqa: E402
    Tracer,
    diff_traces,
    load_trace,
    phase_totals,
    span,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.cli import main as trace_cli  # noqa: E402
from repro.repair import RepairOptimizer  # noqa: E402
from repro.scale import ParallelOptimizer  # noqa: E402
from repro.testing import make_vm  # noqa: E402
from repro.workloads import (  # noqa: E402
    ChurnGenerator,
    ProblemClass,
    TraceConfigurationGenerator,
    heterogeneous_nodes,
)

#: The PR 7 churn tier the diff runs on: (VM count, churn fraction).
DIFF_TIER = (100, 0.1)
DIFF_ROUNDS = 3


def documented_stops() -> set[str]:
    """The stop reasons the ``stop`` row of the ``cp.solve`` attribute table
    in ``docs/OBSERVABILITY.md`` lists."""
    text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
    (row,) = re.findall(r"^\| `stop` \|.*$", text, flags=re.MULTILINE)
    return set(re.findall(r'`"(\w+)"`', row))


def check_stops(document: dict) -> int:
    """Every ``cp.solve`` span of a trace carries a documented ``stop``;
    returns how many were checked."""
    documented = documented_stops()
    assert {"bound", "incumbent"} <= documented, f"misread the table: {documented}"
    solves = [s for s in load_trace(document).walk() if s.name == "cp.solve"]
    for solve in solves:
        stop = solve.attributes.get("stop")
        assert stop in documented, (
            f"cp.solve span stopped with {stop!r}, "
            f"docs/OBSERVABILITY.md documents {sorted(documented)}"
        )
    return len(solves)


def traced_loop_run() -> None:
    """A traced control-loop run: phases, round-trip, Chrome export, CLI."""
    generator = ChurnGenerator(
        seed=23,
        mean_interarrival_s=30.0,
        vm_count_choices=(2, 3),
        problem_classes=(ProblemClass.W,),
    )
    scenario = Scenario(
        nodes=heterogeneous_nodes(8, seed=5),
        workloads=generator.workloads(8),
        policy="consolidation",
        optimizer_timeout=2.0,
        engine="repair",
        trace=True,
    )
    result = scenario.run()
    assert result.trace is not None, "traced run carried no trace"

    document = result.to_dict()
    phases = set(phase_totals(load_trace(document)))
    expected = {"run", "round", "solve", "cp.solve", "execute"}
    missing = expected - phases
    assert not missing, f"trace is missing phases: {sorted(missing)}"
    assert len(phases) >= 5, f"only {len(phases)} phases recorded"
    solves = check_stops(document)
    # Every repair attempt of this run answers: the dirty rule frees the
    # residents of an overloaded host, whose frozen VMs used to make the
    # attempt fail before any search.
    failed = [
        s
        for s in load_trace(document).walk()
        if s.name == "repair-attempt" and s.attributes.get("failed")
    ]
    assert not failed, f"{len(failed)} repair attempts found nothing"

    chrome = to_chrome_trace(document)
    errors = validate_chrome_trace(json.loads(json.dumps(chrome)))
    assert not errors, f"chrome export invalid: {errors}"

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "run.trace.json"
        trace_path.write_text(json.dumps(document))
        assert trace_cli(["summary", str(trace_path)]) == 0
        out = Path(tmp) / "run.chrome.json"
        assert trace_cli(["export", str(trace_path), "-o", str(out)]) == 0
        exported = json.loads(out.read_text())
        assert not validate_chrome_trace(exported)
    print(f"traced loop run ok: {len(phases)} phases, {solves} cp.solve spans "
          f"with a documented stop, {len(chrome['traceEvents'])} chrome events")


def _traced_churn_solves(repair: bool, seed: int = 1000) -> dict:
    """Replay the PR 7 churn rounds under one tracer; returns its trace."""
    vm_count, churn = DIFF_TIER
    # One generated fleet of the Section 5.1 shape: 2 VMs per node.
    scenario = TraceConfigurationGenerator(
        node_count=max(2, vm_count // 2), seed=seed
    ).generate(vm_count)
    configuration, queue = scenario.configuration, scenario.queue
    vjob_of_vm = scenario.vjob_of_vm()
    states = dict(
        ConsolidationDecisionModule().decide(configuration, queue).vm_states
    )
    cold = ContextSwitchOptimizer(timeout=30.0, first_solution_only=True)
    optimizer = RepairOptimizer(cold, timeout=30.0) if repair else cold
    # Warm-up outside the trace: the first round leaves the repair engine
    # its previous assignment, and the cold side replays identical churn.
    current = optimizer.optimize(
        configuration, states, vjob_of_vm=vjob_of_vm
    ).target
    # One relational constraint, satisfied as things stand: without it the
    # keep-in-place incumbent answers every one of these rounds before a
    # model exists, cold or warm, and there is no solve phase to compare.
    hosted = [vm for vm in current.vm_names if current.location_of(vm)]
    apart = next(
        vm
        for vm in hosted
        if current.location_of(vm) != current.location_of(hosted[0])
    )
    catalog = [Spread([hosted[0], apart])]

    rng = random.Random(seed)
    victims_per_round = max(1, math.ceil(vm_count * churn))
    tracer = Tracer()
    with tracer.activate() as root:
        root.set(engine="repair" if repair else "cold")
        for index in range(DIFF_ROUNDS):
            running = sorted(
                vm
                for vm in current.vm_names
                if current.state_of(vm) is VMState.RUNNING
                and states.get(vm) is VMState.RUNNING
            )
            victims = rng.sample(
                running, min(victims_per_round, len(running))
            )
            # No mark: a victim is wanted running and does not run, which
            # the repair engine's dirty rule reads off the configuration.
            for victim in victims:
                current.set_waiting(victim)
            with span("round", index=index):
                with span("solve"):
                    result = optimizer.optimize(
                        current, states, vjob_of_vm=vjob_of_vm, constraints=catalog
                    )
            current = result.target
    return tracer.to_dict()


def churn_tier_diff() -> None:
    """``repro-trace diff`` on the PR 7 tier: cold vs repair solve time."""
    cold = _traced_churn_solves(repair=False)
    warm = _traced_churn_solves(repair=True)
    assert check_stops(cold) and check_stops(warm)
    delta = diff_traces(cold, warm)
    solve = delta["phases"]["solve"]
    print(
        f"churn tier solve phase: cold {solve['before_s']:.3f}s -> "
        f"repair {solve['after_s']:.3f}s ({solve['delta_s']:+.3f}s)"
    )
    with tempfile.TemporaryDirectory() as tmp:
        before = Path(tmp) / "cold.trace.json"
        after = Path(tmp) / "repair.trace.json"
        before.write_text(json.dumps(cold))
        after.write_text(json.dumps(warm))
        assert trace_cli(["diff", str(before), str(after)]) == 0
    assert solve["after_s"] < solve["before_s"], (
        "repair engine did not reduce solve-phase time on the churn tier"
    )


def traced_zone_solve() -> None:
    """A traced partitioned solve over two fenced zones, in-process: one
    ``zone`` span per zone under ``solve``, each holding its ``cp.solve``
    span, whose ``nodes`` counter is the zone's outcome, and a valid Chrome
    export on one track."""
    configuration = Configuration(
        nodes=make_working_nodes(6, cpu_capacity=2, memory_capacity=4096)
    )
    for index in range(6):
        # vm0 fills node-0 and vm1 joins it there: the host must shed a VM,
        # so no keep-in-place answers the round and both zones are solved.
        cpu = 2 if index == 0 else 1
        configuration.add_vm(make_vm(f"vm{index}", memory=1024, cpu=cpu))
        configuration.set_running(f"vm{index}", f"node-{index}")
    configuration.migrate("vm1", "node-0")
    states = dict.fromkeys(configuration.vm_names, VMState.RUNNING)
    catalog = [
        Fence(["vm0", "vm1", "vm2"], ("node-0", "node-1", "node-2")),
        Fence(["vm3", "vm4", "vm5"], ("node-3", "node-4", "node-5")),
    ]
    tracer = Tracer()
    with tracer.activate():
        with span("solve", engine="partitioned"):
            result = ParallelOptimizer(timeout=10.0).optimize(
                configuration, states, constraints=catalog
            )
    document = tracer.to_dict()
    (solve,) = [s for s in load_trace(document).walk() if s.name == "solve"]
    zones = {z.attributes["zone"]: z for z in solve.children if z.name == "zone"}
    outcomes = {o.index: o for o in result.zone_reports}
    assert len(outcomes) >= 2, f"{len(outcomes)} zones solved, expected two"
    assert sorted(zones) == sorted(outcomes), (
        f"zone spans {sorted(zones)} for zones {sorted(outcomes)}"
    )
    for index, zone in zones.items():
        searches = [c for c in zone.children if c.name == "cp.solve"]
        assert searches, f"zone {index} holds no cp.solve span"
        nodes = sum(c.counters.get("nodes", 0) for c in searches)
        stats = outcomes[index].statistics
        assert nodes == stats.nodes, (
            f"zone {index}: cp.solve says {nodes} nodes, outcome {stats}"
        )
    chrome = to_chrome_trace(document)
    errors = validate_chrome_trace(json.loads(json.dumps(chrome)))
    assert not errors, f"zone solve chrome export invalid: {errors}"
    tracks = {e["tid"] for e in chrome["traceEvents"] if e["ph"] == "X"}
    assert tracks == {1}, f"spans drawn on tracks {sorted(tracks)}, expected one"
    print(f"traced zone solve ok: {len(zones)} zone spans, "
          f"{len(chrome['traceEvents'])} chrome events")


def main() -> int:
    traced_loop_run()
    churn_tier_diff()
    traced_zone_solve()
    print("trace smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
