"""The control loop's tick, pinned end to end.

One run exercises every step of a round — an operator command, a node
crash, an injected migration failure, a constraint breach, a failed decide,
a failed plan and several switches — and its observer event sequence, its
per-round spans and its result bytes are compared against a recording.  A
change to the order of the steps, or to what a step records, fails here.
"""

from __future__ import annotations

import hashlib
import json

from repro import FaultSchedule, Scenario
from repro.api import LoopObserver, RecordingObserver
from repro.constraints import Ban
from repro.core.context_switch import ClusterContextSwitch
from repro.decision.consolidation import ConsolidationDecisionModule
from repro.model import make_working_nodes
from repro.model.node import Node
from repro.model.vjob import VJob
from repro.obs import load_trace
from repro.service.commands import LoopCommandQueue
from repro.sim.faults import FaultEvent, FaultKind
from repro.testing import make_vm, make_workload
from repro.workloads.traces import VJobWorkload, constant_trace


class _Scripted:
    """The consolidation policy with three scripted rounds: the first plans
    an explicit target that breaks the ``Ban``, the third decision raises,
    the sixth plans a target that overloads ``node-3``."""

    name = "scripted"

    def __init__(self):
        self.inner = ConsolidationDecisionModule()
        self.calls = 0

    def use_constraints(self, constraints):
        self.inner.use_constraints(constraints)

    def decide(self, configuration, queue):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("decision module crashed")
        decision = self.inner.decide(configuration, queue)
        if self.calls == 1:
            decision.target = decision.fallback_target.copy()
            decision.target.set_running("a.vm0", "node-0")
        if self.calls == 6:
            decision.target = configuration.copy()
            for vm in configuration.running_vms():
                decision.target.set_running(vm, "node-3")
        return decision


class _SubmitsAt(LoopObserver):
    """Queues an operator vjob submission when the sample at ``time`` is
    taken; the loop drains it at the start of the next round."""

    def __init__(self, queue, time):
        self.queue = queue
        self.time = time

    def on_sample(self, sample):
        if sample.time == self.time:
            self.queue.submit_workload(make_workload("op", vm_count=1, duration=60.0))


def _scenario(engine="repair"):
    """The scripted run's scenario and the operator queue it drains."""
    queue = LoopCommandQueue()
    scenario = Scenario(
        nodes=[
            *make_working_nodes(3, cpu_capacity=4, memory_capacity=4096),
            Node("node-3", cpu_capacity=1, memory_capacity=4096),
        ],
        workloads=[
            make_workload("a", duration=150.0),
            make_workload("b", duration=90.0),
        ],
        policy=_Scripted(),
        optimizer_timeout=5.0,
        engine=engine,
        constraints=[Ban(["a.vm0"], ["node-0"])],
        faults=FaultSchedule()
        .node_crash("node-0", at=100.0)
        .add(FaultEvent(0.0, FaultKind.MIGRATION_FAILURE, "a.vm0")),
        observers=[RecordingObserver(), _SubmitsAt(queue, 30.0)],
        trace=True,
    )
    return scenario, queue


def _run():
    scenario, queue = _scenario()
    result = scenario.build(command_queue=queue).run()
    assert queue.applied == ["submit_vjob:op"]
    return result, scenario.observers[0]


#: Observer events, one string per round (a round ends at its sample).
EVENTS = [
    "run_start",
    "iteration decision constraint_violation constraint_violation switch "
    "constraint_violation sample",
    "iteration decision constraint_violation sample",
    "iteration constraint_violation sample",
    "iteration decision fault constraint_violation constraint_violation switch "
    "constraint_violation sample",
    "fault iteration decision switch repair repair sample",
    "iteration vjob_completed decision sample",
    "iteration vjob_completed decision switch sample",
    "iteration vjob_completed run_end",
]

_OBSERVED = {"demand_updates": 5, "overloaded": 0}

#: Per round: the ``round`` span's attributes, the loop's phase spans with
#: theirs, and every span name below the round, depth first.
ROUNDS = [
    (
        {"index": 0, "sim_time": 0.0, "switched": True, "switch_cost": 0},
        [
            ("observe", {"demand_updates": 4, "dirty_nodes": 4, "overloaded": 0}),
            ("decide", {}),
            ("plan", {}),
        ],
        "observe decide plan check-plan execute",
    ),
    (
        {"index": 1, "sim_time": 30.0},
        [
            ("observe", {"demand_updates": 4, "dirty_nodes": 1, "overloaded": 0}),
            ("decide", {}),
        ],
        "observe decide",
    ),
    (
        {"index": 2, "sim_time": 60.0},
        [
            ("observe", {**_OBSERVED, "dirty_nodes": 0}),
            ("decide", {"failed": True, "error": "RuntimeError"}),
        ],
        "observe decide",
    ),
    (
        {"index": 3, "sim_time": 90.0, "switched": True, "switch_cost": 1024},
        [("observe", {**_OBSERVED, "dirty_nodes": 0}), ("decide", {}), ("plan", {})],
        "observe decide plan solve dirty-set full-solve cp.solve check-plan execute",
    ),
    (
        {"index": 4, "sim_time": 120.0, "switched": True, "switch_cost": 0},
        [("observe", {**_OBSERVED, "dirty_nodes": 0}), ("decide", {}), ("plan", {})],
        "observe decide plan solve dirty-set full-solve cp.solve check-plan execute",
    ),
    (
        {"index": 5, "sim_time": 150.0},
        [
            ("observe", {**_OBSERVED, "dirty_nodes": 1}),
            ("decide", {}),
            ("plan", {"failed": True, "error": "PlanningError"}),
        ],
        "observe decide plan",
    ),
    (
        {"index": 6, "sim_time": 180.0, "switched": True, "switch_cost": 0},
        [("observe", {**_OBSERVED, "dirty_nodes": 1}), ("decide", {}), ("plan", {})],
        "observe decide plan solve dirty-set repair-attempt check-plan execute",
    ),
    (
        {"index": 7, "sim_time": 210.0},
        [("observe", {**_OBSERVED, "dirty_nodes": 1})],
        "observe",
    ),
]

#: SHA-256 of ``json.dumps(result.to_dict())`` without the trace: every
#: series and the metadata, in key order.
RESULT_SHA256 = "42d0cfac7194e442c5ac71909f76b1ce56ebae3d0f495de95fe3ed16fe5f8c8d"


class TestTheTick:
    def test_one_round_of_every_kind_replays_in_lockstep(self):
        result, recorder = _run()
        groups, current = [], []
        for kind, _ in recorder.events:
            current.append(kind)
            if kind in ("run_start", "sample"):
                groups.append(" ".join(current))
                current = []
        groups.append(" ".join(current))
        assert groups == EVENTS

        document = result.to_dict()
        root = load_trace({"trace": document.pop("trace")})
        assert root.attributes == {"policy": "scripted", "engine": "repair"}
        rounds = [
            (
                node.attributes,
                [
                    (child.name, child.attributes)
                    for child in node.children
                    if child.name in ("observe", "decide", "plan")
                ],
                " ".join(span.name for span in list(node.walk())[1:]),
            )
            for node in root.children
        ]
        assert rounds == ROUNDS

        assert [f.kind for f in result.faults] == ["migration_failure", "node_crash"]
        assert {v.phase for v in result.constraint_violations} == {
            "plan",
            "execution",
            "configuration",
        }
        assert result.metadata["failure_causes"] == {
            "PlanningError": 1,
            "RuntimeError": 1,
        }
        digest = hashlib.sha256(json.dumps(document).encode()).hexdigest()
        assert digest == RESULT_SHA256

    def test_a_switcher_swapped_after_build_is_the_one_the_run_calls(self):
        # The round benchmark swaps in a serial (and a probed) switch after
        # Scenario.build(): every round reads loop.switcher when it runs.
        loop = Scenario(
            nodes=make_working_nodes(3),
            workloads=[make_workload("w", duration=60.0)],
        ).build()
        built = loop.switcher
        calls = []

        class Recording(ClusterContextSwitch):
            def compute(self, *args, **kwargs):
                calls.append("compute")
                return super().compute(*args, **kwargs)

        loop.switcher = Recording(optimizer_timeout=5.0)
        result = loop.run()
        assert "w" in result.completion_times
        assert calls.count("compute") == len(result.switches) > 0
        assert built is not loop.switcher


def _unpackable_by_ffd():
    """RJSP accepts both vjobs, but the from-scratch FFD packing of their
    five VMs fails: the decision carries no FFD placement at all."""
    workloads = []
    for name, priority, shapes in (
        ("j0", 0, [(1, 1536), (0, 1536)]),
        ("j1", 1, [(2, 512), (1, 1024), (2, 512)]),
    ):
        vms = [
            make_vm(f"{name}.vm{index}", memory=memory, cpu=cpu, vjob=name)
            for index, (cpu, memory) in enumerate(shapes)
        ]
        traces = {
            vm.name: constant_trace(300.0, cpu_demand=vm.cpu_demand) for vm in vms
        }
        vjob = VJob(name=name, vms=vms, priority=priority)
        workloads.append(VJobWorkload(vjob=vjob, traces=traces))
    return Scenario(
        nodes=[
            Node("n0", cpu_capacity=2, memory_capacity=4096),
            Node("n1", cpu_capacity=4, memory_capacity=1024),
            Node("n2", cpu_capacity=1, memory_capacity=1024),
        ],
        workloads=workloads,
        policy="ffd",
    )


def test_the_ffd_baseline_without_an_ffd_placement_is_planned_by_the_optimizer():
    recorder = RecordingObserver()
    result = _unpackable_by_ffd().observe(recorder).run()
    _, first = recorder.of_kind("decision")[0]
    assert first.target is None
    assert set(first.vjob_states) == {"j0", "j1"}
    assert [s.used_fallback for s in result.switches] == [False]
    assert result.makespan == 330.0
    assert result.metadata["planning_failures"] == 0
    assert result.unfinished_vjobs == []
    assert result.metadata["final_viable"]
