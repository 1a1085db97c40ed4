"""A whole run with the selection kept between rounds is the run without.

:class:`~repro.decision.consolidation.ConsolidationDecisionModule` keeps its
RJSP trial from one decision to the next and re-packs only from the first
vjob that changed.  Each case runs one scenario twice through
``Scenario(...).run()``: with the policy as shipped, and with a policy that
builds a new module for every decision, so nothing is kept.  The two
``RunResult`` documents (trace aside) must be byte-identical, and so must
the audit log's ``plan`` entries; the shipped run must also have had rounds
whose selection packed nothing.
"""

from __future__ import annotations

import json

from repro import FaultSchedule, Scenario
from repro.constraints import Fence
from repro.decision import ConsolidationDecisionModule, rjsp
from repro.model import make_working_nodes
from repro.service import ServiceObserver
from repro.workloads import (
    ChurnGenerator,
    ProblemClass,
    paper_cluster_nodes,
    paper_experiment_vjobs,
)


class _CountsPackings(ConsolidationDecisionModule):
    """The shipped policy, recording how many vjobs each decision packed."""

    def __init__(self, packed):
        super().__init__()
        self._packed = packed
        self.rounds = []

    def decide(self, configuration, queue):
        before = len(self._packed)
        decision = super().decide(configuration, queue)
        self.rounds.append(len(self._packed) - before)
        return decision


class _RebuiltEveryRound:
    """The consolidation policy with nothing kept between decisions."""

    name = "consolidation"

    def __init__(self):
        self.constraints = ()

    def use_constraints(self, constraints):
        self.constraints = tuple(constraints)

    def decide(self, configuration, queue):
        module = ConsolidationDecisionModule()
        module.use_constraints(self.constraints)
        return module.decide(configuration, queue)


def _campaign(policy, observer):
    """The Sec. 5.2 campaign: 11 nodes, 8 vjobs of 9 VMs, no catalog."""
    return Scenario(
        nodes=paper_cluster_nodes(),
        workloads=paper_experiment_vjobs(8, 9),
        policy=policy,
        optimizer_timeout=5.0,
        observers=[observer],
        trace=True,
    )


def _fenced(policy, observer):
    """Churn arrivals on two fenced halves of 12 nodes; node-0 crashes
    under the first vjob."""
    nodes = make_working_nodes(12, cpu_capacity=4, memory_capacity=8192)
    workloads = ChurnGenerator(
        seed=5,
        mean_interarrival_s=40.0,
        vm_count_choices=(3, 4),
        memory_choices=(1024, 2048),
        problem_classes=(ProblemClass.W,),
    ).workloads(8)
    names = [node.name for node in nodes]
    catalog = [
        Fence(
            [
                vm.name
                for position, workload in enumerate(workloads)
                if position % 2 == half
                for vm in workload.vjob.vms
            ],
            names[half * 6 : (half + 1) * 6],
        )
        for half in range(2)
    ]
    return Scenario(
        nodes=nodes,
        workloads=workloads,
        policy=policy,
        engine="repair",
        optimizer_timeout=5.0,
        constraints=catalog,
        faults=FaultSchedule().node_crash("node-0", at=120.0),
        observers=[observer],
        trace=True,
    )


def _run(build, policy):
    observer = ServiceObserver()
    document = build(policy, observer).run().to_dict()
    document.pop("trace")
    return (
        json.dumps(document, sort_keys=True),
        json.dumps(observer.audit.of_kind("plan"), sort_keys=True),
    )


def _check(build, monkeypatch):
    packed = []
    original = rjsp.ffd_commit

    def counted(*args, **kwargs):
        packed.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(rjsp, "ffd_commit", counted)
    kept = _CountsPackings(packed)
    ours = _run(build, kept)
    theirs = _run(build, _RebuiltEveryRound())
    assert ours[0] == theirs[0]
    assert ours[1] == theirs[1]
    assert json.loads(ours[1])
    # Some rounds saw what the previous one saw and packed nothing.
    assert 0 in kept.rounds
    assert any(kept.rounds)
    return json.loads(ours[0])


def test_the_campaign_runs_the_same_with_the_selection_kept(monkeypatch):
    result = _check(_campaign, monkeypatch)
    assert result["metadata"]["final_viable"]


def test_a_fenced_run_with_a_crash_runs_the_same_with_the_selection_kept(
    monkeypatch,
):
    result = _check(_fenced, monkeypatch)
    [crash] = result["faults"]
    assert crash["kind"] == "node_crash"
    assert crash["affected_vjobs"]
