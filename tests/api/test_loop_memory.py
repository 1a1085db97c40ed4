"""A control loop asks the catalog once a round: one domains memory per loop.

The policy's candidate filter, the RJSP selection and the switch's engine
all read the unary domains the switch keeps
(:class:`~repro.constraints.domains.RetainedDomains`, handed to a built-in
policy when the loop is built).  So a cold round computes the fleet's
domains once, in its decide step, and the plan step that follows reads
them instead of asking :func:`~repro.constraints.domains.vm_domains` again.
The counts are deterministic.
"""

from __future__ import annotations

import pytest

import repro.constraints.domains
from repro import Scenario
from repro.constraints import Fence
from repro.model import make_working_nodes
from repro.workloads import ChurnGenerator, ProblemClass


def _fenced_loop(engine):
    """Churn vjobs on two fenced halves of 12 nodes, every one submitted
    before the first round."""
    nodes = make_working_nodes(12, cpu_capacity=4, memory_capacity=8192)
    workloads = ChurnGenerator(
        seed=5,
        mean_interarrival_s=40.0,
        vm_count_choices=(3, 4),
        memory_choices=(1024, 2048),
        problem_classes=(ProblemClass.W,),
    ).workloads(8)
    for workload in workloads:
        workload.vjob.submitted_at = 0.0
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
        engine=engine,
        optimizer_timeout=5.0,
        constraints=catalog,
    ).build()


@pytest.mark.parametrize("engine", ["event", "repair-partitioned"])
def test_a_cold_loop_round_asks_the_catalog_once(engine, monkeypatch):
    loop = _fenced_loop(engine)
    assert loop.decision_module.domains is loop.switcher.optimizer.domains
    fleet = set(loop.cluster.configuration.vm_names)

    phase = ["build"]
    asked = {"decide": [], "plan": []}
    original = repro.constraints.domains.vm_domains

    def spy(current, vms, constraints):
        vms = list(vms)
        asked[phase[0]].append(set(vms))
        return original(current, vms, constraints)

    monkeypatch.setattr(repro.constraints.domains, "vm_domains", spy)
    decide, compute = loop.decision_module.decide, loop.switcher.compute

    def decide_phase(*args, **kwargs):
        phase[0] = "decide"
        return decide(*args, **kwargs)

    def plan_phase(*args, **kwargs):
        phase[0] = "plan"
        try:
            return compute(*args, **kwargs)
        finally:
            # One round is enough: stop at the next round boundary.
            loop.request_stop()

    monkeypatch.setattr(loop.decision_module, "decide", decide_phase)
    monkeypatch.setattr(loop.switcher, "compute", plan_phase)
    result = loop.run()

    assert result.metadata.get("stopped_early")
    assert len(result.switches) == 1
    # One fleet-wide call: the policy's filter; the engine computes none.
    assert asked["decide"] == [fleet]
    assert asked["plan"] == []
