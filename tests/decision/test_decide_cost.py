"""What one decision costs, in counts, not clocks.

``decide`` is most of a loop round (``decision.decide_share`` in the round
benchmark), and most of it used to be the same work done several times:
every VM was placed twice by each packing (on a throw-away copy of the
trial, then on the trial), the FFD target packed a copy of a copy, the
selection and the FFD target each built a candidate filter (a fleet-wide
``vm_domains`` call apiece) and the blank trial re-created every frozen
``Node``.  One decision now builds one filter, copies nothing and places
each VM the selection probes once.  The FFD fallback target is built on
its first read (a round only reads it when its solve failed): one copy of
the observed configuration, each VM that must run placed once, and nothing
on a second read.  The counts are deterministic, so this runs with the
tier-1 suite and keeps the duplicates from growing back.
"""

import pytest

import repro.constraints.filtering
from repro.constraints import CandidateFilter, Fence
from repro.decision import ConsolidationDecisionModule
from repro.model import Configuration, Node, VJobQueue, make_working_nodes
from repro.model.vjob import VJobState
from repro.model.vm import VMState
from repro.workloads import paper_cluster_nodes, paper_experiment_vjobs
from repro.testing import make_vjob


def _campaign():
    """The Sec. 5.2 cluster: 11 nodes, 8 vjobs of 9 VMs, no catalog."""
    vjobs = [workload.vjob for workload in paper_experiment_vjobs(8, 9)]
    return paper_cluster_nodes(), vjobs, []


def _fenced_fleet():
    """100 nodes, 33 vjobs of 9 VMs, each fenced into a quarter of the fleet
    (the shape of the round benchmark's ``loop-fenced``); three 4 GB VMs
    fill a node, so the ninth vjob of the first fence is rejected."""
    nodes = make_working_nodes(100, cpu_capacity=12, memory_capacity=12288)
    vjobs = [
        make_vjob(f"vjob{index}", vm_count=9, memory=4096, priority=index)
        for index in range(33)
    ]
    names = [node.name for node in nodes]
    catalog = [
        Fence(
            vms=[
                vm.name
                for position, vjob in enumerate(vjobs)
                if position % 4 == fence
                for vm in vjob.vms
            ],
            nodes=names[fence * 25 : (fence + 1) * 25],
        )
        for fence in range(4)
    ]
    return nodes, vjobs, catalog


@pytest.mark.parametrize("fleet", [_campaign, _fenced_fleet])
def test_one_decision_builds_one_filter_and_places_each_vm_once(fleet, monkeypatch):
    nodes, vjobs, catalog = fleet()
    configuration = Configuration(nodes=nodes)
    queue = VJobQueue()
    for vjob in vjobs:
        for vm in vjob.vms:
            configuration.add_vm(vm)
        queue.submit(vjob)
    module = ConsolidationDecisionModule(constraints=catalog)

    # A first decision starts what fits; the counted one sees that fleet
    # running, as every round of a loop but the first does.
    first = module.decide(configuration, queue)
    assert first.fallback_target is not None
    configuration = first.fallback_target
    for vjob in vjobs:
        vjob.state = first.vjob_states[vjob.name]
    running = [vjob for vjob in vjobs if vjob.state is VJobState.RUNNING]
    assert 0 < len(running) < len(vjobs)

    counts = dict.fromkeys(
        ("filters", "fleet domains", "copies", "nodes", "set_running"), 0
    )

    def count(owner, name, key, counted=lambda *args, **kwargs: True):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            counts[key] += bool(counted(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    fleet_size = len(configuration.vm_names)
    count(CandidateFilter, "__init__", "filters")
    count(
        repro.constraints.filtering,
        "vm_domains",
        "fleet domains",
        lambda reference, vm_names, constraints: len(vm_names) == fleet_size,
    )
    count(Configuration, "copy", "copies")
    count(Node, "__post_init__", "nodes")
    count(Configuration, "set_running", "set_running")

    decision = module.decide(configuration, queue)

    selection = decision.rjsp
    assert selection.accepted == [vjob.name for vjob in running]
    accepted = 9 * len(running)
    probed = sum(len(vjob.vms) for vjob in queue.pending())
    assert counts["filters"] == counts["fleet domains"] == (1 if catalog else 0)
    # The decision copies nothing: the fallback target is not built yet.
    assert counts["copies"] == 0
    assert counts["nodes"] == 0
    # Each VM the selection probes is placed at most once on the trial (a
    # rejected vjob's are taken back, not placed again).
    assert accepted <= counts["set_running"] <= probed

    # The first read builds the fallback: one copy, each VM that must run
    # placed once on it, no second filter.
    counts.update(dict.fromkeys(counts, 0))
    target = decision.fallback_target
    must_run = [
        name for name, state in target.states().items() if state is VMState.RUNNING
    ]
    assert len(must_run) == accepted
    assert counts == {
        "filters": 0,
        "fleet domains": 0,
        "copies": 1,
        "nodes": 0,
        "set_running": len(must_run),
    }

    # A second read returns the same configuration and builds nothing.
    counts.update(dict.fromkeys(counts, 0))
    assert decision.fallback_target is target
    assert not any(counts.values())
