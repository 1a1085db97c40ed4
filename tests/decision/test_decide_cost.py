"""What one decision costs, in counts, not clocks.

``decide`` is most of a loop round (``decision.decide_share`` in the round
benchmark), and most of it used to be the same work done several times:
every VM was placed twice by each packing (on a throw-away copy of the
trial, then on the trial), the FFD target packed a copy of a copy, the
selection and the FFD target each built a candidate filter (a fleet-wide
``vm_domains`` call apiece) and the blank trial re-created every frozen
``Node``.  A cold decision now builds one filter, copies nothing, writes
nothing to any ``Configuration`` and places each VM the selection probes
once on its ``PackingTrial`` (free capacities and a placement).  The FFD
fallback target is built on its first read (a round only reads it when its
solve failed): each VM that must run placed once on a blank trial, one
copy of the observed configuration that the answer is written into, and
nothing on a second read.  The packer's first-fit cursors skip the nodes a demand
already found full, so a decision probes little more than it places.

The module keeps its selection's trial between decisions: a second
decision on unchanged inputs places and probes nothing, and after one VM's
demand changes in vjob *k* it takes back exactly the VMs the trial placed
for the vjobs from *k* on and re-packs only those vjobs.  The policy keeps
its filter's domains too: a second decision under the same constraint
objects over the same node descriptions makes no fleet-wide
``vm_domains`` call.
The counts are deterministic, so this runs with the tier-1 suite and keeps
the duplicates from growing back.
"""

import pytest

import repro.constraints.domains
import repro.constraints.filtering
from repro.constraints import CandidateFilter, Fence, PlacementConstraint
from repro.decision import ConsolidationDecisionModule
from repro.decision.ffd import PackingTrial
from repro.model import Configuration, Node, VJobQueue, make_working_nodes
from repro.model.vjob import VJobState
from repro.model.vm import VMState
from repro.workloads import (
    TraceConfigurationGenerator,
    paper_cluster_nodes,
    paper_experiment_vjobs,
)
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


def _policy(catalog):
    """A consolidation policy handed ``catalog`` the way the loop hands it."""
    module = ConsolidationDecisionModule()
    module.use_constraints(catalog)
    return module


def _warm_fleet(fleet):
    """The fleet after a first decision started what fits, as every round
    of a loop but the first sees it."""
    nodes, vjobs, catalog = fleet()
    configuration = Configuration(nodes=nodes)
    queue = VJobQueue()
    for vjob in vjobs:
        for vm in vjob.vms:
            configuration.add_vm(vm)
        queue.submit(vjob)
    first = _policy(catalog).decide(configuration, queue)
    assert first.fallback_target is not None
    for vjob in vjobs:
        vjob.state = first.vjob_states[vjob.name]
    return first.fallback_target, queue, vjobs, catalog


KEYS = (
    "filters",
    "fleet domains",
    "copies",
    "nodes",
    "configuration writes",
    "place",
    "can_host",
    "take_back",
)

#: Every ``Configuration`` method that writes.
WRITERS = (
    "add_node",
    "add_vm",
    "replace_vm",
    "remove_node",
    "set_running",
    "set_sleeping",
    "set_waiting",
    "set_terminated",
    "migrate",
    "mark",
)


@pytest.fixture
def spies(monkeypatch):
    """Spy on the calls a decision makes: ``counts`` by key, plus the names
    the trial took back, in call order."""
    counts = dict.fromkeys(KEYS, 0)
    removed = []
    fleet_size = [0]

    def count(owner, name, key, counted=lambda *args, **kwargs: True):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            counts[key] += bool(counted(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    def reset(size):
        counts.update(dict.fromkeys(counts, 0))
        removed.clear()
        fleet_size[0] = size

    count(CandidateFilter, "__init__", "filters")
    # The policy's kept domains call it in `domains`, a filter built
    # without them in `filtering`.
    for module in (repro.constraints.domains, repro.constraints.filtering):
        count(
            module,
            "vm_domains",
            "fleet domains",
            lambda reference, vm_names, constraints: len(vm_names)
            == fleet_size[0],
        )
    count(Configuration, "copy", "copies")
    count(Node, "__post_init__", "nodes")
    for writer in WRITERS:
        count(Configuration, writer, "configuration writes")
    count(PackingTrial, "place", "place")
    count(PackingTrial, "can_host", "can_host")
    count(
        PackingTrial,
        "take_back",
        "take_back",
        lambda trial, name: removed.append(name) is None,
    )
    return counts, removed, reset


def _same_selection(ours, theirs):
    assert list(ours.vm_states.items()) == list(theirs.vm_states.items())
    assert list(ours.vjob_states.items()) == list(theirs.vjob_states.items())
    selection, expected = ours.metadata["rjsp"], theirs.metadata["rjsp"]
    assert selection == expected
    assert list(selection.trial_placement.items()) == list(
        expected.trial_placement.items()
    )


#: ``can_host`` probes of a cold decision and of its fallback's first read,
#: exact: the plain first-fit scan made 258 / 134 and 3 700 / 3 600.
PROBES = {_campaign: (91, 58), _fenced_fleet: (385, 380)}


@pytest.mark.parametrize("fleet", [_campaign, _fenced_fleet])
def test_one_decision_builds_one_filter_and_places_each_vm_once(
    fleet, spies
):
    configuration, queue, vjobs, catalog = _warm_fleet(fleet)
    running = [vjob for vjob in vjobs if vjob.state is VJobState.RUNNING]
    assert 0 < len(running) < len(vjobs)
    counts, _, reset = spies
    module = _policy(catalog)

    reset(len(configuration.vm_names))
    decision = module.decide(configuration, queue)

    selection = decision.metadata["rjsp"]
    assert selection.accepted == [vjob.name for vjob in running]
    accepted = 9 * len(running)
    probed = sum(len(vjob.vms) for vjob in queue.pending())
    assert counts["filters"] == counts["fleet domains"] == (1 if catalog else 0)
    # The decision copies and writes nothing: the fallback target is not
    # built yet, and the selection packs on its trial.
    assert counts["copies"] == counts["configuration writes"] == 0
    assert counts["nodes"] == 0
    # Each VM the selection probes is placed at most once on the trial (a
    # rejected vjob's are taken back, not placed again): what a rejected
    # vjob placed before one of its VMs fit nowhere is given back, and
    # only that (the Configuration trial unregistered every VM of it).
    assert accepted <= counts["place"] <= probed
    assert counts["take_back"] == counts["place"] - accepted
    assert counts["can_host"] == PROBES[fleet][0]

    # The first read builds the fallback: each VM that must run placed once
    # on a blank trial, one copy that the answer is written into, no second
    # filter.
    reset(len(configuration.vm_names))
    target = decision.fallback_target
    must_run = [
        name for name, state in target.states().items() if state is VMState.RUNNING
    ]
    assert len(must_run) == accepted
    assert {key: counts[key] for key in ("filters", "fleet domains", "copies")} == {
        "filters": 0,
        "fleet domains": 0,
        "copies": 1,
    }
    assert counts["nodes"] == 0
    assert counts["place"] == len(must_run)
    assert counts["take_back"] == 0
    assert counts["can_host"] == PROBES[fleet][1]

    # A second read returns the same configuration and builds nothing.
    reset(len(configuration.vm_names))
    assert decision.fallback_target is target
    assert not any(counts.values())


@pytest.mark.parametrize("fleet", [_campaign, _fenced_fleet])
def test_a_warm_decision_packs_only_from_the_first_vjob_that_changed(
    fleet, spies
):
    configuration, queue, vjobs, catalog = _warm_fleet(fleet)
    counts, removed, reset = spies
    module = _policy(catalog)
    cold = module.decide(configuration, queue)

    # Unchanged inputs: the retained trial answers, nothing is probed,
    # placed, taken back or copied; only the filter is built again, over
    # the kept domains.
    reset(len(configuration.vm_names))
    warm = module.decide(configuration, queue)
    _same_selection(warm, cold)
    assert counts["place"] == counts["can_host"] == 0
    assert counts["take_back"] == counts["copies"] == counts["nodes"] == 0
    assert counts["configuration writes"] == 0
    assert module.selection.repacked_vjobs == module.selection.repacked_vms == 0
    assert counts["filters"] == (1 if catalog else 0)
    assert counts["fleet domains"] == 0

    # One VM of an accepted vjob k changes demand: the vjobs before k keep
    # their packing, the trial gives back what it placed for k onwards.
    pending = queue.pending()
    selected = cold.metadata["rjsp"].accepted
    accepted = [vjob for vjob in pending if vjob.name in selected]
    k = pending.index(accepted[len(accepted) // 2])
    observed = configuration.copy()
    changed = observed.vm(pending[k].vms[0].name)
    observed.replace_vm(changed.with_cpu_demand(0 if changed.cpu_demand else 1))
    reset(len(configuration.vm_names))
    repacked = module.decide(observed, queue)

    taken_back = [
        vm.name
        for vjob in reversed(pending[k:])
        if vjob.name in selected
        for vm in reversed(vjob.vms)
    ]
    # Then each vjob from k on that does not fit any more gives back what
    # it placed, as a cold packing does.
    selection = repacked.metadata["rjsp"]
    rejected = {
        vm.name
        for vjob in pending[k:]
        if vjob.name in selection.rejected
        for vm in vjob.vms
    }
    kept = sum(
        len(vjob.vms) for vjob in pending[k:] if vjob.name in selection.accepted
    )
    assert removed[: len(taken_back)] == taken_back
    given_back = removed[len(taken_back) :]
    assert set(given_back) <= rejected
    assert len(given_back) == len(set(given_back)) == counts["place"] - kept
    assert 0 < counts["place"] <= sum(len(vjob.vms) for vjob in pending[k:])
    assert module.selection.repacked_vjobs == len(pending) - k
    assert module.selection.repacked_vms == sum(len(vjob.vms) for vjob in pending[k:])
    assert counts["copies"] == counts["nodes"] == 0
    _same_selection(repacked, _policy(catalog).decide(observed, queue))


def test_a_cold_fig10_decision_skips_the_nodes_it_found_full(spies):
    """A cold Sec. 5.1 instance (200 nodes, 486 VMs, no catalog): the plain
    scan re-probed every full node for every VM, 29 190 probes for the
    selection and 36 234 for the fallback, 97 % of them failing."""
    scenario = TraceConfigurationGenerator(node_count=200, seed=486000).generate(
        486
    )
    counts, _, reset = spies
    reset(len(scenario.configuration.vm_names))
    decision = ConsolidationDecisionModule().decide(
        scenario.configuration, scenario.queue
    )
    assert counts["can_host"] == 1399
    reset(len(scenario.configuration.vm_names))
    assert decision.fallback_target is not None
    assert counts["can_host"] == 1130


class StayPut(PlacementConstraint):
    """A running member may only stay on the host it runs on: a unary
    restriction that reads the observed placement."""

    def __init__(self, vms):
        self.vms = tuple(vms)

    def allowed_nodes(self, vm_name, node_names, configuration=None):
        if vm_name not in self.vms or not configuration.has_vm(vm_name):
            return None
        host = configuration.location_of(vm_name)
        return None if host is None else {host}

    def is_satisfied_by(self, configuration):
        return True


def test_the_policy_keeps_its_filter_domains_while_the_constraints_hold(spies):
    configuration, queue, vjobs, catalog = _warm_fleet(_fenced_fleet)
    counts, _, reset = spies
    module = _policy(catalog)

    def fleet_domains(observed=configuration):
        reset(len(observed.vm_names))
        module.decide(observed, queue)
        return counts["fleet domains"]

    assert fleet_domains() == 1
    assert fleet_domains() == 0
    # One node replaced by another: the same count, other names.
    replaced = Configuration(
        nodes=[*configuration.nodes[:-1], Node(name="spare", cpu_capacity=12)]
    )
    for vm in configuration.vms:
        replaced.add_vm(vm)
    assert fleet_domains(replaced) == 1
    assert fleet_domains() == 1
    assert fleet_domains() == 0
    # Equal fences, new objects: what was kept may not answer for them.
    module.use_constraints(
        [Fence(fence.vms, fence.nodes) for fence in catalog]
    )
    assert fleet_domains() == 1
    assert fleet_domains() == 0
    # A restriction that reads the placement is asked afresh every decision.
    module.use_constraints([*module.constraints, StayPut(vjobs[0].vm_names)])
    assert [fleet_domains() for _ in range(3)] == [1, 1, 1]
