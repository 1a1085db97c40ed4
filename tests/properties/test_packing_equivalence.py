"""One packer that places in place — same decisions as the copy-based ones.

:func:`repro.decision.ffd.ffd_commit` used to copy the trial, pack the copy,
throw it away and place everything a second time; the FFD target packed a
copy of a copy.  It now places each VM once on the configuration it is
handed and takes back (unplaces *and* unregisters) what it registered when a
VM fits nowhere, and the three RJSP-based policies share one ``decide`` that
builds one candidate filter for the selection and the FFD target.  Goldens,
the scoreboard and the audit replay need the same decisions byte for byte,
and two things nothing else pins are easy to lose on the way:

* ``vms_on`` / ``placement()`` list VMs in the order they *entered* the
  placement map, and the planner walks them — so the order a trial's or a
  target's VMs enter it must stay what it was (the order handed, not the
  decreasing-demand order the probes run in);
* a rejected vjob's VMs were never registered in the trial — an undo that
  left them registered as Waiting would show through ``has_vm`` /
  ``vm_names`` and any ``allows`` that walks the trial.

The packer also skips, per domain and demand, the nodes it already found
full (first-fit cursors), and resets them wherever load drops: a VM
re-placed off its host, a failed packing, a selection's take-back.  The
oracle is ``reference_packing.py`` (the former bodies, verbatim: a plain
scan from the first node).  The rounds are those of
``test_greedy_filter_equivalence.py``: random fleets and queues under
catalogs of the four relations, running vjobs with stragglers (the VMs
FCFS's first pass mirrors into the trial before any packing), vjobs the
observed configuration does not know, monitored demands written into the
configuration, a few demand classes on small nodes; plus one pinned round
per reset, each of which a packer that skipped that reset gets wrong.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from hypothesis import example, given, settings

from repro.api.decision import empty_configuration
from repro.constraints import CandidateFilter, Spread
from repro.decision import consolidation, fcfs, ffd, rjsp
from repro.model.configuration import Configuration
from repro.model.node import Node
from repro.model.queue import VJobQueue
from repro.model.vjob import VJob, VJobState
from repro.model.vm import VirtualMachine

import reference_packing
from test_greedy_filter_equivalence import constrained_rounds


def _readable(configuration):
    """Everything a later probe (or the planner) can read of a
    configuration, orders included."""
    if configuration is None:
        return None
    nodes = configuration.node_names
    return (
        configuration.vm_names,
        list(configuration.placement().items()),
        list(configuration.states().items()),
        [configuration.vms_on(node) for node in nodes],
        [configuration.images_on(node) for node in nodes],
        [configuration.free_capacity(node) for node in nodes],
    )


def _pinned_round(vjobs, running=(), constraints=()):
    """A round over three 2-CPU nodes: ``vjobs`` maps each vjob name to
    the ``(cpu, memory)`` of its VMs, in priority order; ``running`` maps
    a VM to the node it runs on (its vjob then runs)."""
    running = dict(running)
    configuration = Configuration(
        nodes=[
            Node(name=f"n{i}", cpu_capacity=2, memory_capacity=2048)
            for i in range(3)
        ]
    )
    queue = VJobQueue()
    for priority, (name, demands) in enumerate(vjobs.items()):
        vjob = VJob(
            name=name,
            vms=[
                VirtualMachine(
                    name=f"{name}.vm{i}", cpu_demand=cpu, memory=memory, vjob=name
                )
                for i, (cpu, memory) in enumerate(demands)
            ],
            priority=priority,
        )
        for vm in vjob.vms:
            configuration.add_vm(vm)
            if vm.name in running:
                configuration.set_running(vm.name, running[vm.name])
                vjob.state = VJobState.RUNNING
        queue.submit(vjob)
    return configuration, queue, list(constraints), "none"


#: ``b`` spreads its five 1 GB VMs over the three nodes and then fails on
#: its 2 GB one; ``c`` fits on n0 again, unless the cursors ``b`` moved
#: survive.
FAILED_CALL = _pinned_round(
    {"b": [(1, 1024)] * 5 + [(0, 2048)], "c": [(1, 1024)]}
)
#: ``a``'s second VM is vetoed on n0, which has room: ``b`` goes there.
VETOED = _pinned_round(
    {"a": [(1, 512), (1, 512)], "b": [(1, 512)]},
    constraints=[Spread(["a.vm0", "a.vm1"])],
)
#: n0 runs ``r.vm0`` and ``r.vm1`` and is full: ``a``'s VM is probed
#: there first, then ``r.vm0`` leaves it and ``r.vm1`` may stay.
RE_PLACED = _pinned_round(
    {"a": [(1, 512)], "r": [(1, 512), (1, 512)], "c": [(1, 512)]},
    running={"r.vm0": "n0", "r.vm1": "n0"},
)


@contextlib.contextmanager
def _copy_based():
    """Swap the former packer in under the selection and the admission."""
    with mock.patch.object(
        rjsp, "ffd_commit", reference_packing.ffd_commit
    ), mock.patch.object(fcfs, "ffd_commit", reference_packing.ffd_commit):
        yield


def _selection_and_booking(configuration, queue, constraints, backfilling):
    selection = rjsp.select_running_vjobs(
        configuration, queue, constraints=constraints
    )
    admission = fcfs.FCFSDecisionModule(backfilling=backfilling)
    admission.use_constraints(constraints)
    booking = admission.decide(configuration, queue)
    return (
        list(selection.vjob_states.items()),
        list(selection.vm_states.items()),
        list(selection.trial_placement.items()),
        selection.accepted,
        selection.rejected,
        list(booking.vm_states.items()),
        list(booking.vjob_states.items()),
        list(booking.metadata["trial_placement"].items()),
    )


@settings(max_examples=200, deadline=None)
@given(constrained_rounds())
@example(FAILED_CALL)
@example(VETOED)
def test_selection_and_admission_match_the_copy_based_packer(round_inputs):
    shipped = _selection_and_booking(*round_inputs)
    with _copy_based():
        copied = _selection_and_booking(*round_inputs)
    assert shipped == copied


@settings(max_examples=200, deadline=None)
@given(constrained_rounds())
def test_ffd_target_matches_the_copy_of_a_copy(round_inputs):
    configuration, queue, constraints, _ = round_inputs
    states = rjsp.select_running_vjobs(
        configuration, queue, constraints=constraints
    ).vm_states
    before = _readable(configuration)
    expected = reference_packing.ffd_target_configuration(
        configuration, states, constraints
    )
    target = ffd.ffd_target_configuration(
        configuration, states, constraints=constraints
    )
    assert _readable(configuration) == before
    assert (target is None) == (expected is None)
    if target is not None:
        assert target.same_assignment(expected)
    assert _readable(target) == _readable(expected)

    # The one policy body hands the selection's filter to the target: the
    # same target again, as the field each policy uses it as.
    for module_cls, used_as in (
        (consolidation.ConsolidationDecisionModule, "fallback_target"),
        (consolidation.FFDDecisionModule, "target"),
        (consolidation.RJSPDecisionModule, None),
    ):
        module = module_cls()
        module.use_constraints(constraints)
        decision = module.decide(configuration, queue)
        for field in ("target", "fallback_target"):
            built = getattr(decision, field)
            if field == used_as:
                assert _readable(built) == _readable(expected)
            else:
                assert built is None


@settings(max_examples=200, deadline=None)
@given(constrained_rounds())
@example(FAILED_CALL)
@example(VETOED)
def test_trials_stay_identical_vjob_after_vjob(round_inputs):
    """Both packers in lockstep over one queue, each on its own trial — which
    first mirrors the running VMs where they are, like FCFS's first pass —
    compared after every vjob: an accepted one entered both the same way, a
    rejected one left no trace in either.  The shipped packer shares one map
    of first-fit cursors across the queue, as the selection does."""
    configuration, queue, constraints, _ = round_inputs
    trials = (empty_configuration(configuration), empty_configuration(configuration))
    packers = (ffd.ffd_commit, reference_packing.ffd_commit)
    # A filter caches the domains it resolved: one each.
    filters = [
        CandidateFilter(constraints, reference=configuration) if constraints else None
        for _ in trials
    ]
    cursors = {}
    mirrored = set()
    for name, node in configuration.iter_placement():
        mirrored.add(name)
        for trial in trials:
            trial.add_vm(configuration.vm(name))
            trial.set_running(name, node)
    for vjob in queue.pending():
        vms = []
        for vm in vjob.vms:
            if vm.name in mirrored:
                continue
            if configuration.has_vm(vm.name):
                vm = configuration.vm(vm.name)
            vms.append(vm)
        before = _readable(trials[0])
        placed, expected = (
            packer(trial, vms, node_filter, cursors=cursors)
            for packer, trial, node_filter in zip(packers, trials, filters)
        )
        assert placed == expected
        assert _readable(trials[0]) == _readable(trials[1])
        if placed is None:
            assert _readable(trials[0]) == before


@settings(max_examples=200, deadline=None)
@given(constrained_rounds())
@example(RE_PLACED)
def test_re_placing_running_vms_matches_the_plain_scan(round_inputs):
    """``ffd_place`` handed every queued VM, on the observed configuration
    that already runs some of them: a re-placed VM unloads its host, which
    the first-fit cursors must not skip afterwards.  The running VMs are
    handed between two halves of the others, so a VM of the same demand is
    probed before each and another after it."""
    configuration, queue, constraints, _ = round_inputs
    queued = [
        configuration.vm(vm.name) if configuration.has_vm(vm.name) else vm
        for vjob in queue.pending()
        for vm in vjob.vms
    ]
    running = [
        vm
        for vm in queued
        if configuration.has_vm(vm.name) and configuration.location_of(vm.name)
    ]
    others = [vm for vm in queued if vm not in running]
    vms = others[::2] + running + others[1::2]
    before = _readable(configuration)
    placed, expected = (
        place(
            configuration,
            vms,
            node_filter=CandidateFilter(constraints, reference=configuration)
            if constraints
            else None,
        )
        for place in (ffd.ffd_place, reference_packing.ffd_place)
    )
    assert placed == expected
    assert _readable(configuration) == before


def _two_node_queue():
    """Three vjobs over two 2-CPU nodes: ``a`` fits, ``b`` does not — after
    its first VMs were placed — and ``c`` fits in what ``b`` gave back."""
    configuration = Configuration(
        nodes=[Node(name=f"n{i}", cpu_capacity=2, memory_capacity=2048) for i in range(2)]
    )
    queue = VJobQueue()
    for name, memories in (("a", (512, 1024)), ("b", (256, 1024, 512)), ("c", (256,))):
        queue.submit(
            VJob(
                name=name,
                vms=[
                    VirtualMachine(
                        name=f"{name}.vm{i}", memory=memory, cpu_demand=1, vjob=name
                    )
                    for i, memory in enumerate(memories)
                ],
            )
        )
    return configuration, queue


def test_a_rejected_vjob_between_accepted_ones_leaves_no_trace():
    configuration, queue = _two_node_queue()
    trial = empty_configuration(configuration)
    a, b, c = (vjob.vms for vjob in queue.pending())

    # Handed small-then-big, probed big-then-small, entered as handed.
    assert ffd.ffd_commit(trial, a) == {"a.vm1": "n0", "a.vm0": "n0"}
    assert list(trial.placement()) == ["a.vm0", "a.vm1"]
    assert trial.vms_on("n0") == ("a.vm0", "a.vm1")
    before = _readable(trial)

    # b.vm1 and b.vm2 land on n1 before b.vm0 finds no CPU left anywhere.
    assert ffd.ffd_commit(trial, b) is None
    assert _readable(trial) == before
    assert not any(trial.has_vm(vm.name) for vm in b)

    assert ffd.ffd_commit(trial, c) == {"c.vm0": "n1"}
    assert trial.vm_names == ("a.vm0", "a.vm1", "c.vm0")

    selection = rjsp.select_running_vjobs(configuration, queue)
    assert (selection.accepted, selection.rejected) == (["a", "c"], ["b"])
    assert list(selection.trial_placement.items()) == [
        ("a.vm0", "n0"),
        ("a.vm1", "n0"),
        ("c.vm0", "n1"),
    ]

