"""One packer that places in place — same decisions as the copy-based ones.

:func:`repro.decision.ffd.ffd_commit` used to copy the trial, pack the copy,
throw it away and place everything a second time; the FFD target packed a
copy of a copy.  It now places each VM once on a
:class:`~repro.decision.ffd.PackingTrial` — free capacities and a
placement — and gives back what it placed when a VM fits nowhere, and the
three RJSP-based policies share one ``decide`` that builds one candidate
filter for the selection and the FFD target.  Goldens, the scoreboard and
the audit replay need the same decisions byte for byte, and two things
nothing else pins are easy to lose on the way:

* ``vms_on`` / ``placement()`` list VMs in the order they *entered* the
  placement map, and the planner walks them — so the order a trial's or a
  target's VMs enter it must stay what it was (the order handed, not the
  decreasing-demand order the probes run in);
* a rejected vjob's VMs leave no trace in the trial — a take-back that
  left one placed, or some of its load behind, would show through
  ``has_vm`` / ``vms_on``, any ``allows`` that walks the trial and every
  later probe.

The packer also skips, per domain and demand, the nodes it already found
full (first-fit cursors), and resets them wherever load drops: a failed
packing, a selection's take-back.  The oracle is ``reference_packing.py``
(the former bodies, verbatim: a plain scan from the first node, on a
``Configuration`` trial that the policies build instead of a
``PackingTrial`` while it runs).  The rounds are those of
``test_greedy_filter_equivalence.py``: random fleets and queues under
catalogs of the four relations, running vjobs with stragglers (the VMs
FCFS's first pass mirrors into the trial before any packing), vjobs the
observed configuration does not know, monitored demands written into the
configuration, a few demand classes on small nodes; plus pinned rounds: a
failed call and a veto, each of which a packer that skipped a cursor rule
gets wrong, and two relations that read the trial across vjobs.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from hypothesis import example, given, settings

from repro.constraints import CandidateFilter, RunningCapacity, Spread
from repro.decision import consolidation, fcfs, ffd, rjsp
from repro.decision.ffd import PackingTrial
from repro.model.configuration import Configuration
from repro.model.node import Node
from repro.model.queue import VJobQueue
from repro.model.vjob import VJob
from repro.model.vm import VirtualMachine

import reference_packing
from reference_packing import ConfigurationTrial
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


def _pinned_round(vjobs, constraints=()):
    """A round over three 2-CPU nodes: ``vjobs`` maps each vjob name to
    the ``(cpu, memory)`` of its VMs, in priority order."""
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
#: n0 has room for ``b``'s VM, but one seat, which ``a`` took: the veto
#: counts the trial's ``vms_on``.
SEAT_TAKEN = _pinned_round(
    {"a": [(1, 512)], "b": [(1, 512)]},
    constraints=[RunningCapacity(["n0"], 1)],
)
#: ``b``'s VM may not join ``a``'s on n0: the veto reads where the trial
#: placed a VM of another vjob.
SPREAD_ACROSS_VJOBS = _pinned_round(
    {"a": [(1, 512)], "b": [(1, 512)]},
    constraints=[Spread(["a.vm0", "b.vm0"])],
)


@contextlib.contextmanager
def _copy_based():
    """Swap the former packer, on a configuration trial, in under the
    selection and the admission."""
    with contextlib.ExitStack() as stack:
        for module in (rjsp, fcfs):
            stack.enter_context(
                mock.patch.object(module, "ffd_commit", reference_packing.ffd_commit)
            )
            stack.enter_context(
                mock.patch.object(module, "PackingTrial", ConfigurationTrial)
            )
        yield


def _trial_reads(trial, vm_names):
    """Everything a later probe (or a policy) can read of a trial, orders
    included: the placement, each node's VMs and free capacity, and which
    of ``vm_names`` it holds."""
    nodes = trial.node_names
    if isinstance(trial, PackingTrial):
        free = list(zip(trial.free_cpu, trial.free_memory))
    else:
        free = [trial.free_capacity(node).as_tuple() for node in nodes]
    return (
        list(trial.placement().items()),
        [trial.vms_on(node) for node in nodes],
        free,
        [trial.has_vm(name) for name in vm_names],
    )


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
@example(SEAT_TAKEN)
@example(SPREAD_ACROSS_VJOBS)
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
@example(SEAT_TAKEN)
@example(SPREAD_ACROSS_VJOBS)
def test_trials_stay_identical_vjob_after_vjob(round_inputs):
    """Both packers in lockstep over one queue, each on its own trial — which
    first mirrors the running VMs where they are, like FCFS's first pass —
    compared after every vjob: an accepted one entered both the same way, a
    rejected one left no trace in either.  The shipped packer shares one map
    of first-fit cursors across the queue, as the selection does."""
    configuration, queue, constraints, _ = round_inputs
    trials = (
        PackingTrial(configuration.nodes),
        ConfigurationTrial(configuration.nodes),
    )
    packers = (ffd.ffd_commit, reference_packing.ffd_commit)
    # A filter caches the domains it resolved: one each.
    filters = [
        CandidateFilter(constraints, reference=configuration) if constraints else None
        for _ in trials
    ]
    names = [vm.name for vjob in queue.pending() for vm in vjob.vms]
    cursors = {}
    mirrored = set()
    for name, node in configuration.placement().items():
        mirrored.add(name)
        for trial in trials:
            trial.place(configuration.vm(name), node)
    for vjob in queue.pending():
        vms = []
        for vm in vjob.vms:
            if vm.name in mirrored:
                continue
            if configuration.has_vm(vm.name):
                vm = configuration.vm(vm.name)
            vms.append(vm)
        before = _trial_reads(trials[0], names)
        placed, expected = (
            packer(trial, vms, node_filter, cursors=cursors)
            for packer, trial, node_filter in zip(packers, trials, filters)
        )
        assert placed == expected
        assert _trial_reads(trials[0], names) == _trial_reads(trials[1], names)
        if placed is None:
            assert _trial_reads(trials[0], names) == before


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
    trial = PackingTrial(configuration.nodes)
    a, b, c = (vjob.vms for vjob in queue.pending())
    names = [vm.name for vms in (a, b, c) for vm in vms]

    # Handed small-then-big, probed big-then-small, entered as handed.
    assert ffd.ffd_commit(trial, a) == {"a.vm1": "n0", "a.vm0": "n0"}
    assert list(trial.placement()) == ["a.vm0", "a.vm1"]
    assert trial.vms_on("n0") == ("a.vm0", "a.vm1")
    before = _trial_reads(trial, names)

    # b.vm1 and b.vm2 land on n1 before b.vm0 finds no CPU left anywhere.
    assert ffd.ffd_commit(trial, b) is None
    assert _trial_reads(trial, names) == before
    assert not any(trial.has_vm(vm.name) for vm in b)

    assert ffd.ffd_commit(trial, c) == {"c.vm0": "n1"}
    assert list(trial.placement()) == ["a.vm0", "a.vm1", "c.vm0"]

    selection = rjsp.select_running_vjobs(configuration, queue)
    assert (selection.accepted, selection.rejected) == (["a", "c"], ["b"])
    assert list(selection.trial_placement.items()) == [
        ("a.vm0", "n0"),
        ("a.vm1", "n0"),
        ("c.vm0", "n1"),
    ]

