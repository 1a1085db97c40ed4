"""Differential testing of the indexed Configuration against the naive oracle.

PR 10 replaced every hot ``Configuration`` read with columnar caches —
per-node load columns, running-set and suspend-image indices, a dirty set
feeding O(changed) incremental viability.  The caches are invisible by
construction, and this suite is the proof: Hypothesis drives an indexed
:class:`~repro.model.Configuration` and the ``NaiveConfiguration`` retained
in ``reference_configuration.py`` next to this file (the pre-index dict-walk
implementations) in lockstep through random mutation sequences —
add / take back the last registration / place / re-enter the placement map
in a given order / migrate / sleep / terminate / demand churn / crash-evict
/ node re-add, and forks (a copy that goes on being mutated beside its
original: the two share their per-node running sets until one of them
changes a node) — and asserts after *every* step that

* ``usage_of`` / ``free_capacity`` / ``total_usage`` / ``total_capacity``,
* ``viability_violations`` (and ``only_dirty=True`` against the full scan),
* ``placement()`` / ``vms_on`` / ``images_on`` / ``states()``

never diverge, and that an operation raising on one side raises the same
error on the other.  The drawn sequences also mark the indexed side (its
change journal): from a mark on, a reference that diffs the oracle's full
snapshot at the mark against its snapshot now must name no VM the journal
leaves out, and the journal no VM the ops since the mark did not write —
on each side of a fork, whichever side was marked.

The overlay lockstep holds an :class:`~repro.model.overlay.Overlay` against a
copy of the same base: after the same assignment writes, with the base
written in between, every read the overlay serves equals the same read of
the copy — orders included — and the base reads as it did.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.model import (
    Configuration,
    ModelError,
    Node,
    Overlay,
    VirtualMachine,
    VMState,
)
from repro.sim.faults import evict_node

from reference_configuration import NaiveConfiguration

MEMORY_CHOICES = (256, 512, 1024)
NODE_MEMORY = 2048
MAX_NODES = 5
MAX_VMS = 8

#: Op kinds the sequences draw from; each op carries small integer operands
#: resolved against the *current* node/VM name universe at apply time, so a
#: drawn sequence stays meaningful as nodes crash and come back.
OPS = (
    "add_vm",
    "set_running",
    "migrate",
    "set_sleeping",
    "set_waiting",
    "set_terminated",
    "churn_demand",
    "crash_evict",
    "remove_node",
    "re_add_node",
    "fork",
    "mark",
)


@st.composite
def mutation_sequences(draw):
    node_count = draw(st.integers(min_value=2, max_value=MAX_NODES))
    vm_count = draw(st.integers(min_value=1, max_value=MAX_VMS))
    vms = [
        (
            f"vm{i}",
            draw(st.sampled_from(MEMORY_CHOICES)),
            draw(st.integers(min_value=0, max_value=2)),
        )
        for i in range(vm_count)
    ]
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.integers(min_value=0, max_value=31),
                st.integers(min_value=0, max_value=31),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return node_count, vms, ops


def _build(cls, node_count, vms):
    configuration = cls(
        nodes=[
            Node(name=f"node-{i}", cpu_capacity=2, memory_capacity=NODE_MEMORY)
            for i in range(node_count)
        ]
    )
    for name, memory, cpu in vms:
        configuration.add_vm(
            VirtualMachine(name=name, memory=memory, cpu_demand=cpu)
        )
    return configuration


def _apply(configuration, op, a, b, node_universe, vm_universe):
    """Apply one drawn op; returns the exception type raised (or None)."""
    kind = op
    node = node_universe[a % len(node_universe)]
    vm = vm_universe[b % len(vm_universe)]
    try:
        if kind == "add_vm":
            configuration.add_vm(
                VirtualMachine(
                    name=f"extra{a}", memory=MEMORY_CHOICES[b % 3],
                    cpu_demand=a % 3,
                )
            )
        elif kind == "set_running":
            configuration.set_running(vm, node)
        elif kind == "migrate":
            configuration.migrate(vm, node)
        elif kind == "set_sleeping":
            configuration.set_sleeping(vm)
        elif kind == "set_waiting":
            configuration.set_waiting(vm)
        elif kind == "set_terminated":
            configuration.set_terminated(vm)
        elif kind == "churn_demand":
            current = configuration.vm(vm)
            configuration.replace_vm(current.with_cpu_demand(a % 4))
        elif kind == "crash_evict":
            evict_node(configuration, node)
        elif kind == "remove_node":
            configuration.remove_node(node)
        elif kind == "re_add_node":
            configuration.add_node(
                Node(name=node, cpu_capacity=2, memory_capacity=NODE_MEMORY)
            )
    except Exception as error:  # noqa: BLE001 - symmetry is the assertion
        return type(error)
    return None


def _written_by(configuration, op, a, b, node_universe, vm_universe):
    """The VMs ``op`` would write the state, host or image of (a superset:
    an op that turns out a no-op still names its VM)."""
    node = node_universe[a % len(node_universe)]
    vm = vm_universe[b % len(vm_universe)]
    if op == "add_vm":
        return {f"extra{a}"}
    if op in ("set_running", "migrate", "set_sleeping", "set_waiting", "set_terminated"):
        return {vm}
    if op == "crash_evict" and configuration.has_node(node):
        return {*configuration.vms_on(node), *configuration.images_on(node)}
    return set()


def _snapshot(configuration):
    """Every VM's state, host and suspend image."""
    return {
        vm: (
            configuration.state_of(vm),
            configuration.location_of(vm),
            configuration.image_location_of(vm),
        )
        for vm in configuration.vm_names
    }


def _assert_journal(indexed: Configuration, naive: NaiveConfiguration, journal):
    """The journal names every VM a diff of the full snapshots names, and
    only VMs the ops since the mark wrote."""
    if journal is None:
        return
    mark, before, written = journal
    named = indexed.written_since(mark)
    assert named is not None
    after = _snapshot(naive)
    diff = {vm for vm in {*before, *after} if before.get(vm) != after.get(vm)}
    assert diff <= named <= written


def _assert_equivalent(indexed: Configuration, naive: NaiveConfiguration):
    assert indexed.node_names == naive.node_names
    assert indexed.vm_names == naive.vm_names
    assert indexed.placement() == naive.placement()
    assert indexed.states() == naive.states()
    assert indexed.total_usage() == naive.total_usage()
    assert indexed.total_capacity() == naive.total_capacity()
    for node in indexed.node_names:
        assert indexed.usage_of(node) == naive.usage_of(node)
        assert indexed.free_capacity(node) == naive.free_capacity(node)
        assert indexed.vms_on(node) == naive.vms_on(node)
        assert indexed.images_on(node) == naive.images_on(node)
    # The bulk reads of a decision, against the oracle's per-VM reads; an
    # unregistered name is skipped, an unregistered VM described as given.
    names = [*reversed(naive.vm_names), "unregistered"]
    assert indexed.running_among(names) == [
        name for name in names[:-1] if naive.state_of(name) is VMState.RUNNING
    ]
    stranger = VirtualMachine("unregistered", memory=256)
    assert indexed.described([*naive.vms, stranger]) == (
        *map(naive.vm, naive.vm_names),
        stranger,
    )
    # Incremental first: if the dirty bookkeeping ever went stale the
    # incremental list would diverge from the naive full recomputation.
    incremental = indexed.viability_violations(only_dirty=True)
    full = indexed.viability_violations()
    assert incremental == full
    assert full == naive.viability_violations()
    assert indexed.is_viable() == naive.is_viable()


def _run_lockstep(sequence):
    node_count, vms, ops = sequence
    indexed = _build(Configuration, node_count, vms)
    naive = _build(NaiveConfiguration, node_count, vms)
    # The name universes never shrink: crashed nodes stay addressable so
    # re_add_node (and errors on evicted nodes) are exercised.
    node_universe = [f"node-{i}" for i in range(node_count)]
    vm_universe = [name for name, _, _ in vms] + [
        f"extra{a}" for a in range(32)
    ]
    #: The other side of the last fork: a copy (and the oracle's copy, whose
    #: reads never look at the shared sets) mutated in turn with its
    #: original, so a change leaking across the fork shows on either side.
    fork = None
    #: Per side, since its last mark: the mark, the oracle's snapshot at
    #: the mark and the VMs the ops wrote since (``None``: never marked).
    journal = None
    for step, (kind, a, b) in enumerate(ops):
        if kind == "fork":
            copied = None
            if journal is not None:
                copied = (journal[0], journal[1], set(journal[2]))
            fork = (indexed.copy(), naive.copy(), copied)
        elif kind == "mark":
            old = journal
            journal = (indexed.mark(), _snapshot(naive), set())
            if old is not None:
                assert indexed.written_since(old[0]) is None
            if fork is not None:
                # The fork was copied before this mark: it does not descend
                # from it.
                assert fork[0].written_since(journal[0]) is None
        else:
            if fork is not None and step % 2:
                (indexed, naive, journal), fork = fork, (indexed, naive, journal)
            written = _written_by(naive, kind, a, b, node_universe, vm_universe)
            raised_indexed = _apply(
                indexed, kind, a, b, node_universe, vm_universe
            )
            raised_naive = _apply(naive, kind, a, b, node_universe, vm_universe)
            assert raised_indexed == raised_naive, (
                f"op {kind} diverged: indexed raised {raised_indexed}, "
                f"naive raised {raised_naive}"
            )
            if journal is not None and raised_naive is None:
                journal[2].update(written)
        _assert_equivalent(indexed, naive)
        _assert_journal(indexed, naive, journal)
        if fork is not None:
            _assert_equivalent(*fork[:2])
            _assert_journal(*fork)
    # A copy must carry consistent caches too.
    _assert_equivalent(indexed.copy(), naive)


#: Marks, forks and every journaled mutator on VMs that exist: drawn
#: operands mostly name VMs that do not.
_JOURNALED_FORKS = (
    3,
    [("vm0", 256, 1), ("vm1", 512, 0)],
    [
        ("set_running", 0, 0),
        ("set_running", 1, 1),
        ("mark", 0, 0),
        ("fork", 0, 0),
        ("migrate", 2, 0),
        ("migrate", 2, 1),
        ("set_sleeping", 0, 1),
        ("mark", 0, 0),
        ("add_vm", 3, 0),
        ("crash_evict", 2, 0),
        ("set_waiting", 0, 1),
        ("fork", 0, 0),
        ("set_terminated", 0, 0),
        ("re_add_node", 2, 0),
        ("set_running", 2, 1),
        ("set_running", 2, 1),
    ],
)


@settings(max_examples=225, deadline=None)
@given(mutation_sequences())
@example(_JOURNALED_FORKS)
def test_indexed_configuration_matches_naive_oracle(sequence):
    _run_lockstep(sequence)


def test_crash_evict_under_churn_never_leaves_stale_loads():
    """Satellite regression: ``remove_node`` / fault eviction must drop the
    victim's cached column slot and dirty its co-resident bookkeeping, so a
    node re-added under the same name starts from a clean slate and the
    incremental scan never reports a load that died with the crash."""
    configuration = Configuration(
        nodes=[
            Node(name=f"node-{i}", cpu_capacity=2, memory_capacity=2048)
            for i in range(3)
        ]
    )
    for i in range(6):
        configuration.add_vm(
            VirtualMachine(name=f"vm{i}", memory=512, cpu_demand=1)
        )
        configuration.set_running(f"vm{i}", f"node-{i % 3}")
    # Overload node-0, observe it incrementally.
    configuration.replace_vm(
        configuration.vm("vm0").with_cpu_demand(2)
    )
    configuration.replace_vm(
        configuration.vm("vm3").with_cpu_demand(2)
    )
    assert [
        v.node for v in configuration.viability_violations(only_dirty=True)
    ] == ["node-0"]
    # Crash it mid-churn: the violation must vanish from the incremental
    # view immediately (the cached overload entry dies with the node).
    eviction = evict_node(configuration, "node-0")
    assert set(eviction.displaced_vms) == {"vm0", "vm3"}
    assert configuration.viability_violations(only_dirty=True) == []
    # Re-add the same name with a *smaller* capacity: the fresh node must
    # start empty (no stale usage), and new placements must account from
    # zero.
    configuration.add_node(
        Node(name="node-0", cpu_capacity=1, memory_capacity=1024)
    )
    assert configuration.usage_of("node-0").as_tuple() == (0, 0)
    assert configuration.vms_on("node-0") == ()
    configuration.set_running("vm0", "node-0")
    configuration.set_running("vm3", "node-0")
    incremental = configuration.viability_violations(only_dirty=True)
    assert [v.node for v in incremental] == ["node-0"]
    assert incremental == configuration.viability_violations()
    # And the displaced VM's old co-resident node accounts correctly after
    # the churn (vm0/vm3 left node-0's load behind exactly once).
    naive = NaiveConfiguration()
    for node in configuration.nodes:
        naive.add_node(node)
    for vm in configuration.vms:
        naive.add_vm(vm)
    for vm_name, host in configuration.placement().items():
        naive.set_running(vm_name, host)
    for node in configuration.node_names:
        assert configuration.usage_of(node) == naive.usage_of(node)


@pytest.mark.slow
def test_large_fleet_incremental_viability_matches_full(large_fleet_factory):
    """20k-VM smoke of the same equivalence (CI slow lane)."""
    configuration = large_fleet_factory(20_000)
    configuration.viability_violations()  # drain construction dirtiness
    names = configuration.vm_names[:200]
    for index, name in enumerate(names):
        vm = configuration.vm(name)
        configuration.replace_vm(vm.with_cpu_demand((index % 3)))
    incremental = configuration.viability_violations(only_dirty=True)
    assert incremental == configuration.viability_violations()


# ---------------------------------------------------------------------- #
# overlays                                                                #
# ---------------------------------------------------------------------- #

#: The writes an overlay takes: every assignment write of an action, and
#: marks.
OVERLAY_OPS = (
    "set_running",
    "migrate",
    "set_sleeping",
    "set_waiting",
    "set_terminated",
    "mark",
    "base",
)


@st.composite
def overlay_sequences(draw):
    """A base built by drawn ops, whether it is marked, and the ops that
    follow on the overlay and the copy (``base``: the next drawn op goes to
    the base instead)."""
    node_count, vms, setup = draw(mutation_sequences())
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(OVERLAY_OPS),
                st.integers(min_value=0, max_value=31),
                st.integers(min_value=0, max_value=31),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return node_count, vms, setup, draw(st.booleans()), ops


def _reads(configuration, vm_universe):
    """Every read an overlay serves, as one comparable value (each list
    keeps the order the read answers in)."""
    names = configuration.vm_names
    nodes = configuration.node_names
    probe = configuration.vms[0] if names else None
    return {
        "nodes": (nodes, configuration.nodes),
        "vms": (names, configuration.vm_count, configuration.vms),
        "placement": list(configuration.placement().items()),
        "states": list(configuration.states().items()),
        "per vm": [
            (
                configuration.state_of(vm),
                configuration.location_of(vm),
                configuration.image_location_of(vm),
            )
            for vm in names
        ],
        "hosts": (
            configuration.hosts_of(vm_universe),
            configuration.hosts_of(vm for vm in reversed(vm_universe)),
        ),
        "described": configuration.described(configuration.vms),
        "loads": list(configuration.load_by_host(vm_universe).items()),
        "order": configuration.in_registration_order(reversed(names)),
        "per node": [
            (
                configuration.free_capacity(node),
                configuration.vms_on(node),
                probe is not None and configuration.can_host(node, probe),
            )
            for node in nodes
        ],
    }


def _assert_reads_alike(overlay, copy, vm_universe, marks):
    assert _reads(overlay, vm_universe) == _reads(copy, vm_universe)
    assert overlay.same_assignment(copy) and copy.same_assignment(overlay)
    assert overlay == copy
    for overlay_mark, copy_mark in marks:
        assert overlay.written_since(overlay_mark) == copy.written_since(copy_mark)


def _run_overlay_lockstep(sequence):
    node_count, vms, setup, marked, ops = sequence
    base = _build(Configuration, node_count, vms)
    node_universe = [f"node-{i}" for i in range(node_count)]
    vm_universe = [name for name, _, _ in vms] + [f"extra{a}" for a in range(32)]
    for kind, a, b in setup:
        if kind not in ("fork", "mark"):
            _apply(base, kind, a, b, node_universe, vm_universe)
    #: (the overlay's mark, the copy's), one pair per mark taken.
    marks = [(base.mark(),) * 2] if marked else []
    if marked:
        # Writes after the mark, before the overlay: its journal starts
        # from the base's.
        for kind, a, b in setup[-3:]:
            if kind not in ("fork", "mark", "remove_node", "crash_evict"):
                _apply(base, kind, a, b, node_universe, vm_universe)
    overlay, copy = Overlay(base), base.copy()
    # A decision's read, which no plan walk makes: refused like the others.
    with pytest.raises(AttributeError):
        overlay.running_among(vm_universe)
    before = _reads(base, vm_universe)
    _assert_reads_alike(overlay, copy, vm_universe, marks)
    to_base = False
    for kind, a, b in ops:
        if kind == "base":
            to_base = True
            continue
        if to_base:
            # The base's own writes reach neither the overlay nor the copy.
            to_base = False
            if kind in OPS:
                _apply(base, kind, a, b, node_universe, vm_universe)
            before = _reads(base, vm_universe)
        elif kind == "mark":
            marks.append((overlay.mark(), copy.mark()))
            assert copy.written_since(marks[-1][0]) is None
        else:
            raised = _apply(overlay, kind, a, b, node_universe, vm_universe)
            assert raised == _apply(copy, kind, a, b, node_universe, vm_universe)
        _assert_reads_alike(overlay, copy, vm_universe, marks)
        assert _reads(base, vm_universe) == before


#: A marked base with a sleeping VM and a placement order to keep: the
#: overlay migrates, resumes the sleeping VM, suspends and stops, around a
#: write of the base.
_OVERLAY_WALK = (
    3,
    [("vm0", 256, 1), ("vm1", 512, 0), ("vm2", 256, 1)],
    [
        ("set_running", 1, 1),
        ("set_sleeping", 0, 1),
        ("set_running", 0, 0),
        ("set_running", 0, 2),
    ],
    True,
    [
        ("migrate", 2, 0),
        ("set_running", 1, 1),
        ("base", 0, 0),
        ("set_waiting", 0, 2),
        ("set_sleeping", 0, 0),
        ("mark", 0, 0),
        ("set_running", 2, 2),
        ("set_terminated", 0, 1),
    ],
)

#: Two VMs that enter the placement on the overlay, the first of them
#: leaving and entering again: the placement lists it last.
_OVERLAY_REENTRY = (
    2,
    [("vm0", 256, 0), ("vm1", 256, 0)],
    [],
    False,
    [
        ("set_running", 0, 0),
        ("set_running", 0, 1),
        ("set_waiting", 0, 0),
        ("set_running", 0, 0),
    ],
)


@settings(max_examples=200, deadline=None)
@given(overlay_sequences())
@example(_OVERLAY_WALK)
@example(_OVERLAY_REENTRY)
def test_an_overlay_reads_as_a_copy_written_the_same_way(sequence):
    _run_overlay_lockstep(sequence)


def test_an_overlay_takes_assignment_writes_only():
    base = _build(Configuration, 2, [("vm0", 256, 1)])
    base.set_running("vm0", "node-0")
    overlay = Overlay(base)
    vm = base.vm("vm0")
    for write in (
        lambda: overlay.add_vm(VirtualMachine(name="vm1", memory=256)),
        lambda: overlay.replace_vm(vm.with_cpu_demand(2)),
        lambda: overlay.add_node(Node(name="node-9", cpu_capacity=1, memory_capacity=1)),
        lambda: overlay.remove_node("node-1"),
        overlay.copy,
        lambda: Overlay(overlay),
    ):
        with pytest.raises((ModelError, TypeError)):
            write()
    assert overlay.vm_names == ("vm0",) and overlay.node_names == ("node-0", "node-1")
    # The base is frozen, not locked: its next write takes maps of its own.
    base.migrate("vm0", "node-1")
    assert overlay.location_of("vm0") == "node-0"

