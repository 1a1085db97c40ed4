"""The greedy packers read the shared domain function — same decisions.

:class:`repro.constraints.CandidateFilter` used to answer "may v go on n" by
asking *every* constraint's ``allows`` for every node FFD probed; it now
hands the packer the VM's :func:`~repro.constraints.vm_domains` entry (in the
packer's own node order) and asks ``allows`` of the relational constraints
only, and ``Ban`` / ``Fence`` no longer have an ``allows`` at all.
Goldens and the audit replay need the *same* decisions, byte for byte, so
the property runs the three entry points that pack greedily —
:func:`~repro.decision.rjsp.select_running_vjobs`,
:func:`~repro.decision.ffd.ffd_target_configuration` and
:meth:`~repro.decision.fcfs.FCFSDecisionModule.decide` — once as shipped and
once against a test-local filter that keeps the per-probe sweep (with copies
of the deleted bodies), over random fleets under catalogs of all four
relations: strict fences naming a dead node, elastic ones a crash shrank,
one-node fences pinning VMs where they run, vjobs the observed configuration
does not know yet.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.constraints import Ban, Fence, RunningCapacity, Spread
from repro.decision import consolidation, fcfs, ffd, rjsp
from repro.model.configuration import Configuration
from repro.model.node import Node
from repro.model.queue import VJobQueue
from repro.model.vjob import VJob, VJobState
from repro.model.vm import VirtualMachine


def _allows(constraint, vm_name, node_name, trial):
    """``constraint.allows`` as every relation answered it before the unary
    ones were folded into ``allowed_nodes``."""
    if isinstance(constraint, Ban):
        return vm_name not in constraint.vm_set or node_name not in constraint.nodes
    if isinstance(constraint, Fence):
        return vm_name not in constraint.vm_set or node_name in constraint.nodes
    return constraint.allows(vm_name, node_name, trial)


class PerProbeFilter:
    """The historical filter: no domain, every constraint asked per probe."""

    def __init__(self, constraints, reference, domains=None):
        self._constraints = tuple(constraints)

    def domain(self, vm_name):
        return None

    def candidates(self, vm_name, node_names):
        return node_names

    def __call__(self, vm_name, node_name, trial):
        return all(
            _allows(constraint, vm_name, node_name, trial)
            for constraint in self._constraints
        )


@contextlib.contextmanager
def _per_probe():
    """Swap the oracle in wherever a filter is built: the selection and the
    FFD target called with ``constraints=``, and the policies' one filter
    per decision (``ConstraintAwarePolicy.node_filter``, FCFS included)."""
    with contextlib.ExitStack() as stack:
        for module in (rjsp, ffd, consolidation):
            stack.enter_context(
                mock.patch.object(module, "CandidateFilter", PerProbeFilter)
            )
        yield


@st.composite
def constrained_rounds(draw):
    node_count = draw(st.integers(min_value=3, max_value=5))
    nodes = [f"n{i}" for i in range(node_count)]
    # Some small nodes fill after a VM or two, so the first-fit cursors of
    # the packer skip them.
    configuration = Configuration(
        nodes=[
            Node(
                name=name,
                cpu_capacity=draw(st.sampled_from((1, 2, 2))),
                memory_capacity=draw(st.sampled_from((1024, 2048, 2048))),
            )
            for name in nodes
        ]
    )
    # A few demand classes, so later VMs share the cursors of earlier ones;
    # a VM that needs a whole node often fails its vjob after its smaller
    # siblings were placed.
    memories = draw(
        st.sampled_from(((512,), (256, 1024), (256, 2048), (256, 512, 1024)))
    )
    queue = VJobQueue()
    vms: list[str] = []
    for index in range(draw(st.integers(min_value=2, max_value=6))):
        members = [
            VirtualMachine(
                name=f"j{index}.vm{i}",
                memory=draw(st.sampled_from(memories)),
                cpu_demand=draw(st.integers(min_value=0, max_value=1)),
                vjob=f"j{index}",
            )
            for i in range(draw(st.integers(min_value=1, max_value=4)))
        ]
        vms.extend(vm.name for vm in members)
        # "unknown": submitted, but not yet part of the observed
        # configuration — the filter resolves such VMs on first use.
        kind = draw(
            st.sampled_from(("waiting", "waiting", "running", "sleeping", "unknown"))
        )
        vjob = VJob(
            name=f"j{index}",
            vms=members,
            priority=draw(st.integers(min_value=0, max_value=2)),
            submitted_at=float(draw(st.integers(min_value=0, max_value=3))),
        )
        if kind == "unknown":
            queue.submit(vjob)
            continue
        for vm in members:
            configuration.add_vm(vm)
            host = draw(st.sampled_from(nodes))
            # A running vjob may have a straggler still waiting for a host.
            if kind == "running" and draw(st.integers(0, 3)):
                configuration.set_running(vm.name, host)
            elif kind == "sleeping":
                configuration.set_sleeping(vm.name, host)
        if kind == "running":
            vjob.state = VJobState.RUNNING
        elif kind == "sleeping":
            vjob.state = VJobState.SLEEPING
        queue.submit(vjob)

    def some(items, min_size=1):
        return draw(
            st.lists(
                st.sampled_from(items),
                min_size=min_size,
                max_size=len(items),
                unique=True,
            )
        )

    # A strict fence keeps a crashed node in its set: node sets may name it.
    named = nodes + ["dead"]
    constraints = []
    for kind in draw(
        st.lists(
            st.sampled_from(
("spread", "ban", "fence", "shrunk", "pin", "running-capacity")
            ),
            max_size=5,
        )
    ):
        if kind == "spread":
            constraints.append(
                Spread(
                    some(vms, min_size=2),
                    collocation_nodes=draw(
                        st.lists(st.sampled_from(nodes), max_size=1)
                    ),
                )
            )
        elif kind == "ban":
            constraints.append(Ban(some(vms), some(named)))
        elif kind == "fence":
            constraints.append(Fence(some(vms), some(named)))
        elif kind == "shrunk":
            fence = Fence(some(vms), some(named, min_size=2), elastic=True)
            constraints.append(
                fence.on_node_failure(draw(st.sampled_from(sorted(fence.nodes))))
            )
        elif kind == "pin":
            # One-node fences: where the VM runs, if it runs.
            for vm in some(vms):
                running = configuration.has_vm(vm) and configuration.location_of(vm)
                host = running or draw(st.sampled_from(named))
                constraints.append(Fence([vm], [host]))
        else:
            constraints.append(
                RunningCapacity(
                    some(named), draw(st.integers(min_value=0, max_value=3))
                )
            )

    demands = None
    if draw(st.booleans()):
        demands = {
            name: draw(st.integers(min_value=0, max_value=2))
            for name in draw(st.lists(st.sampled_from(vms), unique=True))
        }
    backfilling = draw(st.sampled_from(("none", "easy")))
    return configuration, queue, demands, constraints, backfilling


def _decisions(configuration, queue, demands, constraints, backfilling):
    """Everything the three greedy entry points decide, dict *orders*
    included (placements are replayed in insertion order)."""
    selection = rjsp.select_running_vjobs(
        configuration, queue, demands, constraints=constraints
    )
    target = ffd.ffd_target_configuration(
        configuration, selection.vm_states, constraints=constraints
    )
    booking = fcfs.FCFSDecisionModule(
        backfilling=backfilling, constraints=constraints
    ).decide(configuration, queue, demands)
    return (
        list(selection.vjob_states.items()),
        list(selection.vm_states.items()),
        list(selection.trial_placement.items()),
        selection.accepted,
        selection.rejected,
        target
        and (list(target.placement().items()), list(target.states().items())),
        list(booking.vm_states.items()),
        list(booking.vjob_states.items()),
        list(booking.metadata["trial_placement"].items()),
    )


@settings(max_examples=200, deadline=None)
@given(constrained_rounds())
def test_domain_filtered_packing_matches_the_per_probe_sweep(round_inputs):
    shipped = _decisions(*round_inputs)
    with _per_probe():
        swept = _decisions(*round_inputs)
    assert shipped == swept
