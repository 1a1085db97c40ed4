"""The control loop flags nothing the repair engine does not already read.

The loop hands a round the observed configuration and nothing else: the
repair engines derive each perturbation from it (the dirty rule's arrivals
and crash victims — VMs wanted running that do not run — and its diverged
or misplaced VMs — an aborted migration left on its source, the member of
a breached ``Fence`` or ``Ban`` outside its domain).  ``MarkingLoop`` keeps
the loop's former record of those VMs as a test-side reference: it flags,
through ``switcher.mark_dirty``, the arrivals, the crash victims' vjobs,
the aborted migrations and the members of every constraint the settled
configuration breaks, before every plan.  Run for run, its result must be
the plain loop's, byte for byte (the trace aside).

One difference is known and kept: the reference flags *every* member of a
breached constraint, where the engine frees the members its unary domain
no longer holds (a unary constraint restricts each member on its own), so
the others stay frozen.  A run whose reference flagged a breach is held
against ``OutsideMarkingLoop``, which flags those members only;
``test_a_breached_fence_frees_its_escaped_member_only`` pins one such run.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import FaultSchedule, Scenario
from repro.api.loop import ControlLoop
from repro.constraints import Ban, Fence, Spread
from repro.constraints.checker import check_configuration
from repro.constraints.domains import vm_domains
from repro.core.actions import ActionKind
from repro.model import make_working_nodes
from repro.sim.faults import FaultInjector
from repro.testing import make_workload
from repro.workloads import ChurnGenerator, ProblemClass

from test_loop_tick import _scenario as _tick_scenario

ENGINES = ("repair", "repair-partitioned")


class MarkingLoop(ControlLoop):
    """The loop plus an explicit record of what each round perturbed,
    handed to the switch after every decide."""

    def __init__(self, *args, **kwargs):
        self.perturbed: set[str] = set()
        self.flagged = 0
        #: Breached constraints the watchdog step flagged members of.
        self.breaches = 0
        super().__init__(*args, **kwargs)

    def _breach_members(self, constraint):
        return constraint.vms

    def _submit_pending(self, now):
        arriving = [w for w in self.workloads if w.vjob.name not in self.queue]
        super()._submit_pending(now)
        for workload in arriving:
            if workload.vjob.name in self.queue:
                self.perturbed.update(workload.vjob.vm_names)

    def _crash_node(self, node_name, crash_time):
        repaired = super()._crash_node(node_name, crash_time)
        for name in repaired:
            self.perturbed.update(self.queue.get(name).vm_names)
        return repaired

    def _record_migration_faults(self, execution, result):
        self.perturbed.update(
            failure.action.vm
            for failure in execution.failures
            if failure.action.kind is ActionKind.MIGRATE
            and failure.reason == "migration-fault"
        )
        return super()._record_migration_faults(execution, result)

    def _record_configuration_violations(self, time, result):
        super()._record_configuration_violations(time, result)
        breached = {
            violation.constraint
            for violation in check_configuration(
                self.cluster.configuration, self.constraints
            )
        }
        for constraint in self.constraints:
            if constraint.label in breached:
                self.perturbed.update(self._breach_members(constraint))
                self.breaches += 1

    def _decide(self, index, now):
        decision = super()._decide(index, now)
        if self.perturbed:
            self.switcher.mark_dirty(sorted(self.perturbed))
            self.flagged += len(self.perturbed)
            self.perturbed.clear()
        return decision


class OutsideMarkingLoop(MarkingLoop):
    """The reference, but a breached constraint flags its running members
    outside their unary domain only."""

    def _breach_members(self, constraint):
        configuration = self.cluster.configuration
        running = [vm for vm in constraint.vms if configuration.location_of(vm)]
        domains = vm_domains(configuration, running, [constraint])
        return [
            vm
            for vm in running
            if domains[vm] is not None
            and configuration.location_of(vm) not in domains[vm]
        ]


def _document(loop):
    document = loop.run().to_dict()
    document.pop("trace", None)
    return json.dumps(document, sort_keys=True)


def _lockstep(build, reference=MarkingLoop):
    """Run what ``build()`` makes — a scenario and its operator command
    queue, if any — through the plain loop and ``reference``; returns the
    plain document, the reference loop and its document."""
    scenario, commands = build()
    plain = _document(scenario.build(command_queue=commands))
    scenario, commands = build()
    loop = reference(
        nodes=scenario.nodes,
        workloads=scenario.workloads,
        policy=scenario.policy,
        optimizer_timeout=scenario.optimizer_timeout,
        engine=scenario.engine,
        max_time=scenario.max_time,
        observers=scenario.observers,
        fault_injector=FaultInjector(scenario.faults),
        constraints=scenario.constraints,
        command_queue=commands,
    )
    return plain, loop, _document(loop)


def _fenced_fleet(seed, engine):
    """A small fenced fleet: two elastic fences over six 4-cpu nodes, a
    churn stream of 2- and 3-VM vjobs, one node crash and aborted
    migrations."""

    def build():
        draw = random.Random(seed)
        nodes = make_working_nodes(6, cpu_capacity=4, memory_capacity=8192)
        names = [node.name for node in nodes]
        workloads = ChurnGenerator(
            seed=seed,
            mean_interarrival_s=20.0,
            vm_count_choices=(2, 3),
            memory_choices=(1024, 2048),
            problem_classes=(ProblemClass.W, ProblemClass.A),
        ).workloads(draw.randint(6, 9))
        fences = [
            Fence(
                [
                    vm
                    for position, workload in enumerate(workloads)
                    if position % 2 == side
                    for vm in workload.vjob.vm_names
                ],
                names[side * 3 : side * 3 + 3],
                elastic=True,
            )
            for side in (0, 1)
        ]
        faults = FaultSchedule(
            migration_failure_rate=draw.choice((0.2, 0.5)), seed=seed
        ).node_crash(draw.choice(names), at=draw.choice((60.0, 120.0, 180.0)))
        return Scenario(
            nodes=nodes,
            workloads=workloads,
            policy="consolidation",
            engine=engine,
            optimizer_timeout=5.0,
            max_time=6 * 3600.0,
            constraints=fences,
            faults=faults,
        ), None

    return build


def _ha_maintenance(engine):
    """The ``examples/ha_maintenance.py`` story: a ``Spread`` database
    inside an elastic ``Fence``, a drained node (``Ban``), churn arrivals
    and a fence node crash."""

    def build():
        database = make_workload("db", vm_count=2, duration=300.0)
        churn = ChurnGenerator(
            seed=11,
            mean_interarrival_s=60.0,
            vm_count_choices=(2, 3),
            problem_classes=(ProblemClass.W,),
        ).workloads(3)
        workloads = [database, *churn]
        every_vm = [vm for w in workloads for vm in w.vjob.vm_names]
        return Scenario(
            nodes=make_working_nodes(5, cpu_capacity=2, memory_capacity=3584),
            workloads=workloads,
            policy="consolidation",
            engine=engine,
            optimizer_timeout=10.0,
            max_time=4 * 3600.0,
            faults=FaultSchedule().node_crash("node-2", at=150.0),
            constraints=[
                Spread(["db.vm0", "db.vm1"]),
                Fence(
                    ["db.vm0", "db.vm1"], ["node-1", "node-2", "node-3"], elastic=True
                ),
                Ban(every_vm, ["node-0"]),
            ],
        ), None

    return build


@pytest.mark.parametrize("engine", ENGINES)
def test_the_scripted_tick_runs_the_same_without_the_loop_marks(engine):
    """The loop tick's scripted run breaches a ``Ban`` with an explicit
    target, aborts a scripted migration and crashes a node: every marking
    site of the reference flags something."""
    plain, loop, marked = _lockstep(lambda: _tick_scenario(engine))
    result = json.loads(plain)
    assert [f["kind"] for f in result["faults"]] == [
        "migration_failure",
        "node_crash",
    ]
    assert "configuration" in {v["phase"] for v in result["constraint_violations"]}
    assert loop.flagged > 0
    assert marked == plain


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_fenced_fleets_run_the_same_without_the_loop_marks(engine, seed):
    plain, loop, marked = _lockstep(_fenced_fleet(seed, engine))
    assert loop.flagged > 0  # arrivals at least: the reference flagged
    if loop.breaches:
        # The known difference (module docstring): hold the run against
        # the reference that flags what the engine frees.
        plain, loop, marked = _lockstep(
            _fenced_fleet(seed, engine), OutsideMarkingLoop
        )
        assert loop.breaches
    assert marked == plain


@pytest.mark.parametrize("engine", ENGINES)
def test_the_ha_maintenance_story_runs_the_same_without_the_loop_marks(engine):
    plain, loop, marked = _lockstep(_ha_maintenance(engine))
    result = json.loads(plain)
    # The story reaches every marking site but the aborted migration: the
    # crash, the arrivals and the repair engine's rounds.
    assert [f["kind"] for f in result["faults"]] == ["node_crash"]
    assert result["metadata"]["repair_engine"]["repair_rounds"] > 0
    assert loop.flagged > 0
    assert marked == plain


def test_the_fenced_fleets_reach_every_marking_site():
    """The drawn fleets are not vacuous: a fixed one crashes a node that
    hosts running VMs, aborts migrations and repairs in place."""
    _, _, marked = _lockstep(_fenced_fleet(4, "repair"))
    result = json.loads(marked)
    kinds = [f["kind"] for f in result["faults"]]
    assert "node_crash" in kinds and "migration_failure" in kinds
    assert any(f["affected_vjobs"] for f in result["faults"])
    assert result["metadata"]["repair_engine"]["repair_rounds"] > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_a_breached_fence_frees_its_escaped_member_only(engine):
    """A fleet whose aborted migration leaves a VM outside its shrunken
    ``Fence``: the reference flags the whole group, the engine frees the
    escaped VM and keeps the rest frozen.  The plans agree; the repair
    telemetry tells the two apart."""
    plain, loop, marked = _lockstep(_fenced_fleet(40, engine))
    plain, marked = json.loads(plain), json.loads(marked)
    assert loop.breaches > 0
    assert "configuration" in {v["phase"] for v in plain["constraint_violations"]}
    assert plain["switches"] == marked["switches"]
    assert plain["completion_times"] == marked["completion_times"]
    freed = plain["metadata"]["repair_engine"]["dirty_vms_total"]
    assert marked["metadata"]["repair_engine"]["dirty_vms_total"] > freed
    _, loop, outside = _lockstep(_fenced_fleet(40, engine), OutsideMarkingLoop)
    assert loop.breaches > 0
    assert json.loads(outside) == plain
