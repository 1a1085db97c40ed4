"""Drive one workload: set it up, run its operations one after another
(one closed-loop client), time each round, and check every plan.

A *pass* is one run over a workload's operations.  ``--trace 0`` makes one
pass on the bare program.  ``--trace 1`` makes two over a third of the
operations: one bare (so tracing overhead has a base on the same rounds),
one under a :class:`repro.obs.Tracer` with the switch wrapped in
:class:`probe.ProbedSwitch`.  Both modes execute the same driver code: the
``bench.*`` spans below are no-ops without a tracer.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import Scenario
from repro.api.decision import Decision, needs_switch
from repro.api.events import LoopObserver
from repro.constraints.checker import check_configuration
from repro.core.context_switch import ClusterContextSwitch
from repro.core.cost import plan_cost
from repro.decision import ConsolidationDecisionModule
from repro.model import Configuration
from repro.obs import Tracer, span

import workloads
from hostclock import HostClock
from oracle import verify_plan
from probe import ProbedSwitch


#: The cold warm-up round of ``fleet-repair`` solves every zone, one after
#: the other under one deadline, so it gets this many round budgets.
WARMUP_BUDGET_FACTOR = 4


@dataclass
class Op:
    """One operation: a control-loop round or a compute round."""

    start: float
    budget_s: float
    end: float = 0.0
    #: Reference-host milliseconds (filled by :meth:`Pass.close`).
    ms: float = 0.0
    #: Table 1 cost of the round's switch; ``None`` when no switch ran.
    cost: Optional[int] = None
    #: Search nodes, backtracks, plan actions — compared by ``--check`` on
    #: the operations whose counts must repeat exactly.
    counts: Optional[tuple[int, int, int]] = None
    exact: bool = False
    failures: list[str] = field(default_factory=list)


@dataclass
class Pass:
    """Everything one pass measured."""

    clock: HostClock
    ops: list[Op] = field(default_factory=list)
    verify_ms: list[float] = field(default_factory=list)
    #: Loop workloads, one entry per Scenario run.
    makespans_s: list[float] = field(default_factory=list)
    switch_durations_s: list[float] = field(default_factory=list)
    serialize_ms: list[float] = field(default_factory=list)
    #: fig10: (plan cost, FFD plan cost) per instance that has an FFD target.
    ffd_pairs: list[tuple[int, int]] = field(default_factory=list)
    violations: int = 0
    plans_verified: int = 0
    tracer: Optional[Tracer] = None

    def close(self) -> None:
        """Normalise the round times and apply the over-budget rule (on the
        bare program only: a traced round carries its replays)."""
        self.clock.sample()
        for op in self.ops:
            op.ms = self.clock.normalise(op.start, op.end) * 1000.0
            if self.tracer is None and op.ms > 2000.0 * op.budget_s:
                op.failures.append(
                    f"took {op.ms:.0f} ms, over twice its {op.budget_s} s budget"
                )

    def verify(self, op: Op, plan, target, cost, catalog, wanted) -> None:
        started = time.perf_counter()
        problems = verify_plan(plan, target, cost, catalog, wanted)
        self.verify_ms.append((time.perf_counter() - started) * 1000.0)
        self.plans_verified += 1
        self.violations += len(problems)
        op.failures.extend(problems)


def _describe(op: Op, report) -> None:
    op.cost = report.cost.total
    stats = report.statistics
    op.counts = (
        stats.nodes if stats else 0,
        stats.backtracks if stats else 0,
        report.plan.action_count(),
    )
    if stats is not None and (stats.timed_out or stats.limit_reached):
        op.exact = False
    if report.used_fallback:
        op.failures.append("used the fallback target")


# ---------------------------------------------------------------------- #
# loop workloads: campaign, loop-fenced                                   #
# ---------------------------------------------------------------------- #


class _RoundRecorder(LoopObserver):
    """Cuts a Scenario run into rounds at ``on_iteration`` and keeps what
    the oracle needs to check each switch after the run."""

    def __init__(self, result: Pass, budget_s: float, canonical: bool) -> None:
        self.result = result
        self.budget_s = budget_s
        self.canonical = canonical
        self.ops: list[Op] = []
        self.pending: list[tuple] = []
        self._open: Optional[Op] = None
        self._wanted: dict = {}
        self._loop = None

    def on_run_start(self, loop) -> None:
        self._loop = loop

    def on_iteration(self, time_, configuration) -> None:
        now = time.perf_counter()
        if self._open is not None:
            self._open.end = now
            self.ops.append(self._open)
        with span("bench.replay"):
            self.result.clock.tick()
        self._open = Op(
            start=time.perf_counter(), budget_s=self.budget_s, exact=self.canonical
        )

    def on_decision(self, time_, decision) -> None:
        self._wanted = decision.vm_states

    def on_switch(self, record, report) -> None:
        _describe(self._open, report)
        self.result.switch_durations_s.append(record.duration)
        self.pending.append(
            (
                self._open,
                report.plan,
                report.target,
                report.cost.total,
                tuple(self._loop.constraints),
                self._wanted,
            )
        )

    def on_sample(self, sample) -> None:
        # The loop's constraint watchdog ran just before this hook; when
        # tracing, time the same call on the same state.
        if self.result.tracer is not None and self._loop.constraints:
            with span("bench.replay"), span("bench.check_configuration"):
                check_configuration(
                    self._loop.cluster.configuration, self._loop.constraints
                )

    # The round open at the end of the run is the loop noticing that every
    # vjob is done, not a whole round: it is dropped.


def run_loop_pass(
    spec: workloads.Spec, runs: list[workloads.LoopRun], result: Pass
) -> None:
    traced = result.tracer is not None
    for run in runs:
        budget = result.clock.budget(spec.budget_s)
        recorder = _RoundRecorder(result, spec.budget_s, run.canonical)
        loop = Scenario(
            nodes=run.nodes,
            workloads=run.workloads,
            policy="consolidation",
            engine=spec.engine,
            optimizer_timeout=budget,
            constraints=run.constraints,
            faults=run.faults,
            observers=[recorder],
        ).build()
        # The loop has no zone_executor parameter and "auto" forks a process
        # pool on a multi-core host: swap in a serial switch.
        loop.switcher.close()
        loop.switcher = ClusterContextSwitch(
            optimizer_timeout=budget, engine=spec.engine, zone_executor="serial"
        )
        if traced:
            loop.switcher = ProbedSwitch(loop.switcher)
        failures: list[str] = []
        outcome = None
        try:
            with span("bench.run"):
                outcome = loop.run()
        except Exception as exc:  # counted, the pass goes on
            failures.append(f"run raised {type(exc).__name__}: {exc}")
        if outcome is not None:
            result.makespans_s.append(outcome.makespan)
            if outcome.unfinished_vjobs:
                failures.append(f"unfinished vjobs {outcome.unfinished_vjobs}")
            if not outcome.metadata.get("final_viable", False):
                failures.append("final configuration not viable")
            if outcome.metadata.get("planning_failures"):
                failures.append(
                    f"{outcome.metadata['planning_failures']} planning failures"
                )
            if outcome.constraint_violations:
                result.violations += len(outcome.constraint_violations)
                failures.append(
                    f"{len(outcome.constraint_violations)} constraint violations"
                )
            if traced:
                started = time.perf_counter()
                json.dumps(outcome.to_dict())
                result.serialize_ms.append((time.perf_counter() - started) * 1000.0)
        for pending in recorder.pending:
            result.verify(*pending)
        for op in recorder.ops:
            op.failures.extend(failures)
        result.ops.extend(recorder.ops)


# ---------------------------------------------------------------------- #
# compute workloads: fig10, fleet-cold, fleet-repair                      #
# ---------------------------------------------------------------------- #


def _switch(spec: workloads.Spec, budget: float, traced: bool):
    switch = ClusterContextSwitch(
        optimizer_timeout=budget, engine=spec.engine, zone_executor="serial"
    )
    return ProbedSwitch(switch) if traced else switch


def run_fig10_pass(
    spec: workloads.Spec, instances: list[workloads.ColdInstance], result: Pass
) -> None:
    traced = result.tracer is not None
    for instance in instances:
        switch = _switch(spec, result.clock.budget(spec.budget_s), traced)
        op = Op(start=time.perf_counter(), budget_s=spec.budget_s, exact=True)
        decision = report = None
        try:
            with span("bench.round", vms=instance.vm_count):
                with span("bench.decide"):
                    decision = ConsolidationDecisionModule().decide(
                        instance.configuration, instance.queue
                    )
                report = switch.compute(
                    instance.configuration,
                    decision.vm_states,
                    vjob_of_vm=instance.vjob_of_vm,
                    fallback_target=decision.fallback_target,
                )
        except Exception as exc:
            op.failures.append(f"raised {type(exc).__name__}: {exc}")
        op.end = time.perf_counter()
        result.ops.append(op)
        if report is None:
            continue
        _describe(op, report)
        result.verify(
            op, report.plan, report.target, report.cost.total, (), decision.vm_states
        )
        if decision.fallback_target is not None:
            ffd_plan = switch.planner.build(
                instance.configuration,
                decision.fallback_target,
                instance.vjob_of_vm,
            )
            ffd_cost = plan_cost(ffd_plan).total
            result.ffd_pairs.append((report.cost.total, ffd_cost))
            if report.cost.total > ffd_cost:
                op.failures.append(
                    f"plan costs {report.cost.total}, FFD's costs {ffd_cost}"
                )


@dataclass
class Fleet:
    """The live state of a fleet workload."""

    configuration: Configuration
    catalog: list
    states: dict
    #: The warm engine of ``fleet-repair``; ``None`` for ``fleet-cold``.
    switch: Optional[ClusterContextSwitch]


def run_fleet_pass(
    spec: workloads.Spec, fleet: Fleet, seed: int, rounds: int, result: Pass
) -> None:
    traced = result.tracer is not None
    configuration = fleet.configuration
    decision = Decision(vm_states=fleet.states)
    warm = fleet.switch
    if warm is not None and traced:
        warm = ProbedSwitch(warm)
    stream = workloads.perturbations(
        list(configuration.vm_names), seed, spec.round_kinds, spec.restart_vms
    )
    for _ in range(rounds):
        budget = result.clock.budget(spec.budget_s)
        if warm is not None:
            # The only budget a repair engine reads per round; its inner
            # engines' timeouts are carved from it on every call.
            warm.optimizer.timeout = budget
            switch = warm
        else:
            switch = _switch(spec, budget, traced)
        perturbation = next(stream)
        reverts = []
        report = None
        op = Op(start=time.perf_counter(), budget_s=spec.budget_s)
        try:
            with span("bench.round", kind=perturbation.kind):
                with span("bench.observe") as observe_span:
                    if perturbation.kind == "restart":
                        for vm in perturbation.vms:
                            configuration.set_waiting(vm)
                    else:
                        demands = perturbation.demands or (
                            (workloads.OVERLOAD_CPU,) * len(perturbation.vms)
                        )
                        for vm, demand in zip(perturbation.vms, demands):
                            machine = configuration.vm(vm)
                            if perturbation.kind == "overload":
                                reverts.append(machine)
                            configuration.replace_vm(
                                machine.with_cpu_demand(demand)
                            )
                    if traced:
                        with span("bench.replay"):
                            observe_span.set(
                                dirty_nodes=len(configuration.dirty_nodes())
                            )
                    configuration.viability_violations(only_dirty=True)
                if needs_switch(configuration, decision):
                    if perturbation.kind != "quiet":
                        switch.mark_dirty(perturbation.vms)
                    report = switch.compute(
                        configuration, fleet.states, constraints=fleet.catalog
                    )
        except Exception as exc:
            op.failures.append(f"raised {type(exc).__name__}: {exc}")
        op.end = time.perf_counter()
        result.ops.append(op)
        if report is not None:
            _describe(op, report)
            result.verify(
                op,
                report.plan,
                report.target,
                report.cost.total,
                fleet.catalog,
                fleet.states,
            )
            if not op.failures:
                configuration = report.target
        for machine in reverts:
            configuration.replace_vm(
                configuration.vm(machine.name).with_cpu_demand(machine.cpu_demand)
            )


# ---------------------------------------------------------------------- #
# set-up                                                                  #
# ---------------------------------------------------------------------- #


def setup(
    spec: workloads.Spec, seed: int, units: int, clock: HostClock
) -> Callable[[Pass], None]:
    """Generate the inputs (and warm the engine where the workload has a
    warm one) and return the function that runs one pass over them."""
    if spec.name == "campaign":
        runs = workloads.campaign_runs(seed, units)
        return lambda result: run_loop_pass(spec, runs, result)
    if spec.name == "loop-fenced":
        runs = workloads.loop_fenced_runs(seed, units)
        return lambda result: run_loop_pass(spec, runs, result)
    if spec.name == "fig10":
        instances = workloads.fig10_instances(seed, units)
        return lambda result: run_fig10_pass(spec, instances, result)
    configuration, catalog = workloads.build_fleet(spec.fleet_vms, seed)
    states = configuration.states()
    # Drain construction dirtiness so round 0 observes steady state.
    configuration.viability_violations()
    switch = None
    if spec.name == "fleet-repair":
        # The cold warm-up round that seeds the previous assignment.
        switch = ClusterContextSwitch(
            optimizer_timeout=clock.budget(WARMUP_BUDGET_FACTOR * spec.budget_s),
            engine=spec.engine,
            zone_executor="serial",
        )
        configuration = switch.compute(
            configuration, states, constraints=catalog
        ).target
    fleet = Fleet(configuration, catalog, states, switch)
    return lambda result: run_fleet_pass(spec, fleet, seed + 1, units, result)


def timed_setup(
    spec: workloads.Spec, seed: int, units: int, clock: HostClock, samples: list
) -> Callable[[Pass], None]:
    """:func:`setup`, its reference-host duration appended to ``samples``."""
    clock.sample()
    started = time.perf_counter()
    runner = setup(spec, seed, units, clock)
    ended = time.perf_counter()
    clock.sample()
    samples.append(clock.normalise(started, ended))
    return runner

