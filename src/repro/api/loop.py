"""The pluggable observe/decide/plan/execute control loop (Section 3.1).

The loop iterates: (i) observe the CPU and memory consumption of the running
VMs through the monitoring service, (ii) run the *decision module* to compute
the vjob states of the next iteration, (iii) plan the cluster-wide context
switch towards a cheap viable configuration, and (iv) execute it with the
drivers, then waits for the monitoring information to refresh.

Unlike the original hard-wired simulation, :class:`ControlLoop` is
policy-agnostic: any :class:`~repro.api.decision.DecisionModule` — selected
by registry name or passed as an instance — drives the same loop, and every
run produces the same structured :class:`~repro.api.results.RunResult`.
Prefer the :class:`~repro.api.scenario.Scenario` facade over instantiating
the loop by hand.

The loop is also *fault-reactive*: with a
:class:`~repro.sim.faults.FaultInjector` attached, scheduled faults fire at
the start of each iteration.  A node crash evicts the node from the
configuration and knocks the affected vjobs back to Waiting, so the next
decision round re-plans them onto the surviving fleet; a failed migration
leaves its VM on the source node and is re-derived (hence retried) by the
next decision; slow nodes advance vjob progress more slowly; late-booting
nodes join the configuration mid-run.  Repair latencies, SLA violations and
wasted migrations are reported on the :class:`~repro.api.results.RunResult`.
A round whose decide or plan raises keeps its configuration and is recorded
once (``metadata["failure_causes"]``, the phase span, a WARNING log).

``engine`` selects how each planning round is solved, from the one menu in
:class:`~repro.core.context_switch.ClusterContextSwitch` (default
:data:`~repro.core.context_switch.DEFAULT_ENGINE`, the incremental
``"repair"`` engine).  The loop hands a round nothing but the observed
configuration: the repair engines read what changed since their last round
from it.

With ``constraints`` (the :mod:`repro.constraints` catalog), every planning
round honours the declared placement relations: the optimizer compiles them
into its CP model, constraint-aware policies filter their candidate nodes,
plans and the live cluster are checked continuously, and a node crash runs
each constraint's repair hook *before* the victims are replanned onto the
survivors.  Observed breaches land on the
:attr:`RunResult.constraint_violations` timeline — never silently dropped.
"""

from __future__ import annotations

import logging
from bisect import insort
from collections import Counter
from typing import Any, Mapping, Optional, Sequence, Union

from .. import config
from ..constraints.base import PlacementConstraint
from ..constraints.checker import check_configuration
from ..constraints.domains import RetainedDomains
from ..core.actions import ActionKind, Resume
from ..core.context_switch import (
    DEFAULT_ENGINE,
    ClusterContextSwitch,
    ContextSwitchReport,
)
from ..model.errors import PlanningError
from ..model.node import Node
from ..model.queue import VJobQueue
from ..model.vjob import VJobState
from ..model.vm import VMState
from ..obs import NULL_SPAN, Span, Tracer, span
from ..sim.cluster import SimulatedCluster
from ..sim.executor import PlanExecutor
from ..sim.faults import FaultEvent, FaultInjector, FaultKind, evict_node
from ..sim.hypervisor import DEFAULT_HYPERVISOR, HypervisorModel
from ..sim.monitoring import MonitoringService
from ..workloads.traces import VJobWorkload
from .decision import Decision, DecisionModule, needs_switch
from .events import LoopObserver
from .registry import get_decision_module
from .results import (
    ConstraintViolationRecord,
    ContextSwitchRecord,
    FaultRecord,
    RunResult,
    UtilizationSample,
)

PolicyLike = Union[str, DecisionModule]

#: The one degrade point's log (a WARNING per failed round); no handler here.
_LOG = logging.getLogger(__name__)

#: Consecutive failed rounds (decide or plan raised) before the run is
#: declared stuck (:class:`~repro.model.errors.PlanningError`).
_MAX_CONSECUTIVE_PLANNING_FAILURES = 25

#: The additive search counters of ``metadata["solver"]``, in document order.
_SOLVER_COUNTERS = ("nodes", "backtracks", "propagations", "solutions")


def policy_label(policy: PolicyLike) -> str:
    """The display/registry label of a policy name or module instance."""
    if isinstance(policy, str):
        return policy
    return getattr(policy, "name", type(policy).__name__)


def resolve_policy(
    policy: PolicyLike, options: Optional[Mapping[str, Any]] = None
) -> tuple[DecisionModule, str]:
    """Turn a registry name or a module instance into ``(module, label)``."""
    if isinstance(policy, str):
        return get_decision_module(policy, **dict(options or {})), policy
    if options:
        raise ValueError(
            "policy_options only apply when the policy is selected by name"
        )
    return policy, policy_label(policy)


class ControlLoop:
    """Run one decision policy over a simulated cluster and its workloads."""

    def __init__(
        self,
        nodes: Sequence[Node],
        workloads: Sequence[VJobWorkload],
        policy: PolicyLike = "consolidation",
        policy_options: Optional[Mapping[str, Any]] = None,
        period: float = config.DECISION_PERIOD_S,
        optimizer_timeout: float = 10.0,
        engine: str = DEFAULT_ENGINE,
        hypervisor: HypervisorModel = DEFAULT_HYPERVISOR,
        max_time: float = 24 * 3600.0,
        observers: Sequence[LoopObserver] = (),
        fault_injector: Optional[FaultInjector] = None,
        sla_factor: Optional[float] = None,
        constraints: Sequence[PlacementConstraint] = (),
        command_queue: Optional[Any] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.workloads: list[VJobWorkload] = []
        self.period = period
        self.max_time = max_time
        self.hypervisor = hypervisor
        self.observers = list(observers)
        self.faults = fault_injector
        self.sla_factor = sla_factor
        #: Operator command queue (duck-typed: ``drain(loop, now)`` returns
        #: how many commands it ran), drained at the top of every iteration
        #: so external producers — the :mod:`repro.service` daemon's HTTP
        #: handlers — submit vjobs and inject faults at well-defined points
        #: of simulated time.
        self.commands = command_queue
        #: Span tracer (:mod:`repro.obs`) producing the per-round phase
        #: breakdown; ``None`` keeps every instrumented path at its no-op
        #: cost.  Activated inside :meth:`run` on the thread that actually
        #: iterates — contextvars do not cross thread boundaries, and the
        #: operator daemon runs the loop on a worker thread.
        self.tracer = tracer
        #: Placement constraints enforced by every planning round (and
        #: re-applied on fault-driven replans).  The list is live: a node
        #: crash runs each constraint's repair hook and may swap entries.
        self.constraints: list[PlacementConstraint] = list(constraints)
        #: Labels of the catalog as declared by the user — repairs mutate
        #: ``self.constraints``, the declaration is what a run is compared by.
        self._declared_constraints = [c.label for c in self.constraints]

        self.cluster = SimulatedCluster(nodes=nodes)
        self.queue = VJobQueue()
        self.progress: dict[str, float] = {}
        #: The demand cache, observed behind each reconfiguration.
        self.monitoring = MonitoringService()
        #: VM -> its vjob, for every admitted VM.
        self._vjob_of_vm: dict[str, str] = {}
        #: id(workload) -> its place in the admission order.
        self._admitted: dict[int, int] = {}
        #: Admitted, not yet submitted; and submitted, not terminated — both
        #: in admission order, so a round walks only these.
        self._arriving: list[VJobWorkload] = []
        self._live: list[VJobWorkload] = []
        #: vjob name -> time of the crash that knocked it out, until repaired.
        self._repair_pending: dict[str, float] = {}
        #: vjobs the reconcile terminated (VMs stopped from outside the loop).
        self._stopped: list[str] = []
        #: Rounds whose decide or plan raised, by exception type.
        self._failures: Counter[str] = Counter()
        #: Per switch, for ``metadata["solver"]`` / ``["repair_engine"]``:
        #: the search counters and the repair engine's trace.
        self._solver_rounds: list[dict] = []
        self._repair_traces: list[dict] = []
        #: Set by :meth:`request_stop`; checked at every iteration boundary.
        self._stop_requested = False
        #: Late-booting nodes held back until their DELAYED_BOOT event fires.
        self._delayed_nodes: dict[str, Node] = {}
        if self.faults is not None:
            for name in self.faults.delayed_boot_nodes():
                if self.cluster.configuration.has_node(name):
                    self._delayed_nodes[name] = (
                        self.cluster.configuration.remove_node(name)
                    )

        stale = [
            w.vjob.name for w in workloads if w.vjob.state is not VJobState.WAITING
        ]
        if stale:
            raise ValueError(
                f"vjobs {stale} are not in their initial WAITING state — a "
                "run mutates vjob state, so each run needs freshly-built "
                "workloads"
            )
        for workload in workloads:
            self.add_workload(workload)

        self.decision_module, self.policy_name = resolve_policy(
            policy, policy_options
        )
        self._offer_constraints()
        self.switcher = ClusterContextSwitch(
            optimizer_timeout=optimizer_timeout, engine=engine
        )
        if isinstance(
            getattr(self.decision_module, "domains", None), RetainedDomains
        ):
            # One domains memory per loop: the policy's filter reads what the
            # switch keeps, under the same key.
            self.decision_module.domains = self.switcher.optimizer.domains
        self.executor = PlanExecutor(
            hypervisor=hypervisor, fault_injector=fault_injector
        )

    # ------------------------------------------------------------------ #
    # workload plumbing                                                   #
    # ------------------------------------------------------------------ #

    def add_workload(self, workload: VJobWorkload) -> None:
        """Admit one workload — the one admission path, taken by the
        constructor and by the operator's mid-run submission
        (:meth:`~repro.service.commands.LoopCommandQueue.submit_workload`):
        its VMs join the cluster in the Waiting state and the VM→vjob
        index, its progress starts at 0 and its VMs' demands enter the
        monitoring service, so the next fresh observation writes them.  The
        vjob joins the queue at the first round at or after its
        ``submitted_at``."""
        vjob = workload.vjob
        if vjob.name in self.progress:
            raise ValueError(f"vjob {vjob.name!r} is already submitted")
        if vjob.state is not VJobState.WAITING:
            raise ValueError(f"vjob {vjob.name!r} is not in its initial WAITING state")
        for vm in vjob.vms:
            self.cluster.add_vm(vm)
            self._vjob_of_vm[vm.name] = vjob.name
        self._admitted[id(workload)] = len(self.workloads)
        self.workloads.append(workload)
        self._arriving.append(workload)
        self.progress[vjob.name] = 0.0
        self.monitoring.add(workload)

    def _submit_pending(self, now: float) -> None:
        """The arriving vjobs due at ``now`` join the queue and go live."""
        arriving, rank = [], self._admitted
        for workload in self._arriving:
            if workload.vjob.submitted_at <= now:
                self.queue.submit(workload.vjob)
                insort(self._live, workload, key=lambda w: rank[id(w)])
            else:
                arriving.append(workload)
        self._arriving = arriving

    # ------------------------------------------------------------------ #
    # vjob state                                                          #
    # ------------------------------------------------------------------ #

    def _reconcile(self) -> None:
        """Derive every live vjob's state from its VMs (Section 4.1), after
        each step that writes VM states outside a plan: execute, a command
        drain that ran a command, a node crash.  By the partial-stop rule
        (``docs/ARCHITECTURE.md``) a vjob with a TERMINATED VM is
        terminated: its idle VMs are stopped here, its running ones by the
        next decision."""
        configuration = self.cluster.configuration
        live = []
        for workload in self._live:
            vjob = workload.vjob
            states = set(map(configuration.state_of, vjob.vm_names))
            if VMState.TERMINATED in states:
                vjob.state = VJobState.TERMINATED
                for vm_name in vjob.vm_names:
                    # Waiting and sleeping VMs stop without a driver action.
                    state = configuration.state_of(vm_name)
                    if state is VMState.WAITING or state is VMState.SLEEPING:
                        configuration.set_terminated(vm_name)
                self._stopped.append(vjob.name)
                continue
            if VMState.RUNNING in states:
                vjob.state = VJobState.RUNNING
            elif VMState.SLEEPING in states:
                vjob.state = VJobState.SLEEPING
            else:
                vjob.state = VJobState.WAITING
            live.append(workload)
        self._live = live

    def _mark_finished_vjobs(self, now: float, result: RunResult) -> None:
        """Vjobs whose traces are exhausted signal the loop to stop them;
        they leave the live list."""
        duration = self.monitoring.duration
        live = []
        for workload in self._live:
            vjob = workload.vjob
            if (
                vjob.state is VJobState.RUNNING
                and self.progress[vjob.name] >= duration[vjob.name]
            ):
                vjob.terminate()
                result.completion_times.setdefault(vjob.name, now)
                self._notify("on_vjob_completed", vjob.name, now)
            else:
                live.append(workload)
        self._live = live

    # ------------------------------------------------------------------ #
    # main loop                                                           #
    # ------------------------------------------------------------------ #

    def request_stop(self) -> None:
        """Ask a running loop to stop at the next iteration boundary.

        Thread-safe in the way the operator daemon needs it: the flag is a
        plain attribute written once, and :meth:`run` checks it exactly where
        it drains the command queue, so the loop finishes the in-flight
        iteration (its switch, samples and bookkeeping stay consistent) and
        then returns normally.  Runs cut short this way set
        ``metadata["stopped_early"]``."""
        self._stop_requested = True

    def run(self) -> RunResult:
        if self.tracer is None:
            return self._run_iterations()
        with self.tracer.activate() as root:
            root.set(policy=self.policy_name, engine=self.switcher.engine)
            result = self._run_iterations()
        result.trace = self.tracer.to_dict()
        return result

    def _run_iterations(self) -> RunResult:
        """The fixed tick of Section 3.1: every round runs the steps below in
        this order; a decide or plan that raises ends the round with the
        configuration kept (:meth:`_round_failed`) and the next one retries."""
        result = RunResult(makespan=0.0, policy=self.policy_name)
        now, iteration, consecutive_failures = 0.0, 0, 0
        self._notify("on_run_start", self)
        while now < self.max_time and not self._stop_requested:
            with span("round", index=iteration, sim_time=now) as round_span:
                self._drain_commands(now)
                self._submit_pending(now)
                self._fire_faults(now, result)
                self._observe(now)
                self._mark_finished_vjobs(now, result)
                if self._all_finished():
                    break
                decision = self._decide(iteration, now)
                failed, report = self._plan(decision, iteration, now)
                # A switch, or no switch needed, is progress.
                consecutive_failures = consecutive_failures + 1 if failed else 0
                if consecutive_failures >= _MAX_CONSECUTIVE_PLANNING_FAILURES:
                    # Permanently unplannable: fail loudly instead of spinning
                    # until max_time and returning plausible-looking garbage.
                    raise PlanningError(
                        f"policy {self.policy_name!r} produced "
                        f"{consecutive_failures} consecutive unplannable "
                        f"decisions (last at simulated time {now:.0f}s); "
                        "the scenario cannot make progress"
                    )
                switch_duration, involved_nodes = 0.0, set()
                if report is not None:
                    switch_duration, involved_nodes = self._execute(report, now, result)
                    round_span.set(switched=True, switch_cost=report.total_cost)
                self._record_configuration_violations(now + switch_duration, result)
                self._sample(now, result)
                now = self._advance(now, switch_duration, involved_nodes)
                iteration += 1
        return self._finish(result, now)

    # ------------------------------------------------------------------ #
    # the steps of a round, in tick order                                 #
    # ------------------------------------------------------------------ #

    def _drain_commands(self, now: float) -> None:
        """Operator commands first, so what the queue submits or injects
        lands at a round boundary and runs stay deterministic; a drain that
        ran a command (which may have written VM states) reconciles."""
        if self.commands is not None and self.commands.drain(self, now):
            self._reconcile()

    def _fire_faults(self, now: float, result: RunResult) -> None:
        """Faults scheduled since the previous round are detected now
        (monitoring-grain detection)."""
        if self.faults is not None:
            for event in self.faults.fire(now):
                self._apply_fault(event, now, result)

    def _observe(self, now: float) -> None:
        """(i) Observe: write the CPU demands a fresh observation carries —
        those that changed since the previous fresh one — into the
        configuration, the one place the decision reads them from; a stale
        observation carries nothing.  Only the nodes dirtied
        since the previous round (demand updates, migrations, faults) are
        re-examined for viability."""
        with span("observe") as observe_span:
            demands = self.monitoring.observe(now) or {}
            for vm_name, demand in demands.items():
                self.cluster.update_demand(vm_name, demand)
            configuration = self.cluster.configuration
            observe_span.set(
                demand_updates=len(demands),
                dirty_nodes=len(configuration.dirty_nodes()),
                overloaded=len(configuration.viability_violations(only_dirty=True)),
            )
            self._notify("on_iteration", now, configuration)

    def _all_finished(self) -> bool:
        return not (self._arriving or self._live)

    def _decide(self, index: int, now: float) -> Optional[Decision]:
        """(ii) Decide: the policy's decision over the observed configuration,
        or ``None`` when it raised."""
        with span("decide") as decide_span:
            try:
                decision = self.decision_module.decide(
                    self.cluster.configuration, self.queue
                )
            except Exception as error:
                self._round_failed(decide_span, "decide", error, index, now)
                return None
            if decide_span is not NULL_SPAN:
                # What a policy's retained selection packed again.
                selection = getattr(self.decision_module, "selection", None)
                if selection is not None:
                    decide_span.set(
                        repacked_vjobs=selection.repacked_vjobs,
                        repacked_vms=selection.repacked_vms,
                    )
        self._notify("on_decision", now, decision)
        return decision

    def _plan(
        self,
        decision: Optional[Decision],
        index: int,
        now: float,
    ) -> tuple[bool, Optional[ContextSwitchReport]]:
        """(iii) Plan: ``(failed, report)``.  The switch goes towards the
        policy's explicit target when it computed one, through
        :meth:`ClusterContextSwitch.compute` (which owns the fallback, and
        reads the decision's only when the solve raised) otherwise; no
        report when no switch is needed.  The round failed
        when the decide step did, or when planning raised."""
        if decision is None:
            return True, None
        configuration = self.cluster.configuration
        if not needs_switch(configuration, decision):
            return False, None
        with span("plan") as plan_span:
            try:
                if decision.target is not None:
                    report = self.switcher.plan_to(
                        configuration,
                        decision.target,
                        self._vjob_of_vm,
                        constraints=self.constraints,
                    )
                else:
                    report = self.switcher.compute(
                        configuration,
                        decision.vm_states,
                        vjob_of_vm=self._vjob_of_vm,
                        # A builder: the fallback is built only if the
                        # solve raises.
                        fallback_target=lambda: decision.fallback_target,
                        constraints=self.constraints,
                    )
            except Exception as error:
                self._round_failed(plan_span, "plan", error, index, now)
                return True, None
        return False, report

    def _execute(
        self, report: ContextSwitchReport, now: float, result: RunResult
    ) -> tuple[float, set[str]]:
        """(iv) Execute the switch and record it; returns its duration and
        the nodes it touched."""
        execution = self.executor.execute(
            report.plan, self.cluster, start_time=now, constraints=self.constraints
        )
        aborted = self._record_migration_faults(execution, result)
        record = self._record_switch(now, report, execution, aborted)
        result.switches.append(record)
        if (statistics := report.statistics) is not None:
            # Deterministic counters only (no wall-clock fields): the
            # HTTP-equals-in-process determinism test compares full result
            # documents across independent runs.
            self._solver_rounds.append(
                {"time": now}
                | {key: getattr(statistics, key) for key in _SOLVER_COUNTERS}
                | {"proven_optimal": statistics.proven_optimal}
            )
        if report.repair is not None:
            self._repair_traces.append(report.repair)
        self._record_switch_violations(now, report, execution, result)
        self._notify("on_switch", record, report)
        finished = now + execution.duration
        self.monitoring.notify_reconfiguration(finished)
        self._reconcile()
        self._check_repairs(finished, result)
        return execution.duration, execution.involved_nodes()

    def _sample(self, now: float, result: RunResult) -> None:
        """Sample utilization after the switch."""
        configuration = self.cluster.configuration
        usage = configuration.total_usage()
        of_vjob = self.monitoring.of_vjob
        demand_units = sum(of_vjob[workload.vjob.name] for workload in self._live)
        sample = UtilizationSample(
            time=now,
            cpu_demand_units=demand_units,
            cpu_used_units=usage.cpu,
            cpu_capacity_units=configuration.total_capacity().cpu,
            memory_used_mb=usage.memory,
        )
        result.utilization.append(sample)
        self._notify("on_sample", sample)

    def _advance(
        self, now: float, switch_duration: float, involved_nodes: set[str]
    ) -> float:
        """Advance the running vjobs by one step and return the next round's
        time: ``period``, or the switch's duration when it took longer.

        Running VMs hosted on nodes touched by the context switch are slowed
        down during the switch window (Section 2.3 measured a 1.3-1.5x factor);
        the remaining part of the interval progresses at full speed.  On top
        of that, a vjob with a VM on a fault-slowed node advances the whole
        interval slower by the slowdown's factor (the worst across its VMs'
        hosts).  A vjob's hosts are read only when the round
        switched some node or a slowdown is in force (one injector query).

        Progress moves here and nowhere else, so this is where the
        monitoring service refreshes every vjob it advanced.
        """
        step = max(self.period, switch_duration)
        configuration = self.cluster.configuration
        factor = config.INTERFERENCE_FACTOR_LOCAL
        switched = involved_nodes if switch_duration > 0 else set()
        slowdowns = self.faults.slowdowns_at(now) if self.faults is not None else {}
        for workload in self._live:
            vjob = workload.vjob
            if vjob.state is not VJobState.RUNNING:
                continue
            slowed = False
            fault_slowdown = 1.0
            if switched or slowdowns:
                for host in configuration.hosts_of(vjob.vm_names):
                    if host in switched:
                        slowed = True
                    fault_slowdown = max(fault_slowdown, slowdowns.get(host, 1.0))
            if slowed:
                effective = (step - switch_duration) + switch_duration / factor
            else:
                effective = step
            progress = self.progress[vjob.name] + effective / fault_slowdown
            self.progress[vjob.name] = progress
            self.monitoring.refresh(workload, progress)
        return now + step

    def _finish(self, result: RunResult, now: float) -> RunResult:
        """Close the run: makespan, unfinished vjobs, SLA and the metadata."""
        result.makespan = (
            max(result.completion_times.values()) if result.completion_times else now
        )
        result.unfinished_vjobs = sorted(workload.vjob.name for workload in self._live)
        result.sla_violations = self._sla_violations(result)
        result.metadata["final_viable"] = self.cluster.configuration.is_viable()
        result.metadata["simulated_time"] = now
        result.metadata["planning_failures"] = sum(self._failures.values())
        if self._failures:
            result.metadata["failure_causes"] = dict(sorted(self._failures.items()))
        if self._stop_requested:
            result.metadata["stopped_early"] = True
        if self._stopped:
            # Neither completed nor unfinished: stopped from outside.
            result.metadata["stopped_vjobs"] = sorted(self._stopped)
        if rounds := self._solver_rounds:
            # Per-round CP search statistics: partitioned engines report
            # counters merged across zones, so monolithic and decomposed runs
            # are directly comparable here.
            result.metadata["solver"] = {
                "rounds": rounds,
                "totals": {
                    key: sum(r[key] for r in rounds) for key in _SOLVER_COUNTERS
                },
            }
        if traces := self._repair_traces:
            modes = Counter(t.get("mode") for t in traces)
            result.metadata["repair_engine"] = {
                "repair_rounds": modes["repair"],
                "full_rounds": modes["full"],
                **{
                    f"{name}_total": sum(t.get(key, 0) for t in traces)
                    for name, key in (
                        ("dirty_vms", "dirty_count"),
                        ("frozen_vms", "frozen_count"),
                        ("attempts", "attempts"),
                    )
                },
            }
        if self._declared_constraints:
            # The declared catalog (stable identity of a constrained run) and
            # the post-repair set actually enforced at the end — they differ
            # when crashes adjusted or retired constraints mid-run.
            result.metadata["constraints"] = list(self._declared_constraints)
            result.metadata["active_constraints"] = [
                c.label for c in self.constraints
            ]
        if self.faults is not None:
            # Settle the pending-repair set one last time: a vjob repaired
            # (or terminated) by the *final* switch — or that finished after
            # its last switch — must not linger in the metadata as
            # unrepaired.  ``now`` already includes the final iteration's
            # switch duration, so latencies recorded here stay non-negative.
            self._check_repairs(now, result)
            result.metadata["unrepaired_vjobs"] = sorted(self._repair_pending)
        self._notify("on_run_end", result)
        return result

    # ------------------------------------------------------------------ #
    # helpers                                                             #
    # ------------------------------------------------------------------ #

    def _notify(self, hook: str, *payload: Any) -> None:
        for observer in self.observers:
            getattr(observer, hook)(*payload)

    # ------------------------------------------------------------------ #
    # placement constraints                                               #
    # ------------------------------------------------------------------ #

    def _offer_constraints(self) -> None:
        """Hand the loop's catalog — even an empty one — to the decision
        module when it is constraint-aware (``use_constraints`` hook, the
        only way a built-in policy gets a catalog: the heuristic packings
        filter their candidate nodes with the constraints the round plans
        and checks with)."""
        hook = getattr(self.decision_module, "use_constraints", None)
        if hook is not None:
            hook(tuple(self.constraints))

    def _repair_constraints(self, node_name: str) -> None:
        """Run every constraint's node-failure repair hook.

        Constraints may adapt to the shrunken fleet (an elastic ``Fence``
        dropping the dead node) or retire; the surviving set is re-offered to
        the decision module so fault-driven replanning re-applies it when the
        crashed vjobs are rescheduled onto the survivors.
        """
        if not self.constraints:
            return
        repaired = []
        for constraint in self.constraints:
            adjusted = constraint.on_node_failure(node_name)
            if adjusted is not None:
                repaired.append(adjusted)
        self.constraints = repaired
        # Push the adjusted set even when it became empty: the module must
        # drop a fully-retired constraint, not keep filtering with it.
        self._offer_constraints()

    def _record_violation(
        self, record: ConstraintViolationRecord, result: RunResult
    ) -> None:
        result.constraint_violations.append(record)
        self._notify("on_constraint_violation", record)

    def _record_switch_violations(
        self, now: float, report, execution, result: RunResult
    ) -> None:
        """Timeline entries for this switch: the plan's intended intermediate
        states (``phase="plan"``) and the live pool boundaries observed by
        the executor (``phase="execution"``)."""
        for violation in report.plan.constraint_violations:
            self._record_violation(
                ConstraintViolationRecord(
                    time=now,
                    constraint=violation.constraint,
                    phase="plan",
                    message=violation.message,
                    stage=violation.stage,
                ),
                result,
            )
        for event in execution.constraint_violations:
            self._record_violation(
                ConstraintViolationRecord(
                    time=event.time,
                    constraint=event.constraint,
                    phase="execution",
                    message=event.message,
                    # ExecutionReport pool indices are 0-based; the record's
                    # stage counts pools *applied* so both phases agree on
                    # the same boundary (stage 1 = after the first pool).
                    stage=event.pool_index + 1,
                ),
                result,
            )

    def _record_configuration_violations(
        self, time: float, result: RunResult
    ) -> None:
        """One ``phase="configuration"`` entry per constraint the settled
        iteration state breaks (a persistent breach shows up once per
        iteration — that repetition *is* the timeline)."""
        if not self.constraints:
            return
        for violation in check_configuration(
            self.cluster.configuration, self.constraints
        ):
            self._record_violation(
                ConstraintViolationRecord(
                    time=time,
                    constraint=violation.constraint,
                    phase="configuration",
                    message=violation.message,
                ),
                result,
            )

    # ------------------------------------------------------------------ #
    # fault handling                                                      #
    # ------------------------------------------------------------------ #

    def _apply_fault(
        self, event: FaultEvent, now: float, result: RunResult
    ) -> None:
        """Apply one due fault event and record it on the result."""
        affected: tuple[str, ...] = ()
        detail = ""
        if event.kind is FaultKind.NODE_CRASH:
            # Constraint repair first: replanning the victims must happen
            # against the adjusted catalog, not the pre-crash one.
            self._repair_constraints(event.target)
            if self.cluster.configuration.has_node(event.target):
                affected = self._crash_node(event.target, event.time)
                self._reconcile()
            elif event.target in self._delayed_nodes:
                # The node died before it ever booted: cancel the pending
                # boot so it does not later join the fleet alive.
                del self._delayed_nodes[event.target]
                detail = "crashed before boot; boot cancelled"
            else:
                detail = "node absent; ignored"
        elif event.kind is FaultKind.DELAYED_BOOT:
            node = self._delayed_nodes.pop(event.target, None)
            if node is not None and not self.cluster.configuration.has_node(
                node.name
            ):
                self.cluster.configuration.add_node(node)
            elif node is None:
                detail = "no pending boot (cancelled or unknown); ignored"
            else:
                detail = "node already present; ignored"
        # NODE_SLOWDOWN needs no application step: the injector answers
        # slowdowns_at() queries for the whole window.  The record below
        # still marks the window opening on the fault timeline.
        record = FaultRecord(
            time=event.time,
            kind=event.kind.value,
            target=event.target,
            detected_at=now,
            affected_vjobs=affected,
            detail=detail,
        )
        result.faults.append(record)
        self._notify("on_fault", record)

    def _crash_node(self, node_name: str, crash_time: float) -> tuple[str, ...]:
        """Kill a node; the VMs of the vjobs it hosted fall back to Waiting
        entirely (the reconcile that follows makes those vjobs Waiting).

        The consistency requirement of Section 4.1 (all the VMs of a vjob
        run together) extends to failures: losing one VM invalidates the
        vjob's current execution, so every sibling VM is reset too and the
        whole vjob re-enters the queue.  Progress already accumulated is
        kept — the restart-from-checkpoint assumption documented in
        ``docs/SIMULATOR_GUIDE.md``.
        """
        configuration = self.cluster.configuration
        eviction = evict_node(configuration, node_name)
        vjob_of_vm = self._vjob_of_vm
        affected = sorted(
            {
                vjob_of_vm[vm]
                for vm in eviction.affected_vms
                if vm in vjob_of_vm
            }
        )
        repaired_names = []
        for name in affected:
            vjob = self.queue.get(name) if name in self.queue else None
            if vjob is None or vjob.is_terminated:
                continue
            # A live vjob holds no TERMINATED VM (the reconcile).
            for vm in vjob.vm_names:
                configuration.set_waiting(vm)
            self._repair_pending.setdefault(name, crash_time)
            repaired_names.append(name)
        return tuple(repaired_names)

    def _record_migration_faults(self, execution, result: RunResult) -> int:
        """Put every aborted migration of a switch on the fault timeline
        and return how many there were.

        Unlike the scheduled faults, a migration failure only materializes
        when the executor actually attempts the move, so it is recorded here
        — at the attempt's start time — rather than in ``_apply_fault``.
        """
        aborted = 0
        for failure in execution.failures:
            if (
                failure.action.kind is not ActionKind.MIGRATE
                or failure.reason != "migration-fault"
            ):
                continue
            aborted += 1
            record = FaultRecord(
                time=failure.start,
                kind=FaultKind.MIGRATION_FAILURE.value,
                target=failure.action.vm,
                detected_at=failure.start,
                detail=(
                    f"migration {failure.action.source()} -> "
                    f"{failure.action.destination()} aborted"
                ),
            )
            result.faults.append(record)
            self._notify("on_fault", record)
        return aborted

    def _check_repairs(self, finish_time: float, result: RunResult) -> None:
        """Vjobs knocked out by a crash that are running again are repaired;
        the latency runs from the crash to the end of the restoring switch."""
        for name in list(self._repair_pending):
            vjob = self.queue.get(name)
            if vjob.state is VJobState.RUNNING:
                latency = finish_time - self._repair_pending.pop(name)
                result.repair_latencies[name] = latency
                self._notify("on_repair", name, latency)
            elif vjob.is_terminated:
                del self._repair_pending[name]

    def _sla_violations(self, result: RunResult) -> list[str]:
        """Vjobs whose turnaround exceeded ``sla_factor`` times their ideal
        execution time (unfinished vjobs always violate)."""
        if self.sla_factor is None:
            return []
        violations = set(result.unfinished_vjobs)
        for workload in self.workloads:
            vjob = workload.vjob
            completed_at = result.completion_times.get(vjob.name)
            if completed_at is None:
                continue
            turnaround = completed_at - vjob.submitted_at
            if turnaround > self.sla_factor * workload.duration:
                violations.add(vjob.name)
        return sorted(violations)

    def _round_failed(
        self, phase_span: Span, phase: str, error: Exception, index: int, now: float
    ) -> None:
        """The one degrade point: round ``index`` at ``now`` ends with the
        configuration kept because ``phase`` (``"decide"`` / ``"plan"``)
        raised ``error``; its span, the run's tally and the log say so (one
        WARNING line, the traceback at DEBUG)."""
        cause = type(error).__name__
        phase_span.set(failed=True, error=cause)
        self._failures[cause] += 1
        _LOG.warning(
            "round %d at simulated time %.0fs: %s failed (%s: %s); configuration kept",
            index, now, phase, cause, error,
        )
        _LOG.debug("round %d: %s traceback", index, phase, exc_info=error)

    def _record_switch(
        self, now, report, execution, failed_migrations: int
    ) -> ContextSwitchRecord:
        local_resumes = sum(
            1
            for item in execution.actions
            if isinstance(item.action, Resume) and item.action.is_local
        )
        return ContextSwitchRecord(
            time=now,
            cost=report.total_cost,
            duration=execution.duration,
            migrations=execution.count(ActionKind.MIGRATE),
            runs=execution.count(ActionKind.RUN),
            stops=execution.count(ActionKind.STOP),
            suspends=execution.count(ActionKind.SUSPEND),
            resumes=execution.count(ActionKind.RESUME),
            local_resumes=local_resumes,
            used_fallback=report.used_fallback,
            failed_migrations=failed_migrations,
        )
