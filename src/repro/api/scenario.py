"""The ``Scenario`` facade over the control loop.

A :class:`Scenario` is a declarative description of one experiment — the
cluster, the workloads, the decision policy (by registry name or instance)
and the loop parameters.  It replaces hand-constructed loop wiring::

    from repro import Scenario

    result = Scenario(nodes=nodes, workloads=workloads, policy="consolidation").run()

The same scenario runs unmodified under any registered policy
(:meth:`Scenario.with_policy`, :meth:`Scenario.compare`), and
:meth:`Scenario.run_static` executes the analytic FCFS + static-allocation
baseline of Section 5.2 on the identical workload for head-to-head
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence

from .. import config
from ..constraints.base import PlacementConstraint
from ..core.context_switch import DEFAULT_ENGINE
from ..model.node import Node
from ..obs import Tracer
from ..sim.faults import FaultInjector, FaultSchedule
from ..sim.hypervisor import DEFAULT_HYPERVISOR, HypervisorModel
from ..workloads.traces import VJobWorkload
from .events import LoopObserver
from .loop import ControlLoop, PolicyLike, policy_label
from .results import RunResult


@dataclass
class Scenario:
    """A declarative experiment: cluster + workloads + policy + loop knobs.

    ``faults`` attaches a :class:`~repro.sim.faults.FaultSchedule` (node
    crashes, slow-downs, migration failures, delayed boots); a fresh
    :class:`~repro.sim.faults.FaultInjector` is built per run so repeated
    builds stay independent.  ``sla_factor`` turns on SLA accounting: a vjob
    violates its SLA when its turnaround (completion minus submission time)
    exceeds ``sla_factor`` times its ideal execution time.

    ``constraints`` attaches placement relations from the
    :mod:`repro.constraints` catalog (``Spread``, ``Ban``, ``Fence``,
    ``RunningCapacity``): the optimizer compiles them into its CP model,
    heuristic policies filter their candidate nodes with them, every plan
    and the live cluster are checked continuously, and the violation
    timeline lands on :attr:`RunResult.constraint_violations`.

    ``engine`` selects the solving strategy for every planning round, from
    the one menu in
    :class:`~repro.core.context_switch.ClusterContextSwitch` (default
    :data:`~repro.core.context_switch.DEFAULT_ENGINE`, the incremental
    ``"repair"`` engine).

    ``trace=True`` attaches a :class:`repro.obs.Tracer` to the run: every
    round records observe/decide/plan/solve/execute child spans (zone and
    repair-attempt spans included) and the finished
    :attr:`RunResult.trace` carries the whole span tree — summarize it
    with the ``repro-trace`` CLI or export it to Chrome trace-event JSON
    (see ``docs/OBSERVABILITY.md``).
    """

    nodes: Sequence[Node] = ()
    workloads: Sequence[VJobWorkload] = ()
    policy: PolicyLike = "consolidation"
    policy_options: dict[str, Any] = field(default_factory=dict)
    period: float = config.DECISION_PERIOD_S
    optimizer_timeout: float = 10.0
    engine: str = DEFAULT_ENGINE
    hypervisor: HypervisorModel = DEFAULT_HYPERVISOR
    max_time: float = 24 * 3600.0
    faults: Optional[FaultSchedule] = None
    sla_factor: Optional[float] = None
    constraints: Sequence[PlacementConstraint] = ()
    observers: list[LoopObserver] = field(default_factory=list)
    trace: bool = False

    def __post_init__(self) -> None:
        self.nodes = list(self.nodes)
        self.workloads = list(self.workloads)
        self.constraints = list(self.constraints)
        if not self.nodes:
            raise ValueError("a scenario needs at least one node")

    # ------------------------------------------------------------------ #
    # construction helpers                                                #
    # ------------------------------------------------------------------ #

    def with_policy(self, policy: PolicyLike, **options: Any) -> "Scenario":
        """A copy of this scenario driven by another decision policy."""
        return replace(
            self,
            policy=policy,
            policy_options=dict(options),
            observers=list(self.observers),
        )

    def with_faults(
        self,
        schedule: FaultSchedule,
        workloads: Optional[Sequence[VJobWorkload]] = None,
    ) -> "Scenario":
        """A copy of this scenario running under ``schedule``.

        A run mutates vjob state, so comparing a fault-free run with its
        chaotic twin needs fresh ``workloads`` for the copy (rebuild them
        from the same seed); without them the copy shares this scenario's
        workload objects and only one of the two scenarios can run.
        """
        copied = replace(self, faults=schedule, observers=list(self.observers))
        if workloads is not None:
            copied.workloads = list(workloads)
        return copied

    def with_constraints(
        self, *constraints: PlacementConstraint
    ) -> "Scenario":
        """A copy of this scenario with ``constraints`` *added* to the
        catalog already attached (pass none to copy unchanged)::

            scenario.with_constraints(Spread(["db.0", "db.1"]),
                                      Fence(["licensed"], ["node-1"]))
        """
        return replace(
            self,
            constraints=[*self.constraints, *constraints],
            observers=list(self.observers),
        )

    def observe(self, observer: LoopObserver) -> "Scenario":
        """Attach an observer (returns ``self`` for chaining)."""
        self.observers.append(observer)
        return self

    # ------------------------------------------------------------------ #
    # execution                                                           #
    # ------------------------------------------------------------------ #

    def build(self, command_queue: Optional[Any] = None) -> ControlLoop:
        """Wire the control loop for this scenario without running it.

        Use this when the experiment needs access to the live simulation
        state (queue, cluster configuration) after the run.

        ``command_queue`` (duck-typed, ``drain(loop, now)``) lets an
        operator — the :mod:`repro.service` daemon, or a test — submit vjobs
        and inject faults at iteration boundaries while the loop runs.
        """
        # Workloads carry mutable vjob state; fresh vjobs per build would
        # require deep-copying traces, so one scenario instance should be
        # rebuilt from fresh workloads for truly independent repetitions.
        # The fault injector, by contrast, is rebuilt from the (passive)
        # schedule here, so it never leaks state between builds.
        return ControlLoop(
            nodes=self.nodes,
            workloads=self.workloads,
            policy=self.policy,
            policy_options=self.policy_options,
            period=self.period,
            optimizer_timeout=self.optimizer_timeout,
            engine=self.engine,
            hypervisor=self.hypervisor,
            max_time=self.max_time,
            observers=self.observers,
            fault_injector=(
                FaultInjector(self.faults) if self.faults is not None else None
            ),
            sla_factor=self.sla_factor,
            constraints=self.constraints,
            command_queue=command_queue,
            tracer=Tracer() if self.trace else None,
        )

    def run(self) -> RunResult:
        """Build the loop and run the scenario to completion."""
        return self.build().run()

    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 8090,
        audit_path: Optional[str] = None,
        autostart: bool = False,
    ):
        """Expose this scenario through the :mod:`repro.service` operator
        daemon: REST/JSON endpoints for configuration, telemetry, Prometheus
        metrics, the audit log, mid-run vjob submission and fault injection.

        Returns the (not yet started) :class:`~repro.service.OperatorDaemon`;
        call ``start()`` on it — or pass ``autostart=True`` — and ``close()``
        when done.  The import is local so ``repro.api`` stays free of any
        service dependency for library users.
        """
        from ..service.daemon import OperatorDaemon

        daemon = OperatorDaemon(
            self, host=host, port=port, audit_path=audit_path
        )
        if autostart:
            daemon.start()
        return daemon

    def run_static(self, backfilling: Optional[str] = None) -> RunResult:
        """Run the analytic FCFS + static-allocation baseline (Section 5.2)
        on the same cluster and workloads.

        When ``backfilling`` is not given and this scenario's policy is the
        loop's ``"fcfs"`` module, the baseline uses the *same* backfilling
        setting as that module, so head-to-head comparisons measure the
        static-vs-loop distinction rather than mismatched backfilling
        defaults; otherwise the paper's EASY default applies.
        """
        # Imported here: repro.decision imports this package.
        from ..decision import FCFSDecisionModule, StaticAllocationSimulator

        if backfilling is None:
            backfilling = "easy"
            if policy_label(self.policy) == "fcfs":
                policy = (
                    FCFSDecisionModule
                    if isinstance(self.policy, str)
                    else self.policy
                )
                backfilling = self.policy_options.get(
                    "backfilling", policy.backfilling
                )
        return StaticAllocationSimulator(
            self.nodes, self.workloads, backfilling=backfilling
        ).run()

    def compare(
        self,
        policies: Sequence[PolicyLike],
        workload_factory=None,
    ) -> dict[str, RunResult]:
        """Run this scenario once per policy and key the results by policy.

        Vjob state is mutated by a run, so comparing policies on the *same*
        workload objects needs a ``workload_factory`` — a zero-argument
        callable returning fresh workloads for each run.  Without one, the
        scenario's own workloads are reused and a second run would observe
        terminated vjobs; a ``ValueError`` keeps that mistake loud.
        """
        if workload_factory is None and len(policies) > 1:
            raise ValueError(
                "comparing several policies mutates vjob state; pass "
                "workload_factory=lambda: <fresh workloads> so each run "
                "starts from pristine vjobs"
            )
        labels = [policy_label(policy) for policy in policies]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"policies must have distinct labels, got {labels}; results "
                "are keyed by label, so duplicates would silently overwrite "
                "each other — give custom modules distinct `name` attributes"
            )
        results: dict[str, RunResult] = {}
        for policy in policies:
            if policy == self.policy:
                # Keep the scenario's own options for its configured policy.
                scenario = self.with_policy(policy, **self.policy_options)
            else:
                scenario = self.with_policy(policy)
            if workload_factory is not None:
                scenario.workloads = list(workload_factory())
            results[policy_label(policy)] = scenario.run()
        return results
