"""CP-based optimization of the cluster-wide context switch (Section 4.3).

Given the current configuration and the *states* the decision module wants for
every VM (``mustBeRunning``, ``mustBeReady`` / sleeping, terminated or
unchanged), several viable placements are usually possible, and they differ
by the cost of their reconfiguration plan.  The optimizer models the placement
of the VMs that must run as a constraint satisfaction problem:

* one assignment variable per running VM, whose domain is the set of nodes;
* a 2-dimensional bin-packing constraint relating assignments to the CPU and
  memory capacities of the nodes (Definition 4.1);
* a cost variable equal to the sum of per-VM movement costs (Table 1): 0 when
  a running VM stays on its host or a waiting VM boots anywhere, ``Dm`` for a
  migration or a local resume, ``2 Dm`` for a remote resume;

and searches for the assignment minimizing that cost with branch-and-bound,
using a first-fail variable ordering (most demanding VMs first) and a value
ordering that favours each VM's current location.  The suspend costs are a
constant offset (they do not depend on the placement) and are added after the
search.  The best assignment found within the timeout is turned into a target
configuration and a feasible plan by :mod:`repro.core.planner`.

Frozen VMs.  The repair engine (:mod:`repro.repair`) may hand a solve the
VMs that keep the host they run on.  It owns their precondition — running,
on a node of the configuration, inside the unary domain, not leaving — and
nothing here checks it again.

Incumbent first.  "Assign each running VM to its initial location in
priority" is also a placement one can compute without a solver, and most
rounds leave most VMs where they are.  So unless the catalog holds a
relational constraint, the keep-in-place repair of the observed placement is
computed *before* the model, from what the model would be built from — the
VMs left to place, the capacities the frozen VMs leave, the unary domains —
next to the trivial lower bound (every VM at the cheapest Table 1 cost its
domain offers).  When the repair costs the bound it is returned as the proved
optimum and no model is built; when it costs more it bounds the search from
above and is the answer if the budget ends before anything cheaper is found.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence

from ..constraints import PlacementConstraint
from ..constraints.domains import RetainedDomains
from ..model.configuration import Configuration
from ..model.errors import PlanningError, SolverError
from ..model.vm import VMState
from ..obs import span as obs_span
from ..cp import (
    ENGINES,
    ActivityLastConflict,
    CostTable,
    Domain,
    ElementSum,
    IntVar,
    Model,
    SearchResult,
    SearchStatistics,
    Solver,
    VectorPacking,
    prefer_value,
    static_order,
)
from .cost import plan_cost
from .plan import ReconfigurationPlan
from .planner import PlannerOptions, ReconfigurationPlanner


#: Maximum number of distinct values allowed in the objective domain; larger
#: cost ranges are scaled down (the optimum is then approximate, which only
#: affects tie-breaking between plans of nearly identical costs).
_MAX_OBJECTIVE_RANGE = 120_000

#: Smallest wall-clock budget one carved solve is handed, seconds — a zone
#: run after others (:mod:`repro.scale.parallel`), a repair attempt after a
#: failed one (:mod:`repro.repair`): enough to attempt a first solution,
#: small enough that an exhausted budget fails fast into the whole solve.
MIN_CARVED_TIMEOUT_S = 0.05

#: Floor of the whole solve's budget, as a fraction of the round's: when the
#: failed zones or attempts before it burned the whole round, the whole
#: solve still needs room to find *a* solution, so the worst-case round is
#: bounded at (1 + this) times the budget rather than doubling it.
_LEFTOVER_TIMEOUT_FRACTION = 0.1


def leftover_budget(budget: float, deadline: float) -> float:
    """What the whole solve that ends a carved round gets — the monolithic
    re-solve after a failed zone, the repair engine's full solve: the
    wall-clock the carved solves before it left until ``deadline``, floored
    at :data:`_LEFTOVER_TIMEOUT_FRACTION` of the round's ``budget``."""
    return max(
        budget * _LEFTOVER_TIMEOUT_FRACTION, deadline - time.monotonic()
    )


def complete_states(
    current: Configuration, target_states: Mapping[str, VMState]
) -> tuple[dict[str, VMState], list[str]]:
    """The state wanted of every VM of ``current`` (``keepVMState``: a VM
    ``target_states`` does not name keeps the observed one; a name
    ``current`` does not know is ignored), in registration order, and the
    VMs whose wanted state is not the observed one."""
    states = current.states()
    changed = [
        name
        for name, wanted in target_states.items()
        if states.get(name, wanted) is not wanted
    ]
    for name in changed:
        states[name] = target_states[name]
    return states, changed


def apply_state(
    target: Configuration,
    current: Configuration,
    name: str,
    state: VMState,
    assignment: Mapping[str, str],
) -> None:
    """Put VM ``name`` of ``target`` in its wanted ``state``: running on its
    ``assignment``; sleeping with its image where ``current`` runs it or
    already holds it."""
    if state is VMState.RUNNING:
        target.set_running(name, assignment[name])
    elif state is VMState.SLEEPING:
        if current.state_of(name) is VMState.RUNNING:
            target.set_sleeping(name, current.location_of(name))
        elif current.state_of(name) is VMState.SLEEPING:
            target.set_sleeping(name, current.image_location_of(name))
        else:
            # A waiting VM cannot be suspended: it stays waiting.
            target.set_waiting(name)
    elif state is VMState.TERMINATED:
        target.set_terminated(name)
    else:
        target.set_waiting(name)


@dataclass
class OptimizationResult:
    """Outcome of :meth:`ContextSwitchOptimizer.optimize`."""

    target: Configuration
    plan: ReconfigurationPlan
    cost: int
    movement_cost: int
    fixed_cost: int
    statistics: Optional[SearchStatistics] = None
    improving_costs: list[int] = field(default_factory=list)
    #: How the instance was decomposed: ``"interference"`` or ``"sharded"``
    #: when a partitioned engine solved it by zones, ``"monolithic"`` (with
    #: the partitioner's ``partition_reason``, if one was asked) otherwise.
    partition_method: str = "monolithic"
    partition_reason: str = ""
    #: One :class:`~repro.scale.parallel.ZoneOutcome` per zone, in zone
    #: order; empty unless a partitioned engine decomposed the instance.
    zone_reports: list = field(default_factory=list)
    #: The repair engine's telemetry (``mode`` — ``"repair"`` for an accepted
    #: frozen-region solve, ``"full"`` for the full solve —
    #: ``reason``, ``dirty_count``, ``frozen_count``, ``attempts``,
    #: ``reused_zones``); ``None`` when the solve was cold.
    repair: Optional[dict] = None


class ContextSwitchOptimizer:
    """Search for a cheap viable placement honouring requested VM states."""

    def __init__(
        self,
        timeout: float = 40.0,
        planner_options: Optional[PlannerOptions] = None,
        first_solution_only: bool = False,
        engine: str = "event",
    ) -> None:
        """``engine`` selects the propagation engine (``"event"`` or the
        naive ``"fixpoint"`` reference)."""
        if engine not in ENGINES:
            raise SolverError(
                f"unknown propagation engine {engine!r}; expected one of {ENGINES}"
            )
        self.timeout = timeout
        self.planner = ReconfigurationPlanner(planner_options)
        self.first_solution_only = first_solution_only
        self.engine = engine
        #: The unary domains this optimizer's models, the partitioner and
        #: the repair engine wrapped around it all read — kept across rounds
        #: while the catalog and the node set allow it.
        self.domains = RetainedDomains()

    # ------------------------------------------------------------------ #
    # public API                                                          #
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Part of the surface every optimizer offers
        :class:`~repro.core.context_switch.ClusterContextSwitch`; the
        monolithic optimizer holds nothing to release."""

    def mark_dirty(self, vms: Iterable[str]) -> None:
        """Part of the same surface: only the repair engine uses the
        round's perturbed VMs, a cold solve re-decides every VM anyway."""

    def optimize(
        self,
        current: Configuration,
        target_states: Mapping[str, VMState],
        vjob_of_vm: Optional[Mapping[str, str]] = None,
        constraints: Sequence["PlacementConstraint"] = (),
        frozen: AbstractSet[str] = frozenset(),
        timeout: Optional[float] = None,
    ) -> OptimizationResult:
        """Compute an optimized target configuration and its plan; raise
        :class:`~repro.model.errors.PlanningError` when the search finds no
        viable assignment (whether the round then falls back is for
        :meth:`~repro.core.context_switch.ClusterContextSwitch.compute`).

        Parameters
        ----------
        current:
            The observed configuration.
        target_states:
            Desired state for each VM; VMs absent from the mapping keep their
            current state (the ``keepVMState`` constraint of Definition 4.1).
        vjob_of_vm:
            VM -> vjob mapping used to regroup suspends/resumes.
        constraints:
            Placement relations (:mod:`repro.constraints`) the target
            configuration must honour, e.g. spreading the VMs of a vjob over
            distinct nodes for high availability.
        frozen:
            The VMs that keep the host they run on (the repair engine's
            frozen region, whose precondition :mod:`repro.repair` owns), so
            the search only branches over the others.  A frozen region that
            overloads a node fails the search — the repair layer widens.
        timeout:
            Wall-clock budget of this call's search, seconds; ``None`` means
            the constructor's ``timeout``.  The engines that carve a round's
            budget (:mod:`repro.scale.parallel`, :mod:`repro.repair`) pass
            what is left of it here.
        """
        states, changed = self._complete_states(current, target_states)
        assignment, statistics, improving = self.search_assignment(
            current, target_states, constraints, frozen=frozen, timeout=timeout
        )
        if assignment is None:
            raise PlanningError("the optimizer found no viable assignment")
        return self._finish(
            current,
            states,
            changed,
            assignment,
            statistics,
            improving,
            vjob_of_vm,
            constraints,
        )

    def _finish(
        self,
        current: Configuration,
        states: Mapping[str, VMState],
        changed: Sequence[str],
        assignment: Mapping[str, str],
        statistics: SearchStatistics,
        improving: list[int],
        vjob_of_vm: Optional[Mapping[str, str]],
        constraints: Sequence["PlacementConstraint"],
    ) -> OptimizationResult:
        """Turn an assignment into a target, a plan and its price — the one
        path from an assignment (found by one search or merged from zones)
        to an :class:`OptimizationResult`.  ``states`` and ``changed`` are
        what :meth:`_complete_states` returned.  A VM that must run and is
        absent from ``assignment`` keeps its host, so the target, the plan
        and the price are built from the VMs that change state or host,
        whatever the size of the fleet."""
        # A running VM that keeps its host moves for nothing: only the VMs
        # the placement map does not already show there are placed, planned
        # and priced.
        placement = current.placement()
        rehosted = [
            vm for vm, node in assignment.items() if placement.get(vm) != node
        ]
        moved = current.in_registration_order({*changed, *rehosted})
        target = self._build_target(current, states, assignment, moved)
        plan = self.planner.build(
            current, target, vjob_of_vm, constraints=constraints, changed=moved
        )
        return OptimizationResult(
            target=target,
            plan=plan,
            cost=plan_cost(plan).total,
            movement_cost=sum(
                self.movement_cost(current, vm, assignment[vm]) for vm in rehosted
            ),
            fixed_cost=self._fixed_cost(current, states, changed),
            statistics=statistics,
            improving_costs=improving,
        )

    def search_assignment(
        self,
        current: Configuration,
        target_states: Mapping[str, VMState],
        constraints: Sequence["PlacementConstraint"] = (),
        frozen: AbstractSet[str] = frozenset(),
        timeout: Optional[float] = None,
    ) -> tuple[Optional[dict[str, str]], SearchStatistics, list[int]]:
        """Run only the CP search and return a VM -> node *name* assignment.

        This is the solver core without the planning step — the entry point
        the partitioned optimizer (:mod:`repro.scale.parallel`) calls inside
        worker processes, where each zone's assignment is merged into one
        global target before a single planner pass.  Returns ``(None,
        statistics, improving)`` when no viable assignment was found.
        ``timeout`` is the search budget of this call (``None``: the
        constructor's).
        """
        states, _ = self._complete_states(current, target_states)
        running = VMState.RUNNING
        running_vms = [name for name, state in states.items() if state is running]
        assignment, statistics, improving = self._search(
            current,
            states,
            running_vms,
            constraints,
            frozen,
            self.timeout if timeout is None else timeout,
        )
        if assignment is None:
            return None, statistics, improving
        node_names = current.node_names
        return (
            {vm: node_names[index] for vm, index in assignment.items()},
            statistics,
            improving,
        )

    # ------------------------------------------------------------------ #
    # model construction                                                  #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _complete_states(
        current: Configuration, target_states: Mapping[str, VMState]
    ) -> tuple[dict[str, VMState], list[str]]:
        """:func:`complete_states`, refusing the one change no plan makes: a
        running VM cannot return to the Waiting state."""
        states, changed = complete_states(current, target_states)
        for name in changed:
            if (
                states[name] is VMState.WAITING
                and current.state_of(name) is VMState.RUNNING
            ):
                raise PlanningError(
                    f"VM {name!r} is running and cannot return to the Waiting "
                    "state; suspend or terminate it instead"
                )
        return states, changed

    @staticmethod
    def _fixed_cost(
        current: Configuration,
        states: Mapping[str, VMState],
        changed: Sequence[str],
    ) -> int:
        """Cost of the actions whose cost does not depend on the placement:
        the suspends of the VMs that must leave the Running state."""
        return sum(
            current.vm(name).memory
            for name in changed
            if states[name] is VMState.SLEEPING
            and current.state_of(name) is VMState.RUNNING
        )

    @staticmethod
    def _movement_costs(
        current: Configuration, vm_name: str
    ) -> tuple[int, Optional[str], int]:
        """Table 1 for placing ``vm_name`` in the running state, as ``(cost
        elsewhere, home node, cost at home)``: a running VM migrates for
        ``Dm`` or stays on its host for 0, a sleeping one resumes remotely
        for ``2 Dm`` or on the node holding its image for ``Dm``, a waiting
        one has no home and boots anywhere for a constant (0)."""
        vm = current.vm(vm_name)
        state = current.state_of(vm_name)
        if state is VMState.RUNNING:
            return vm.memory, current.location_of(vm_name), 0
        if state is VMState.SLEEPING:
            return 2 * vm.memory, current.image_location_of(vm_name), vm.memory
        return 0, None, 0

    @classmethod
    def movement_cost(
        cls, current: Configuration, vm_name: str, node_name: str
    ) -> int:
        """Movement cost (Table 1) of placing ``vm_name`` running on
        ``node_name``: 0 for staying put or booting, ``Dm`` for a migration
        or local resume, ``2 Dm`` for a remote resume."""
        elsewhere, home, at_home = cls._movement_costs(current, vm_name)
        return at_home if node_name == home else elsewhere

    @staticmethod
    def _incumbent(
        demands: Sequence[tuple[int, int]],
        capacities: Sequence[tuple[int, int]],
        candidates: Sequence[Sequence[int]],
        homes: Sequence[Optional[int]],
    ) -> Optional[list[int]]:
        """The keep-in-place repair of the observed placement — "assign each
        running VM to its initial location in priority" (Section 4.3) — over
        exactly what the model would hold: VM ``i`` asks ``demands[i]``, may
        go to the nodes ``candidates[i]`` and comes from ``homes[i]`` (its
        host, or the node holding its image; ``None`` when it has none or
        may not stay there).  Every VM whose home still has room for it
        stays, the others are packed first-fit-decreasing over their
        candidates.  Returns the node of each VM, or ``None`` when some VM
        fits nowhere: there is then no incumbent, which says nothing about
        the model."""
        free = [list(capacity) for capacity in capacities]
        hosts = [-1] * len(demands)

        def place(vm: int, node: int) -> bool:
            cpu, memory = demands[vm]
            room = free[node]
            if cpu > room[0] or memory > room[1]:
                return False
            room[0] -= cpu
            room[1] -= memory
            hosts[vm] = node
            return True

        homeless = [
            vm
            for vm, home in enumerate(homes)
            if home is None or not place(vm, home)
        ]
        homeless.sort(key=demands.__getitem__, reverse=True)
        for vm in homeless:
            if not any(place(vm, node) for node in candidates[vm]):
                return None
        return hosts

    def _search(
        self,
        current: Configuration,
        states: Mapping[str, VMState],
        running_vms: list[str],
        constraints: Sequence["PlacementConstraint"],
        frozen: AbstractSet[str],
        timeout: float,
    ) -> tuple[Optional[dict[str, int]], SearchStatistics, list[int]]:
        """Answer with the keep-in-place incumbent when it costs the lower
        bound, run the CP search otherwise; returns (assignment or None,
        statistics, improving objective values).  ``timeout`` starts here:
        building the model is paid out of it and the solver gets what is
        left."""
        deadline = time.monotonic() + timeout
        node_names = current.node_names
        if not running_vms:
            # Nothing to place: the empty assignment is trivially optimal.
            return {}, SearchStatistics(proven_optimal=True), [0]

        node_index = {name: i for i, name in enumerate(node_names)}
        # The model covers ``model_vms`` over ``capacities``; ``folded`` is
        # the part of the assignment decided outside it.
        model_vms = running_vms
        capacities = [current.node(name).capacity.as_tuple() for name in node_names]
        folded: dict[str, int] = {}
        relational = any(constraint.relational for constraint in constraints)
        if frozen and not relational:
            # Repair fast path: the frozen VMs never enter the model — their
            # demands stay in the capacities of their hosts and their (zero)
            # movement costs are left out of the objective — so model
            # building and search both scale with the dirty region, not the
            # fleet.  A unary catalog (what a fenced zone's scoped catalog
            # is) compiles to nothing but domains, which the frozen VMs sit
            # inside by the caller's precondition.  Only a relational
            # constraint (Spread, MaxOnline, RunningCapacity…) must see the
            # frozen placements, so under one they stay in the model as
            # fixed variables.
            #
            # What the frozen VMs leave of a node is its live free capacity
            # plus what its unfrozen residents hold.
            placement = current.placement()
            free_capacity = [
                list(current.free_capacity(name).as_tuple()) for name in node_names
            ]
            released = current.load_by_host(placement.keys() - frozen)
            for host, (cpu, memory) in released.items():
                free_capacity[node_index[host]][0] += cpu
                free_capacity[node_index[host]][1] += memory
            if any(cpu < 0 or memory < 0 for cpu, memory in free_capacity):
                # The frozen region alone overloads a node (an overloaded
                # host nobody marked dirty, post-crash slack gone):
                # infeasible while they stay, the repair layer widens.
                return None, SearchStatistics(), []
            folded = {
                vm: node_index[host] for vm, host in placement.items() if vm in frozen
            }
            capacities = [tuple(capacity) for capacity in free_capacity]
            model_vms = [name for name in running_vms if name not in frozen]
            if not model_vms:
                # Everything is frozen: the previous placement *is* the
                # solution.
                return folded, SearchStatistics(proven_optimal=True), [0]

        # Unary placement constraints (Ban/Fence/Root) shrink the domain of
        # the assignment variable before the search even starts.
        # ``vm_domains`` hands the members of one restriction one shared set,
        # so the node list of a restriction is built once and copied per
        # variable.
        domains = self.domains.of(current, model_vms, constraints)

        # What the model is made of, gathered before any model exists: per
        # VM its demand, its Table 1 costs, the nodes it may take (one list
        # shared by the members of one restriction) and the home it may keep.
        demands = [current.vm(name).demand.as_tuple() for name in model_vms]
        tables: list[CostTable] = []
        homes: list[Optional[int]] = []
        candidates: list[list[int]] = []
        node_lists: dict[int, list[int]] = {}
        #: Every node some variable of the model can take.
        reachable: set[int] = set()
        #: No placement costs less: every VM at the cheapest Table 1 cost its
        #: domain offers (meaningless under fixed variables, and unused).
        bound = 0
        for vm_name in model_vms:
            elsewhere, home, at_home = self._movement_costs(current, vm_name)
            tables.append(
                CostTable(elsewhere, {} if home is None else {node_index[home]: at_home})
            )
            if vm_name in frozen:
                # Only under a relational catalog: folded otherwise.
                candidates.append([node_index[home]])
                homes.append(None)
                reachable.add(node_index[home])
                continue
            allowed = domains[vm_name]
            nodes = node_lists.get(id(allowed))
            if nodes is None:
                nodes = node_lists[id(allowed)] = [
                    i
                    for i, name in enumerate(node_names)
                    if allowed is None or name in allowed
                ]
                reachable.update(nodes)
            if not nodes:
                # Decided on the built list: a restriction may be non-empty
                # yet name no node of this configuration.
                return None, SearchStatistics(), []
            candidates.append(nodes)
            if home is not None and (allowed is None or home in allowed):
                homes.append(node_index[home])
                bound += at_home
            else:
                homes.append(None)
                bound += elsewhere

        for dimension in (0, 1):
            if sum(demand[dimension] for demand in demands) > sum(
                capacities[index][dimension] for index in reachable
            ):
                # Over-committed: the VMs ask for more than every node they
                # may go to offers together.  No search can place them, and
                # one left to find that out walks the whole tree first.
                return None, SearchStatistics(), []

        # Incumbent first.  Most rounds leave most VMs where they are, so
        # the keep-in-place repair of the observed placement is usually the
        # optimum already: when it costs the trivial lower bound — every VM
        # at the cheapest Table 1 cost its domain offers — it is the answer,
        # whatever budget is left, and no model is built to rediscover it.
        # It packs and reads unary domains only, so a relational catalog
        # gets none.
        incumbent = (
            None
            if relational
            else self._incumbent(demands, capacities, candidates, homes)
        )

        def answer(hosts: Iterable[int]) -> dict[str, int]:
            """The whole assignment: the folded VMs, then the model's."""
            return {**folded, **dict(zip(model_vms, hosts))}

        if incumbent is not None:
            cost = sum(map(CostTable.cost, tables, incumbent))
            if cost == bound:
                statistics = SearchStatistics(solutions=1, proven_optimal=True)
                with obs_span("cp.solve", engine=self.engine) as trace_span:
                    SearchResult(
                        best=None,
                        statistics=statistics,
                        stop="incumbent",
                        root_bound=bound,
                    ).record_on(trace_span)
                return answer(incumbent), statistics, [cost]

        model = Model()
        assignment_vars: list[IntVar] = []
        preferences: dict[str, int] = {}
        templates: dict[int, Domain] = {}
        for vm_name, nodes, home in zip(model_vms, candidates, homes):
            if vm_name in frozen:
                assignment_vars.append(model.pinned_var(f"x({vm_name})", nodes[0]))
                continue
            template = templates.get(id(nodes))
            if template is None:
                template = templates[id(nodes)] = Domain(nodes)
            var = model.int_var(f"x({vm_name})", template.copy())
            assignment_vars.append(var)
            if home is not None:
                preferences[var.name] = home
        model.add_constraint(VectorPacking(assignment_vars, demands, capacities))

        # Relational placement constraints (Spread/Gather) become solver
        # constraints over the assignment variables.
        variables_by_vm = dict(zip(model_vms, assignment_vars))
        for constraint in constraints:
            for cp_constraint in constraint.cp_constraints(variables_by_vm, node_index):
                model.add_constraint(cp_constraint)

        # Scale the cost tables so the objective domain stays tractable.
        node_count = len(node_names)
        costs = [table.costs(node_count) for table in tables]
        upper = sum(map(max, costs))
        scale = max(1, math.gcd(*(cost for row in costs for cost in row)) or 1)
        if upper // scale > _MAX_OBJECTIVE_RANGE:
            scale = max(scale, math.ceil(upper / _MAX_OBJECTIVE_RANGE))
        scaled_tables = [
            CostTable(
                math.ceil(table.default / scale),
                {k: math.ceil(v / scale) for k, v in table.exceptions.items()},
            )
            for table in tables
        ]
        scaled_upper = sum(max(table.costs(node_count)) for table in scaled_tables)
        # Interval domain: the objective spans up to _MAX_OBJECTIVE_RANGE
        # values and is only ever tightened from the outside in, so bound
        # updates must not pay for the width.
        total_var = model.interval_var("total_cost", 0, scaled_upper)
        model.add_constraint(ElementSum(assignment_vars, scaled_tables, total_var))

        # First-fail flavoured ordering: the most demanding VMs first
        # (Section 4.3, following Haralick & Elliott).
        order = sorted(
            range(len(model_vms)),
            key=lambda i: (demands[i][0], demands[i][1]),
            reverse=True,
        )
        ordered_vars = [assignment_vars[i] for i in order]

        # An incumbent that missed the bound seeds branch-and-bound: the
        # search only accepts strictly cheaper assignments.
        initial_bound = None
        if incumbent is not None:
            initial_bound = sum(map(CostTable.cost, scaled_tables, incumbent))

        # Last-conflict intensification around the paper's static
        # biggest-first order: after a failure the search branches on the
        # conflicting variable first instead of thrashing down the order.
        solver = Solver(
            model,
            variable_selector=ActivityLastConflict(static_order(ordered_vars)),
            value_selector=prefer_value(preferences),
            engine=self.engine,
        )
        result = solver.solve(
            minimize=total_var,
            timeout=max(0.0, deadline - time.monotonic()),
            collect_all=True,
            first_solution_only=self.first_solution_only,
            initial_bound=initial_bound,
        )
        improving = [
            solution.objective * scale
            for solution in result.all_solutions
            if solution.objective is not None
        ]
        # A search that did not improve on the incumbent (or ran out of time
        # before matching it) leaves the incumbent as the answer.
        hosts = incumbent
        if result.best is not None:
            hosts = [result.best[f"x({vm_name})"] for vm_name in model_vms]
        if hosts is None:
            return None, result.statistics, improving
        return answer(hosts), result.statistics, improving

    # ------------------------------------------------------------------ #
    # target construction                                                 #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _build_target(
        current: Configuration,
        states: Mapping[str, VMState],
        assignment: Mapping[str, str],
        moved: Sequence[str],
    ) -> Configuration:
        """Build the target configuration: ``current`` with each VM of
        ``moved`` — those whose state changes or whose ``assignment`` is not
        their host — put in its wanted state, on its assigned node."""
        target = current.copy()
        for name in moved:
            apply_state(target, current, name, states[name], assignment)
        return target
