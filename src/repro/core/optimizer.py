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

Frozen VMs.  The repair engine (:mod:`repro.repair`) may hand a solve its
dirty region, the VMs it re-decides: every other VM that runs and must keep
running keeps the host it runs on.  It owns the precondition of those frozen
VMs — running, on a node of the configuration, inside the unary domain, not
leaving, and a relational group frozen whole or not at all — and nothing
here checks it again.  A frozen VM is never a variable.  The dirty VMs are
placed by the keep-in-place pass
(:meth:`ContextSwitchOptimizer._keep_in_place`, which reads node loads and
the few VMs that cannot stay home); only a round it misses the lower bound
on builds a model, over one *cut* (:func:`extract`): the dirty VMs over the
nodes they may take or come from, each offering what the frozen VMs leave,
under what the catalog asks of them once the frozen ones stay
(:func:`residual_catalog`), with the domains the round holds.  Without a
dirty region the pass places every VM that must run, and one search follows
when it declines; the partitioned optimizer (:mod:`repro.scale.parallel`)
searches by zones instead.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Iterable, Mapping, Optional, Sequence

from ..constraints import PlacementConstraint
from ..constraints.domains import RetainedDomains
from ..model.configuration import Configuration
from ..model.errors import PlanningError, SolverError
from ..model.node import Node
from ..model.vm import VMState
from ..obs import current_tracer, span as obs_span
from ..cp import (
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
from .cost import PlanCost, plan_cost
from .plan import ReconfigurationPlan
from .planner import ReconfigurationPlanner


#: Maximum number of distinct values allowed in the objective domain; larger
#: cost ranges are scaled down (the optimum is then approximate, which only
#: affects tie-breaking between plans of nearly identical costs).
_MAX_OBJECTIVE_RANGE = 120_000

#: What :func:`complete_states` returns: the wanted state of every VM, and
#: the VMs whose wanted state is not the observed one.
CompletedStates = tuple[dict[str, VMState], Sequence[str]]

#: What a search answers: the node of every VM it placed (``None`` when it
#: found no viable assignment), its statistics and the improving costs.
Found = tuple[Optional[dict[str, str]], SearchStatistics, list[int]]


def complete_states(
    current: Configuration,
    target_states: Mapping[str, VMState],
    since: Optional[tuple[AbstractSet[str], Sequence[str]]] = None,
) -> tuple[dict[str, VMState], list[str]]:
    """The state wanted of every VM of ``current`` (``keepVMState``: a VM
    ``target_states`` does not name keeps the observed one; a name
    ``current`` does not know is ignored), in registration order, and the
    VMs whose wanted state is not the observed one, in the same order.  One
    pass over ``current``, each VM looked up in ``target_states``: a zone's
    completion reads the zone, whatever the size of the decision.

    ``since`` is ``(written, changed)`` from a caller that completed the
    same ``target_states`` over an earlier configuration, ``changed`` being
    what that completion returned and ``written`` the VMs whose state was
    written between the two configurations (a change journal): only the
    written VMs are looked up again, and the copy of the observed states is
    the one pass over the fleet."""
    states = current.states()
    if since is None:
        changed = [
            name
            for name, state in states.items()
            if target_states.get(name, state) is not state
        ]
    else:
        written, before = since
        still = {name for name in before if name not in written}
        still.update(
            name
            for name in written
            if (state := states.get(name)) is not None
            and target_states.get(name, state) is not state
        )
        changed = current.in_registration_order(still)
    for name in changed:
        states[name] = target_states[name]
    return states, changed


def extract(
    current: Configuration,
    node_names: Sequence[str],
    vms: Sequence[str],
    released: Optional[Mapping[str, Sequence[int]]] = None,
) -> Configuration:
    """The sub-configuration of ``current`` a solve searches: the nodes
    ``node_names`` and the VMs ``vms``, in those orders, each VM keeping its
    current state when the node it runs on (or holding its image) is one of
    the nodes and degraded to *waiting* otherwise — its movement cost is
    then the same on every node, so the arg-min placement is unaffected.

    Without ``released`` the nodes keep their capacity.  With it the
    extraction is a *cut*: ``vms`` are the VMs to re-place and every other
    VM that runs keeps its host, so a node offers what those leave — its
    live free capacity plus ``released``, the (cpus, MB) the running VMs
    that do not keep their host hold on it."""
    if released is None:
        nodes = [current.node(name) for name in node_names]
    else:
        nodes = []
        for name in node_names:
            free = current.free_capacity(name)
            cpu, memory = released.get(name, (0, 0))
            role = current.node(name).role
            nodes.append(Node(name, free.cpu + cpu, free.memory + memory, role))
    sub = Configuration(nodes=nodes)
    inside = set(node_names)
    for vm_name in vms:
        sub.add_vm(current.vm(vm_name))
        state = current.state_of(vm_name)
        if state is VMState.RUNNING:
            host = current.location_of(vm_name)
            if host in inside:
                sub.set_running(vm_name, host)
        elif state is VMState.SLEEPING:
            image = current.image_location_of(vm_name)
            if image in inside:
                sub.set_sleeping(vm_name, image)
    return sub


def residual_catalog(
    constraints: Sequence[PlacementConstraint],
    current: Configuration,
    moving: AbstractSet[str],
) -> Optional[list[PlacementConstraint]]:
    """What ``constraints`` ask of the VMs a cut re-places when every
    running VM not in ``moving`` keeps its host
    (:meth:`~repro.constraints.base.PlacementConstraint.residual`), or
    ``None`` when those stayers alone break one of them.  Only a cut reads
    it, so no residual reaches a memory keyed on constraint identity (the
    domains)."""
    catalog = []
    for constraint in constraints:
        residual = constraint.residual(current, moving)
        if residual is None:
            return None
        catalog.append(residual)
    return catalog


def _in_node_order(current: Configuration, names: Iterable) -> list[str]:
    """The nodes of ``current`` among ``names``, in node order (a domain may
    name nodes the configuration does not hold)."""
    return sorted(filter(current.has_node, names), key=current.node_index)


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
    #: The plan's Table 1 price, computed once per plan.
    price: PlanCost
    movement_cost: int
    statistics: Optional[SearchStatistics] = None
    improving_costs: list[int] = field(default_factory=list)
    #: How the instance was decomposed: ``"interference"`` or ``"sharded"``
    #: when a partitioned engine solved it by zones, ``"monolithic"``
    #: otherwise.
    partition_method: str = "monolithic"
    #: One :class:`~repro.scale.parallel.ZoneOutcome` per zone, in zone
    #: order; empty unless a partitioned engine solved the instance by zones.
    zone_reports: list = field(default_factory=list)
    #: The repair engine's telemetry (``mode`` — ``"repair"`` for an accepted
    #: frozen-region solve, ``"full"`` for the full solve —
    #: ``reason``, ``dirty_count``, ``frozen_count``, ``attempts``);
    #: ``None`` when the solve was cold.
    repair: Optional[dict] = None

    @property
    def cost(self) -> int:
        """The plan's total Table 1 cost (:attr:`price`)."""
        return self.price.total


class ContextSwitchOptimizer:
    """Search for a cheap viable placement honouring requested VM states."""

    def __init__(
        self,
        timeout: float = 40.0,
        first_solution_only: bool = False,
        engine: str = "event",
    ) -> None:
        """``engine`` names the one propagation path, ``"event"``; any other
        name raises.  It is kept only for callers that still pass it."""
        if engine != "event":
            raise SolverError(
                f"unknown propagation engine {engine!r}; expected 'event'"
            )
        self.timeout = timeout
        self.planner = ReconfigurationPlanner()
        self.first_solution_only = first_solution_only
        #: The unary domains this optimizer's models, the partitioner, the
        #: repair engine wrapped around it and, in a control loop, the
        #: policy all read — kept across rounds while their key holds.
        self.domains = RetainedDomains()

    # ------------------------------------------------------------------ #
    # public API                                                          #
    # ------------------------------------------------------------------ #

    def mark_dirty(self, vms: Iterable[str]) -> None:
        """Part of the surface every optimizer offers
        :class:`~repro.core.context_switch.ClusterContextSwitch`: only the
        repair engine uses the round's perturbed VMs, a cold solve
        re-decides every VM anyway."""

    def optimize(
        self,
        current: Configuration,
        target_states: Mapping[str, VMState],
        vjob_of_vm: Optional[Mapping[str, str]] = None,
        constraints: Sequence["PlacementConstraint"] = (),
        dirty: Optional[AbstractSet[str]] = None,
        deadline: Optional[float] = None,
        completed: Optional[CompletedStates] = None,
        settled: Optional[dict[int, Optional[str]]] = None,
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
        dirty:
            The VMs to run that this solve re-decides (the repair engine's
            dirty region); every other VM that runs and must keep running
            keeps its host — it is *frozen*, a precondition
            :mod:`repro.repair` owns — so only the dirty ones are kept in
            place or searched, as one cut (:meth:`_search_cut`).  ``None``
            re-decides every VM that must run, in the whole-fleet step.
        deadline:
            The round's deadline, a :func:`time.monotonic` instant; ``None``
            means the constructor's ``timeout`` from now.  The repair engine
            makes it once and hands every solve of the round the same value.
        completed:
            ``target_states`` completed over ``current`` — the ``(states,
            changed)`` pair :meth:`_complete_states` returns; ``None`` means
            complete them here.  The repair engine completes them once per
            round and hands every solve the same pair.
        settled:
            What the repair engine knows of the constraints' answers on
            ``current`` without asking them, for the plan's check
            (:func:`~repro.constraints.checker.check_plan`).
        """
        if deadline is None:
            deadline = time.monotonic() + self.timeout
        if completed is None:
            completed = self._complete_states(current, target_states)
        states, changed = completed
        running = VMState.RUNNING
        leaving = [vm for vm in changed if current.state_of(vm) is running]
        if dirty is not None:
            found = self._search_cut(
                current, states, leaving, constraints, dirty, deadline
            )
        else:
            vms = [vm for vm, state in states.items() if state is running]
            domains = self.domains.of(current, vms, constraints)
            found = None
            if self._may_keep_in_place(current, vms, domains):
                found = self._keep_in_place(current, vms, leaving, domains, constraints)
            if found is None:
                return self._search_whole(
                    current, states, vms, domains, constraints, deadline,
                    lambda found: self._finish(
                        current, completed, found, vjob_of_vm, constraints, settled
                    ),
                )
        return self._finish(current, completed, found, vjob_of_vm, constraints, settled)

    def _may_keep_in_place(
        self,
        current: Configuration,
        vms: Sequence[str],
        domains: Mapping[str, Optional[AbstractSet[str]]],
    ) -> bool:
        """Whether the whole-fleet step offers ``vms``, every VM that must
        run, to :meth:`_keep_in_place` before it searches."""
        return True

    def _search_whole(
        self,
        current: Configuration,
        states: Mapping[str, VMState],
        vms: Sequence[str],
        domains: Mapping[str, Optional[AbstractSet[str]]],
        constraints: Sequence["PlacementConstraint"],
        deadline: float,
        finish: Callable[[Found], OptimizationResult],
    ) -> OptimizationResult:
        """The search of the whole-fleet step, once the pass declined: one
        search over ``vms``, the VMs that must run (of the completed
        ``states``), with their ``domains``; ``finish`` plans what it found
        (:meth:`_finish`)."""
        return finish(self._search(current, vms, domains, constraints, deadline))

    def _finish(
        self,
        current: Configuration,
        completed: CompletedStates,
        found: Found,
        vjob_of_vm: Optional[Mapping[str, str]],
        constraints: Sequence["PlacementConstraint"],
        settled: Optional[dict[int, Optional[str]]] = None,
    ) -> OptimizationResult:
        """Turn what a search ``found`` — an assignment (from one search, or
        merged from zones), its statistics and improving costs — into a
        target, a plan and its price; raise
        :class:`~repro.model.errors.PlanningError` when it found no
        assignment.  ``completed`` is what :meth:`_complete_states` returned.
        A VM that must run and is absent from the assignment keeps its host,
        so the target, the plan and the price are built from the VMs that
        change state or host, whatever the size of the fleet."""
        assignment, statistics, improving = found
        if assignment is None:
            raise PlanningError("the optimizer found no viable assignment")
        states, changed = completed
        # A running VM that keeps its host moves for nothing: only the VMs
        # the placement map does not already show there are placed, planned
        # and priced.
        placement = current.placement_view()
        rehosted = [
            vm for vm, node in assignment.items() if placement.get(vm) != node
        ]
        moved = current.in_registration_order({*changed, *rehosted})
        target = self._build_target(current, states, assignment, moved)
        plan = self.planner.build(
            current,
            target,
            vjob_of_vm,
            constraints=constraints,
            changed=moved,
            settled=settled,
        )
        return OptimizationResult(
            target=target,
            plan=plan,
            price=plan_cost(plan),
            movement_cost=sum(
                self.movement_cost(current, vm, assignment[vm]) for vm in rehosted
            ),
            statistics=statistics,
            improving_costs=improving,
        )

    def _search_cut(
        self,
        current: Configuration,
        states: Mapping[str, VMState],
        leaving: Sequence[str],
        constraints: Sequence["PlacementConstraint"],
        dirty: AbstractSet[str],
        deadline: float,
    ) -> Found:
        """The assignment of the VMs of ``dirty`` that must run, the frozen
        VMs staying and the ``leaving`` ones stopping: the keep-in-place
        pass (:meth:`_keep_in_place`) when it meets the lower bound, else
        the search of one cut, as a zone is searched
        (:func:`~repro.scale.parallel.solve_zone`) — those VMs over the
        nodes they may take or come from (every node when one of them is
        unrestricted), each offering what the frozen VMs leave, under the
        residual catalog; ``None`` when the frozen VMs alone break a
        relation.  The cut is searched with the domains this optimizer
        holds: a residual restricts the dirty VMs as its relation does, and
        the cut holds every node of ``current`` their domains name."""
        running = VMState.RUNNING
        vms = current.in_registration_order(
            [vm for vm in dirty if states.get(vm) is running]
        )
        domains = self.domains.of(current, vms, constraints)
        kept = self._keep_in_place(current, vms, leaving, domains, constraints)
        if kept is not None:
            return kept
        moving = {*dirty, *leaving}
        catalog = residual_catalog(constraints, current, moving)
        if catalog is None:
            return None, SearchStatistics(), []
        nodes = current.node_names
        if all(domains[vm] is not None for vm in vms):
            # The nodes the VMs may take or come from, in node order.
            names = {
                current.location_of(vm) or current.image_location_of(vm)
                for vm in vms
            }
            for allowed in {id(domains[vm]): domains[vm] for vm in vms}.values():
                names.update(allowed)
            nodes = _in_node_order(current, names)
        cut = extract(current, nodes, vms, current.load_by_host(moving))
        return self._search(cut, vms, domains, catalog, deadline)

    # ------------------------------------------------------------------ #
    # model construction                                                  #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _complete_states(
        current: Configuration,
        target_states: Mapping[str, VMState],
        since: Optional[tuple[AbstractSet[str], Sequence[str]]] = None,
    ) -> tuple[dict[str, VMState], list[str]]:
        """:func:`complete_states`, refusing the one change no plan makes: a
        running VM cannot return to the Waiting state."""
        states, changed = complete_states(current, target_states, since)
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
        capacity: Callable[[object], tuple[int, int]],
        candidates: Sequence[Sequence],
        homes: Sequence,
    ) -> Optional[list]:
        """The keep-in-place repair of the observed placement — "assign each
        running VM to its initial location in priority" (Section 4.3) — over
        exactly what the model would hold: VM ``i`` asks ``demands[i]``, may
        go to the nodes ``candidates[i]`` and comes from ``homes[i]`` (its
        host, or the node holding its image; ``None`` when it has none or
        may not stay there); ``capacity(node)`` is asked once per node the
        packing reaches.  Every VM whose home still has room for it stays,
        the others are packed first-fit-decreasing over their candidates.
        Returns the node of each VM, or ``None`` when some VM fits nowhere:
        there is then no incumbent, which says nothing about the model."""
        free: dict = {}
        hosts: list = [None] * len(demands)

        def place(vm: int, node) -> bool:
            cpu, memory = demands[vm]
            room = free.get(node)
            if room is None:
                room = free[node] = list(capacity(node))
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

    def _answered_by_incumbent(
        self, bound: int, since: Optional[float] = None
    ) -> SearchStatistics:
        """Record a solve its incumbent answered at the lower ``bound`` (a
        ``cp.solve`` span with ``stop="incumbent"``, from tracer time
        ``since`` if given) and return its statistics."""
        statistics = SearchStatistics(solutions=1, proven_optimal=True)
        with obs_span("cp.solve") as trace_span:
            if since is not None:
                trace_span.start = since
            SearchResult(
                best=None, statistics=statistics, stop="incumbent", root_bound=bound
            ).record_on(trace_span)
        return statistics

    def _keep_in_place(
        self,
        current: Configuration,
        vms: Sequence[str],
        leaving: Sequence[str],
        domains: Mapping[str, Optional[AbstractSet[str]]],
        constraints: Sequence["PlacementConstraint"],
    ) -> Optional[Found]:
        """The keep-in-place repair of ``vms``, the VMs to place (in
        registration order), when it costs the lower bound, as a search
        answers (the assignment, its statistics, its cost), else ``None``.
        Its ``cp.solve`` span covers it.

        ``leaving`` are the running VMs that must stop; every other VM that
        runs and is not in ``vms`` stays.  ``domains`` holds the unary
        domain of each VM to place, ``None`` meaning unrestricted.  The
        pass reads unary domains only: it declines a relational catalog, and
        an empty ``vms`` (nothing to place).

        Table 1 prices a stay below a move, so the bound is met exactly when
        every VM that may stay home does.  Every VM stays but the
        ``leaving``, the *misplaced* (running outside its domain) and the
        *arriving* ones (not running), of which only a resume onto its image
        node stays home.  A node has its free capacity left, plus what its
        leaving and misplaced residents hold, minus the resumes onto it.
        The stayers all stay when no node is left short, and a node none of
        the exceptions touches is short only when it is overloaded.  The
        homeless are packed by :meth:`_incumbent` over what is left, in
        registration order, each domain in node order."""
        if not vms or any(constraint.relational for constraint in constraints):
            return None
        tracer = current_tracer()
        started = tracer.now() if tracer is not None else None
        placement = current.placement_view()
        hosts, arriving = {}, []
        for vm in vms:
            host = placement.get(vm)
            if host is None:
                arriving.append(vm)
            else:
                hosts[vm] = host
        misplaced = [
            vm
            for vm, host in hosts.items()
            if (allowed := domains[vm]) is not None and host not in allowed
        ]
        shift = current.load_by_host([*leaving, *misplaced])
        homeless, bound = [], 0
        for vm in [*misplaced, *arriving]:
            elsewhere, home, at_home = self._movement_costs(current, vm)
            allowed = domains[vm]
            if home is not None and (allowed is None or home in allowed):
                hosts[vm] = home
                machine = current.vm(vm)
                load = shift.setdefault(home, [0, 0])
                load[0] -= machine.cpu_demand
                load[1] -= machine.memory
                bound += at_home
            else:
                homeless.append(vm)
                bound += elsewhere

        def room(node: str) -> tuple[int, int]:
            free = current.free_capacity(node)
            cpu, memory = shift.get(node, (0, 0))
            return free.cpu + cpu, free.memory + memory

        overloaded = [v.node for v in current.viability_violations(only_dirty=True)]
        if any(min(room(node)) < 0 for node in {*overloaded, *shift}):
            return None
        homeless = current.in_registration_order(homeless)
        candidates, ordered = [], {}
        for vm in homeless:
            allowed = domains[vm]
            nodes = ordered.get(id(allowed))
            if nodes is None:
                nodes = ordered[id(allowed)] = (
                    current.node_names
                    if allowed is None
                    else _in_node_order(current, allowed)
                )
            candidates.append(nodes)
        demands = [current.vm(vm).demand.as_tuple() for vm in homeless]
        packed = self._incumbent(demands, room, candidates, [None] * len(homeless))
        if packed is None:
            return None
        hosts.update(zip(homeless, packed))
        return hosts, self._answered_by_incumbent(bound, started), [bound]

    def search_assignment(
        self,
        current: Configuration,
        target_states: Mapping[str, VMState],
        constraints: Sequence["PlacementConstraint"] = (),
        deadline: Optional[float] = None,
        completed: Optional[CompletedStates] = None,
    ) -> Found:
        """Run only the CP search and return a VM -> node *name* assignment
        of every VM that must run: the keep-in-place incumbent when it costs
        the lower bound, the search's best otherwise, ``None`` when no
        viable assignment was found — with the statistics and the improving
        objective values.

        This is the solver core without the planning step — the entry point
        the partitioned optimizer (:mod:`repro.scale.parallel`) calls for
        each zone, whose assignments are merged into one global target
        before a single planner pass.  ``deadline`` and
        ``completed`` are as in :meth:`optimize` (the search reads the
        states only): building the model is paid out of the time left until
        the deadline and the solver gets what remains — nothing once it has
        passed.
        """
        if deadline is None:
            deadline = time.monotonic() + self.timeout
        if completed is None:
            completed = self._complete_states(current, target_states)
        vms = [vm for vm, state in completed[0].items() if state is VMState.RUNNING]
        domains = self.domains.of(current, vms, constraints)
        return self._search(current, vms, domains, constraints, deadline)

    def _search(
        self,
        current: Configuration,
        running_vms: Sequence[str],
        domains: Mapping[str, Optional[AbstractSet[str]]],
        constraints: Sequence["PlacementConstraint"],
        deadline: float,
    ) -> Found:
        """:meth:`search_assignment` of ``running_vms``, the VMs that must
        run (in registration order), whose unary ``domains`` the caller
        holds."""
        if not running_vms:
            # Nothing to place: the empty assignment is trivially optimal.
            return {}, SearchStatistics(proven_optimal=True), [0]

        node_names = current.node_names
        node_index = {name: i for i, name in enumerate(node_names)}
        capacities = [current.node(name).capacity.as_tuple() for name in node_names]
        relational = any(constraint.relational for constraint in constraints)

        # What the model is made of, gathered before any model exists: per
        # VM its demand, its Table 1 costs, the nodes it may take (one list
        # shared by the members of one restriction) and the home it may keep.
        demands = [current.vm(name).demand.as_tuple() for name in running_vms]
        tables: list[CostTable] = []
        homes: list[Optional[int]] = []
        candidates: list[list[int]] = []
        node_lists: dict[int, list[int]] = {}
        #: Every node some variable of the model can take.
        reachable: set[int] = set()
        #: No placement costs less: every VM at the cheapest Table 1 cost its
        #: domain offers.
        bound = 0
        for vm_name in running_vms:
            elsewhere, home, at_home = self._movement_costs(current, vm_name)
            tables.append(
                CostTable(elsewhere, {} if home is None else {node_index[home]: at_home})
            )
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
            else self._incumbent(demands, capacities.__getitem__, candidates, homes)
        )

        if incumbent is not None:
            cost = sum(map(CostTable.cost, tables, incumbent))
            if cost == bound:
                answer = dict(zip(running_vms, map(node_names.__getitem__, incumbent)))
                return answer, self._answered_by_incumbent(bound), [cost]

        model = Model()
        assignment_vars: list[IntVar] = []
        preferences: dict[str, int] = {}
        templates: dict[int, Domain] = {}
        for vm_name, nodes, home in zip(running_vms, candidates, homes):
            template = templates.get(id(nodes))
            if template is None:
                template = templates[id(nodes)] = Domain(nodes)
            var = model.int_var(f"x({vm_name})", template.copy())
            assignment_vars.append(var)
            if home is not None:
                preferences[var.name] = home
        model.add_constraint(VectorPacking(assignment_vars, demands, capacities))

        # Relational placement constraints (Spread/RunningCapacity) become
        # solver constraints over the assignment variables.
        variables_by_vm = dict(zip(running_vms, assignment_vars))
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
            range(len(running_vms)),
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
            hosts = [result.best[f"x({vm_name})"] for vm_name in running_vms]
        if hosts is None:
            return None, result.statistics, improving
        answer = dict(zip(running_vms, map(node_names.__getitem__, hosts)))
        return answer, result.statistics, improving

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
