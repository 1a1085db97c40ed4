"""The repair optimizer: freeze the clean region, solve the dirty one.

The engine keeps the previous round's assignment across calls.  Each round
it derives the *dirty region* — the VMs whose placement may have to change —
from four deterministic rules, each read from what moved rather than from
the fleet (:func:`dirty_region`, the one body both
:meth:`RepairOptimizer._dirty_region` and :func:`compute_dirty_set` call):

1. **external marks** — VMs the control loop flagged as perturbed this round
   (crashed-node victims, new arrivals, members of violated constraints),
   handed over through :meth:`RepairOptimizer.mark_dirty`;
2. **needs placement** — VMs that must run but are not currently running
   (also covers resumes and failed migrations re-observed as waiting): they
   are among the VMs whose wanted state is not the observed one, which the
   state completion already lists;
3. **invalidated placements** — running VMs whose current host is no longer
   allowed by the (possibly crash-shrunken) unary constraints, or whose host
   diverges from the previous assignment: one pass over ``placement()``
   against the previous assignment and the retained unary domains
   (:class:`~repro.constraints.domains.RetainedDomains` — recomputed only
   when the catalog or the node set changed);
4. **relational closure and halo** — any dirty member of a relational group
   dirties the whole group, and ``halo`` rounds of co-host expansion dirty
   the VMs sharing a node with a dirty running VM, read from
   ``Configuration.vms_on(host)``.

Everything else that runs and must keep running is *frozen*: it keeps the
host it runs on, and the set is handed to the inner optimizer as ``frozen``,
which folds those VMs into their hosts' residual capacities — under a
catalog too, as long as it holds no relational constraint — so the model it
builds, and the round, cost what changed rather than the fleet.  The rules
are the one owner of what a frozen VM is: it runs, on a node of the
configuration (rule 2 dirties whatever a crash evicted), inside its retained
unary domain (rule 3) and is not leaving; the layers below do not check it
again.  On infeasibility the neighbourhood widens
deterministically (the VMs frozen on the emptiest quarter, then half, of the
nodes are released), and the last step is always the full monolithic solve
— so the repair engine accepts exactly the instances the cold solve accepts,
and raises where it raises.

Retained across rounds: the previous assignment (owner: this engine;
replaced by every accepted round) and the unary domains (owner:
:attr:`RepairOptimizer.domains`, shared with the inner optimizer; key and
invalidation in :class:`~repro.constraints.domains.RetainedDomains`).
:meth:`RepairOptimizer.forget` drops both, and with the domains everything
derived from them.
"""

from __future__ import annotations

import time
from typing import Container, Iterable, Iterator, Mapping, Optional, Sequence, Set

from ..constraints.base import PlacementConstraint
from ..constraints.domains import RetainedDomains, vm_domains
from ..core.optimizer import (
    MIN_CARVED_TIMEOUT_S,
    ContextSwitchOptimizer,
    OptimizationResult,
    leftover_budget,
)
from ..model.configuration import Configuration
from ..model.errors import PlanningError
from ..model.vm import VMState
from ..obs import span

#: Widening steps of the deterministic neighbourhood schedule (a quarter,
#: then half, of the nodes released) before the full solve.
_LNS_STEPS = 2


class _MustRun:
    """The VMs whose wanted state is Running, as a membership test over the
    wanted states: a warm round asks it of the few VMs that moved, and only
    a cold start lists them."""

    def __init__(self, states: Mapping[str, VMState]) -> None:
        self._states: Mapping = states

    def __contains__(self, vm_name: object) -> bool:
        return self._states.get(vm_name) is VMState.RUNNING

    def __iter__(self) -> Iterator[str]:
        running = VMState.RUNNING
        return (name for name, state in self._states.items() if state is running)


def _relational_closure(
    dirty: Set[str],
    constraints: Sequence[PlacementConstraint],
    placed: Container[str],
) -> None:
    """Dirty any relational group with a dirty member (in place, to a
    fixpoint: ``Among`` groups may chain through shared members)."""
    changed = True
    while changed:
        changed = False
        for constraint in constraints:
            if not constraint.relational:
                # Unary constraints (Fence, Ban) restrict each member
                # independently — a dirty member never forces the others to
                # move; their per-VM domains are enforced by the
                # invalidated-placement rule instead.
                continue
            members = [vm for vm in constraint.vms if vm in placed]
            if len(members) < 2:
                continue
            if any(vm in dirty for vm in members) and not all(
                vm in dirty for vm in members
            ):
                dirty.update(members)
                changed = True


def dirty_region(
    current: Configuration,
    must_run: Container[str],
    changed: Iterable[str],
    placement: Mapping[str, str],
    domains: Mapping[str, Optional[Container[str]]],
    constraints: Sequence[PlacementConstraint],
    marks: Iterable[str],
    previous: Mapping[str, str],
    halo: int,
) -> Set[str]:
    """The perturbed region of one round (see the module docstring rules),
    read from what moved: ``must_run`` are the VMs that must run,
    ``changed`` the VMs whose wanted state is not the observed one,
    ``placement`` the hosts of the VMs that run, ``domains`` their unary
    domains, ``marks`` the externally flagged perturbations and
    ``previous`` the assignment of the last accepted round.
    Deterministic: depends only on its inputs."""
    dirty = {vm for vm in marks if vm in must_run}
    # Arrivals, resumes, crash victims: nothing to freeze.
    dirty.update(vm for vm in changed if vm in must_run)
    # Execution diverged from the last plan (a failed migration), or the
    # placement was invalidated after the fact (an elastic Fence that shrank
    # when a node crashed): re-decide the VM rather than trusting — or
    # freezing it on a retired domain — its host.
    dirty.update(
        vm
        for vm, host in placement.items()
        if (
            previous.get(vm) != host
            or ((allowed := domains[vm]) is not None and host not in allowed)
        )
        and vm in must_run
    )
    _relational_closure(dirty, constraints, must_run)
    for _ in range(max(0, halo)):
        hosts = {placement[vm] for vm in dirty if vm in placement}
        before = len(dirty)
        for host in hosts:
            dirty.update(vm for vm in current.vms_on(host) if vm in must_run)
        _relational_closure(dirty, constraints, must_run)
        if len(dirty) == before:
            break
    return dirty


def compute_dirty_set(
    current: Configuration,
    states: Mapping[str, VMState],
    running_vms: Sequence[str],
    constraints: Sequence[PlacementConstraint] = (),
    marks: Iterable[str] = (),
    previous: Optional[Mapping[str, str]] = None,
    halo: int = 1,
) -> Set[str]:
    """:func:`dirty_region` from a round's plain inputs: ``running_vms`` are
    the VMs whose target state is Running; ``previous`` the assignment of
    the last accepted round, ``None`` for no history (nothing diverges)."""
    placement = current.placement()
    return dirty_region(
        current,
        set(running_vms),
        [vm for vm in running_vms if vm not in placement],
        placement,
        vm_domains(current, placement, constraints),
        constraints,
        marks,
        placement if previous is None else previous,
        halo,
    )


class RepairOptimizer:
    """Drop-in optimizer adding incremental repair on top of ``inner``.

    ``inner`` is either a
    :class:`~repro.core.optimizer.ContextSwitchOptimizer`
    (``engine="repair"``) or a
    :class:`~repro.scale.parallel.ParallelOptimizer`
    (``engine="repair-partitioned"``); both accept ``frozen`` and a per-call
    ``timeout``, through which every attempt gets what is left of this
    engine's own ``timeout`` — the round's budget, a plain attribute a
    driver may set between rounds.

    ``halo`` is the number of co-host expansion rounds applied to the dirty
    region (0 freezes everything but the directly perturbed VMs; larger
    values trade solve time for repacking freedom around the perturbation).
    """

    def __init__(
        self,
        inner,
        timeout: float = 40.0,
        halo: int = 1,
    ) -> None:
        self.inner = inner
        self.timeout = timeout
        self.halo = halo
        #: The unary domains the dirty rule reads: the inner optimizer's
        #: own, so a round asks the catalog once for every layer.
        self.domains: RetainedDomains = (
            inner.domains
            if isinstance(inner, ContextSwitchOptimizer)
            else RetainedDomains()
        )
        self._previous: Optional[dict[str, str]] = None
        self._marks: Set[str] = set()

    # ------------------------------------------------------------------ #
    # control-loop surface                                                #
    # ------------------------------------------------------------------ #

    def mark_dirty(self, vms: Iterable[str]) -> None:
        """Flag VMs as perturbed; consumed (and cleared) by the next
        :meth:`optimize` call."""
        self._marks.update(vms)

    @property
    def previous_assignment(self) -> Optional[Mapping[str, str]]:
        """The accepted assignment of the last round (``None`` before the
        first solve — the next call is a cold start)."""
        return self._previous

    def forget(self) -> None:
        """Drop everything kept from earlier rounds — the previous
        assignment, the unary domains and what the inner optimizer derived
        from them: the next solve is a cold start."""
        self._previous = None
        self.domains.clear()

    def close(self) -> None:
        self.inner.close()

    # ------------------------------------------------------------------ #
    # solving                                                             #
    # ------------------------------------------------------------------ #

    def optimize(
        self,
        current: Configuration,
        target_states: Mapping[str, VMState],
        vjob_of_vm: Optional[Mapping[str, str]] = None,
        constraints: Sequence[PlacementConstraint] = (),
    ) -> OptimizationResult:
        """Same contract as :meth:`ContextSwitchOptimizer.optimize`; the
        result's ``repair`` entry says what the engine did.

        Every attempt and the full solve are the same call, which answers
        or raises: a :class:`~repro.model.errors.PlanningError` from an
        attempt widens the region; what the full solve raises, and anything
        else, is the caller's.  A round that raises accepts nothing: the
        previous assignment stays.
        """
        marks = sorted(self._marks)
        self._marks.clear()
        deadline = time.monotonic() + self.timeout
        states, changed = ContextSwitchOptimizer._complete_states(
            current, target_states
        )
        must_run = _MustRun(states)
        placement = current.placement()
        previous = self._previous
        if previous is None:
            # Nothing to freeze: every VM is dirty.
            dirty = set(must_run)
        else:
            dirty = self._dirty_region(
                current, must_run, changed, placement, constraints, marks
            )
        # The frozen region: what runs, must keep running, and is not dirty
        # (a clean VM that must run does, or it would need placement).
        leaving = [vm for vm in changed if vm not in must_run]
        frozen = placement.keys() - dirty
        frozen.difference_update(leaving)
        attempts = 0
        for level in range(_LNS_STEPS + 1):
            if not frozen:
                reason = (
                    "cold start (no previous assignment)"
                    if previous is None
                    else "dirty region covers the whole fleet"
                )
                break
            remaining = deadline - time.monotonic()
            if attempts and remaining <= MIN_CARVED_TIMEOUT_S:
                reason = "neighbourhood budget exhausted"
                break
            attempts += 1
            result: Optional[OptimizationResult] = None
            with span(
                "repair-attempt",
                level=level,
                dirty=len(dirty),
                frozen=len(frozen),
            ) as attempt_span:
                try:
                    result = self.inner.optimize(
                        current,
                        target_states,
                        vjob_of_vm=vjob_of_vm,
                        constraints=constraints,
                        frozen=frozen,
                        timeout=max(MIN_CARVED_TIMEOUT_S, remaining),
                    )
                except PlanningError:
                    attempt_span.set(failed=True)
            if result is not None:
                return self._accept(
                    result,
                    mode="repair",
                    reason=(
                        "repaired within the initial region"
                        if level == 0
                        else f"repaired after widening {level}x"
                    ),
                    dirty_count=len(dirty),
                    frozen_count=len(frozen),
                    attempts=attempts,
                )
            dirty |= self._widened(current, must_run, leaving, dirty, level + 1)
            _relational_closure(dirty, constraints, must_run)
            frozen = frozen - dirty
        else:  # no break: every level of the schedule was tried
            reason = f"neighbourhood schedule exhausted ({attempts} attempts)"
        # The one way into the full solve: nothing frozen, and what the
        # attempts left of the round's budget.
        with span("full-solve", reason=reason, dirty=len(dirty)):
            result = self.inner.optimize(
                current,
                target_states,
                vjob_of_vm=vjob_of_vm,
                constraints=constraints,
                timeout=leftover_budget(self.timeout, deadline),
            )
        return self._accept(
            result,
            mode="full",
            reason=reason,
            dirty_count=len(dirty),
            frozen_count=0,
            attempts=attempts + 1,
        )

    # ------------------------------------------------------------------ #
    # internals                                                           #
    # ------------------------------------------------------------------ #

    def _dirty_region(
        self,
        current: Configuration,
        must_run: Container[str],
        changed: Sequence[str],
        placement: Mapping[str, str],
        constraints: Sequence[PlacementConstraint],
        marks: Iterable[str],
    ) -> Set[str]:
        """The perturbed region of a warm round: :func:`dirty_region` over
        the retained domains, the previous assignment and :attr:`halo`."""
        return dirty_region(
            current,
            must_run,
            changed,
            placement,
            self.domains.of(current, placement, constraints),
            constraints,
            marks,
            self._previous,
            self.halo,
        )

    @staticmethod
    def _widened(
        current: Configuration,
        must_run: Container[str],
        leaving: Iterable[str],
        dirty: Set[str],
        level: int,
    ) -> Set[str]:
        """Deterministic widening: release the VMs frozen on the emptiest
        ``level``/4 of the nodes (most free memory first) — capacity relief
        for a dirty region that does not fit between the frozen VMs.  A
        node's room is its live free capacity plus what the ``leaving`` VMs
        (running, not to keep running) hold there."""
        node_names = current.node_names
        held = current.load_by_host(leaving)
        free: dict[str, tuple[int, int]] = {}
        for name in node_names:
            cpu, memory = current.free_capacity(name).as_tuple()
            cpu_held, memory_held = held.get(name, (0, 0))
            free[name] = (cpu + cpu_held, memory + memory_held)
        count = max(1, len(node_names) * level // 4)
        emptiest = sorted(
            node_names, key=lambda name: (-free[name][1], -free[name][0], name)
        )[:count]
        return {
            vm
            for host in emptiest
            for vm in current.vms_on(host)
            if vm in must_run and vm not in dirty
        }

    def _accept(
        self,
        result: OptimizationResult,
        mode: str,
        reason: str,
        dirty_count: int,
        frozen_count: int,
        attempts: int,
    ) -> OptimizationResult:
        """Remember the accepted assignment and attach the repair telemetry
        (recorded on :class:`~repro.core.context_switch.ContextSwitchReport`
        and aggregated into ``RunResult.metadata["repair_engine"]``)."""
        self._previous = dict(result.target.iter_placement())
        result.repair = {
            "mode": mode,
            "reason": reason,
            "dirty_count": dirty_count,
            "frozen_count": frozen_count,
            "attempts": attempts,
            # Zones whose previous sub-assignment was reused verbatim (only
            # the partitioned composition, ``engine="repair-partitioned"``).
            "reused_zones": sum(1 for r in result.zone_reports if r.reused),
        }
        if mode == "repair" and frozen_count and result.statistics is not None:
            # Exhausting the search around the frozen VMs only proves the
            # optimum of the subproblem they leave — never a global claim.
            result.statistics.proven_optimal = False
        return result
