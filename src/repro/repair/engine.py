"""The repair optimizer: freeze the clean region, solve the dirty one.

The engine keeps the previous round's assignment across calls; before its
first round, and after :meth:`RepairOptimizer.forget`, the observed
placement stands in for it, so a first round is a round in which nothing
diverged.  Each round it derives the *dirty region* — the VMs whose
placement may have to change — from five deterministic rules, each read
from what moved rather than from the fleet (:func:`dirty_region`, the one
body both :meth:`RepairOptimizer._dirty_region` and
:func:`compute_dirty_set` call):

1. **external marks** — VMs a caller flagged through
   :meth:`RepairOptimizer.mark_dirty`: a perturbation the configuration
   does not show (the control loop flags none — rules 2 and 3 derive its
   arrivals, crash victims, aborted migrations and unary breaches);
2. **needs placement** — VMs that must run but are not currently running
   (also covers resumes and failed migrations re-observed as waiting): they
   are among the VMs whose wanted state is not the observed one, which the
   state completion already lists;
3. **invalidated placements** — running VMs whose current host is no longer
   allowed by the (possibly crash-shrunken) unary constraints, or whose host
   diverges from the previous assignment, read against the previous
   assignment and the retained unary domains
   (:class:`~repro.constraints.domains.RetainedDomains` — recomputed only
   when its key says the catalog or the nodes changed) for the VMs written
   since the last round's input (the change journal,
   :meth:`~repro.model.configuration.Configuration.written_since`, marked
   by this engine) and the ones the last plan moved — every running VM
   when the journal cannot answer;
4. **relational closure and halo** — any dirty member of a relational group
   dirties the whole group, and ``halo`` rounds of co-host expansion dirty
   the VMs sharing a node with a dirty running VM, read from
   ``Configuration.vms_on(host)``;
5. **overloaded hosts** — every VM that must run on a node the observed
   configuration overloads, read from the dirty-node index
   (``viability_violations(only_dirty=True)``, O(changed)).  It seeds the
   region with rules 1–3, so rule 4 closes over it too.

Everything else that runs and must keep running is *frozen*: it keeps the
host it runs on.  The set is counted, never listed: the inner optimizer is
handed the dirty region as ``dirty``, keeps its VMs in place when that
meets the lower bound, and otherwise searches one cut of it — the dirty VMs
over the nodes they may take or come from, each offering what the frozen
ones leave, under what each relation asks once the frozen VMs stay
(:meth:`~repro.constraints.base.PlacementConstraint.residual`) — so the
model it builds, and the round, cost what changed rather than the fleet.
Both inner optimizers make this one attempt alike; the full solve is their
whole-fleet step — the same pass over every VM that must run, then the
search, by zones in the partitioned one.
The rules are the one owner of what a frozen VM is: it runs on a node of
the configuration (rule 2), inside its retained unary domain (rule 3), is
not leaving, its host is not overloaded (rule 5), and a relational group is
frozen whole or not at all (rule 4); the layers below do not check it
again.  A round makes one attempt on the dirty region; when that
finds nothing, the full monolithic solve runs against the same deadline —
so the repair engine accepts exactly the instances the cold solve accepts,
and raises where it raises.

Retained across rounds: the previous assignment (owner: this engine;
updated in place by every accepted round from what it read and moved), what
the last accepted round completed, moved and asked of its input, with the
journal mark it took on that input (read only while the journal answers),
and the unary domains (owner: :attr:`RepairOptimizer.domains`, shared with
the inner optimizer and, in a control loop, with the policy; one key in
:meth:`~repro.constraints.domains.RetainedDomains.key`).
:meth:`RepairOptimizer.forget` drops both, and with the domains everything
keyed on their generation: in a loop, the policy's filter domains and its
selection's trial.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType
from typing import (
    Container,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Set,
)

from ..constraints.base import PlacementConstraint
from ..constraints.checker import unwritten_answers
from ..constraints.domains import RetainedDomains, vm_domains
from ..core.optimizer import ContextSwitchOptimizer, OptimizationResult
from ..model.configuration import Configuration
from ..model.errors import PlanningError
from ..model.vm import VMState
from ..obs import span


class _MustRun:
    """The VMs whose wanted state is Running, as a membership test over the
    wanted states: a round asks it of the few VMs that moved, never lists
    them."""

    def __init__(self, states: Mapping[str, VMState]) -> None:
        self._states: Mapping = states

    def __contains__(self, vm_name: object) -> bool:
        return self._states.get(vm_name) is VMState.RUNNING


def _relational_closure(
    dirty: Set[str],
    constraints: Sequence[PlacementConstraint],
    placed: Container[str],
) -> None:
    """Dirty any relational group with a dirty member (in place, until
    nothing changes: two ``Spread`` groups may chain through a shared
    member)."""
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
    suspects: Optional[Iterable[str]] = None,
) -> Set[str]:
    """The perturbed region of one round (see the module docstring rules),
    read from what moved: ``must_run`` are the VMs that must run,
    ``changed`` the VMs whose wanted state is not the observed one,
    ``placement`` the hosts of the VMs that run, ``domains`` their unary
    domains, ``marks`` the externally flagged perturbations and
    ``previous`` the assignment of the last accepted round.  ``suspects``
    are the VMs whose host may differ from ``previous`` or leave a domain
    it sat in (what a change journal names); ``None`` reads every running
    VM.  Deterministic: depends only on its inputs."""
    dirty = {vm for vm in marks if vm in must_run}
    # Arrivals, resumes, crash victims: nothing to freeze.
    dirty.update(vm for vm in changed if vm in must_run)
    # Execution diverged from the last plan (a failed migration), or the
    # placement was invalidated after the fact (an elastic Fence that shrank
    # when a node crashed): re-decide the VM rather than trusting — or
    # freezing it on a retired domain — its host.
    hosts: Iterable[tuple[str, str]] = (
        placement.items()
        if suspects is None
        else [(vm, host) for vm in suspects if (host := placement.get(vm)) is not None]
    )
    dirty.update(
        vm
        for vm, host in hosts
        if (
            previous.get(vm) != host
            or ((allowed := domains[vm]) is not None and host not in allowed)
        )
        and vm in must_run
    )
    # An overloaded host cannot keep every VM it runs: re-decide them all.
    for violation in current.viability_violations(only_dirty=True):
        dirty.update(vm for vm in current.vms_on(violation.node) if vm in must_run)
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
    the last accepted round, ``None`` for no history (nothing diverges: the
    engine's first round)."""
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


@dataclass
class _Accepted:
    """What the last accepted round leaves the next one, read only when the
    next round's configuration descends from that round's input under the
    same domains generation (the change journal answers)."""

    #: The domains generation the round ran under and the change-journal
    #: mark it took on its input (:meth:`Configuration.mark
    #: <repro.model.configuration.Configuration.mark>`); ``None`` when no
    #: generation answered for its inputs.
    journal: Optional[tuple[object, object]]
    #: The wanted states it was handed (a copy, so no caller's later write
    #: can make an unequal mapping look equal) and the VMs whose wanted
    #: state was not the observed one.
    wanted: Mapping[str, VMState]
    changed: Sequence[str]
    #: What the plan check asked of its input (``check_plan``'s
    #: ``settled``).
    settled: Dict[int, Optional[str]]
    #: The VMs its plan acts on: those whose state, host or image differs
    #: between its input and its target.
    moved: Set[str] = field(default_factory=set)


class RepairOptimizer:
    """Drop-in optimizer adding incremental repair on top of ``inner``.

    ``inner`` is either a
    :class:`~repro.core.optimizer.ContextSwitchOptimizer`
    (``engine="repair"``) or a
    :class:`~repro.scale.parallel.ParallelOptimizer`
    (``engine="repair-partitioned"``); both make the attempt on ``dirty``
    the same way (the keep-in-place pass, then one cut), and differ only in
    the full solve, which the partitioned one decomposes.  Each round makes
    one deadline from this engine's own ``timeout`` — the round's budget, a
    plain attribute a driver may set between rounds — and hands it to the
    attempt and to the full solve alike.

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
        self.domains: RetainedDomains = inner.domains
        self._previous: Optional[dict[str, str]] = None
        self._last: Optional[_Accepted] = None
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
        """A read-only snapshot of the accepted assignment of the last round
        (``None`` before the first solve — the next call repairs against
        the observed placement).
        The engine updates its own in place, so the copy is paid by the
        reader."""
        if self._previous is None:
            return None
        return MappingProxyType(dict(self._previous))

    def forget(self) -> None:
        """Drop everything kept from earlier rounds — the previous
        assignment, the unary domains and what was derived under them (in
        a control loop, the policy's too): the next round repairs against
        the observed placement."""
        self._previous = None
        self._last = None
        self.domains.clear()

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

        The attempt and the full solve are the same call, which answers or
        raises: a :class:`~repro.model.errors.PlanningError` from the
        attempt hands the round to the full solve; what the full solve
        raises, and anything else, is the caller's.  A round that raises
        accepts nothing: the previous assignment stays, and the next round
        reads the fleet.

        A warm round whose ``current`` descends from the last round's input
        reads the VMs written since (the change journal this engine marks at
        every round start) and the VMs the last plan moved, instead of the
        fleet: for the dirty rule's divergence and domain checks, for the
        state completion (when the wanted states equal the last round's) and
        for the plan check's source answers.  Anything else reads the fleet.
        """
        marks = sorted(self._marks)
        self._marks.clear()
        deadline = time.monotonic() + self.timeout
        last, self._last = self._last, None
        generation = self.domains.key(current, constraints)
        written = None
        if last is not None and last.journal and last.journal[0] is generation:
            written = current.written_since(last.journal[1])
        journal = None if generation is None else (generation, current.mark())
        since = None
        if written is not None and last.wanted == target_states:
            wanted = last.wanted
            since = (written, last.changed)
        else:
            wanted = dict(target_states)
        completed = states, changed = ContextSwitchOptimizer._complete_states(
            current, target_states, since
        )
        must_run = _MustRun(states)
        placement = current.placement_view()
        suspects: Optional[Set[str]] = None
        if written is not None:
            suspects = written | last.moved
        with span("dirty-set") as dirty_span:
            dirty = self._dirty_region(
                current, must_run, changed, placement, constraints, marks,
                suspects,
            )
            dirty_span.set(
                scanned=len(placement if suspects is None else suspects),
                source="scan" if suspects is None else "journal",
            )
        # The frozen region — what runs, must keep running, and is not
        # dirty (a clean VM that must run does, or it would need
        # placement) — is counted, never listed: the layers below read
        # the dirty VMs.
        frozen_count = len(placement) - sum(
            1
            for vm in chain(dirty, (vm for vm in changed if vm not in must_run))
            if vm in placement
        )
        settled: Dict[int, Optional[str]] = (
            {} if written is None
            else unwritten_answers(last.settled, constraints, written)
        )
        record = _Accepted(journal, wanted, changed, settled)
        if not frozen_count:
            reason = "dirty region covers the whole fleet"
        else:
            result: Optional[OptimizationResult] = None
            with span(
                "repair-attempt", dirty=len(dirty), frozen=frozen_count
            ) as attempt_span:
                try:
                    result = self.inner.optimize(
                        current,
                        target_states,
                        vjob_of_vm=vjob_of_vm,
                        constraints=constraints,
                        dirty=dirty,
                        deadline=deadline,
                        completed=completed,
                        settled=settled,
                    )
                except PlanningError:
                    attempt_span.set(failed=True)
            if result is not None:
                return self._accept(
                    result,
                    record,
                    suspects,
                    mode="repair",
                    reason="repaired within the dirty region",
                    dirty_count=len(dirty),
                    frozen_count=frozen_count,
                    attempts=1,
                )
            reason = "the repair attempt found no viable assignment"
        # The one way into the full solve: nothing frozen, and what the
        # attempt, if any, left until the round's deadline.
        with span("full-solve", reason=reason, dirty=len(dirty)):
            result = self.inner.optimize(
                current,
                target_states,
                vjob_of_vm=vjob_of_vm,
                constraints=constraints,
                deadline=deadline,
                completed=completed,
                settled=settled,
            )
        return self._accept(
            result,
            record,
            suspects,
            mode="full",
            reason=reason,
            dirty_count=len(dirty),
            frozen_count=0,
            attempts=2 if frozen_count else 1,
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
        suspects: Optional[Iterable[str]] = None,
    ) -> Set[str]:
        """The perturbed region of a round: :func:`dirty_region` over the
        retained domains, the previous assignment (the observed placement
        when there is none) and :attr:`halo`,
        reading ``suspects`` (``None``: every running VM) for divergence."""
        if suspects is not None:
            suspects = [vm for vm in suspects if vm in placement]
        return dirty_region(
            current,
            must_run,
            changed,
            placement,
            self.domains.of(
                current, placement if suspects is None else suspects, constraints
            ),
            constraints,
            marks,
            placement if self._previous is None else self._previous,
            self.halo,
            suspects,
        )

    def _accept(
        self,
        result: OptimizationResult,
        record: _Accepted,
        suspects: Optional[Set[str]],
        mode: str,
        reason: str,
        dirty_count: int,
        frozen_count: int,
        attempts: int,
    ) -> OptimizationResult:
        """Remember the accepted assignment and what the next round reads
        instead of the fleet (``record``, whose moved VMs are read off the
        plan here), and attach the repair telemetry (recorded on
        :class:`~repro.core.context_switch.ContextSwitchReport` and
        aggregated into ``RunResult.metadata["repair_engine"]``).
        ``suspects`` are the VMs the round read instead of the fleet
        (``None``: it read the fleet)."""
        record.moved = {action.vm for pool in result.plan.pools for action in pool}
        accepted = result.target.placement_view()
        if suspects is None:
            self._previous = dict(accepted)
        else:
            # What the last round left in ``previous`` is this round's input
            # but for the suspects, and the target is the input but for the
            # VMs the plan moves.
            previous = self._previous
            for vm in suspects | record.moved:
                host = accepted.get(vm)
                if host is None:
                    previous.pop(vm, None)
                else:
                    previous[vm] = host
        self._last = record
        result.repair = {
            "mode": mode,
            "reason": reason,
            "dirty_count": dirty_count,
            "frozen_count": frozen_count,
            "attempts": attempts,
        }
        if mode == "repair":
            # Exhausting the search around the frozen VMs only proves the
            # optimum of the subproblem they leave — never a global claim.
            result.statistics.proven_optimal = False
        return result
