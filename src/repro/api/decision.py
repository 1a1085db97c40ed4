"""The unified decision-module contract of the pluggable control loop.

Section 3.1 of the paper describes Entropy as a *modular* framework: the
observe/decide/plan/execute loop is fixed, while the decision module — the
piece that chooses which vjobs should run during the next iteration — is
replaceable.  This module captures that contract:

* :class:`Decision` is the single result type every decision module returns:
  the state each VM must reach, the matching vjob states, an optional explicit
  target configuration (for baselines that compute their own placement), an
  optional fallback configuration for a round whose optimizing solve fails
  (built on first read), and free-form metadata for policy-specific
  diagnostics;
* :class:`DecisionModule` is the structural protocol a policy implements —
  a ``decide(configuration, queue)`` method returning a :class:`Decision`;
* :func:`needs_switch` and :func:`stop_terminated_vms` are the two pieces of
  logic every policy (and the loop itself) shares, factored out of the
  individual modules.

Concrete policies live in :mod:`repro.decision` and are published through the
registry (:mod:`repro.api.registry`) so scenarios can select them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    MutableMapping,
    Optional,
    Protocol,
    runtime_checkable,
)

from ..model.configuration import Configuration
from ..model.queue import VJobQueue
from ..model.vjob import VJobState
from ..model.vm import VMState


@dataclass
class Decision:
    """What a decision module wants the next configuration to look like.

    ``vm_states`` is the authoritative output: the planner derives the
    cluster-wide context switch from it.  ``target`` short-circuits the
    optimizer with an explicit target configuration (used by the FFD baseline
    of Section 5.1); ``fallback_target`` is planned when the optimizing solve
    raises and it honours the catalog
    (:meth:`~repro.core.context_switch.ClusterContextSwitch.compute`).  The
    fallback is built on first read: a policy hands over a
    ``fallback_builder``, the first read of ``fallback_target`` calls it and
    keeps the result, so a round whose solve succeeds never builds it.
    Policy-specific artefacts travel in ``metadata`` (a consolidation
    decision's :class:`~repro.decision.rjsp.RJSPResult` under ``"rjsp"``).
    """

    vm_states: dict[str, VMState] = field(default_factory=dict)
    vjob_states: dict[str, VJobState] = field(default_factory=dict)
    #: Explicit target configuration; when set, the loop plans directly
    #: towards it instead of running the CP optimizer.
    target: Optional[Configuration] = None
    #: Zero-argument builder of the fallback target (typically an FFD
    #: placement), called by the first read of :attr:`fallback_target`.
    fallback_builder: Optional[Callable[[], Optional[Configuration]]] = field(
        default=None, repr=False, compare=False
    )
    #: Free-form policy diagnostics (e.g. ``{"rjsp": RJSPResult}``).
    metadata: dict[str, Any] = field(default_factory=dict)
    _fallback_target: Optional[Configuration] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def fallback_target(self) -> Optional[Configuration]:
        """Fallback target configuration: planned when the optimizing solve
        raises and it honours the catalog.  The first read builds it from
        ``fallback_builder`` (once: later reads return the same object)."""
        if self.fallback_builder is not None:
            self._fallback_target = self.fallback_builder()
            self.fallback_builder = None
        return self._fallback_target


@runtime_checkable
class DecisionModule(Protocol):
    """Structural protocol every pluggable decision policy implements.

    A decision module reads the observed configuration — the monitoring
    service's fresh CPU demands are already written into it — and the vjob
    queue, and returns the :class:`Decision` driving the next cluster-wide
    context switch.  A constraint-aware policy also exposes
    ``use_constraints(constraints)``: the control loop hands it the catalog
    it plans with, at construction and after every repair.  Policies should
    also expose a ``name`` class attribute matching their registry key.
    """

    def decide(self, configuration: Configuration, queue: VJobQueue) -> Decision:
        """Compute the target state of every VM for the next iteration."""
        ...


def needs_switch(configuration: Configuration, decision: Decision) -> bool:
    """Whether reaching ``decision`` requires a cluster-wide context switch.

    A switch is needed when at least one VM is not in its wanted state, or
    when the current configuration is not viable (e.g. the demand of a running
    VM grew beyond the capacity of its node).
    """
    if configuration.any_state_differs(decision.vm_states):
        return True
    return not configuration.is_viable()


def empty_configuration(configuration: Configuration) -> Configuration:
    """A configuration over the same (frozen, hence shared) nodes with no VM
    — the blank slate policies use for trial packings."""
    return Configuration(nodes=configuration.nodes)


def stop_terminated_vms(
    configuration: Configuration,
    queue: VJobQueue,
    vm_states: MutableMapping[str, VMState],
) -> MutableMapping[str, VMState]:
    """Mark the still-running VMs of terminated vjobs for termination.

    Every policy must release the resources of completed vjobs; this shared
    pass adds the required ``TERMINATED`` entries to ``vm_states`` (in place)
    and returns it.
    """
    for vjob in queue.terminated():
        for vm in vjob.vms:
            if (
                configuration.has_vm(vm.name)
                and configuration.state_of(vm.name) is VMState.RUNNING
            ):
                vm_states[vm.name] = VMState.TERMINATED
    return vm_states
