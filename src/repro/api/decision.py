"""The unified decision-module contract of the pluggable control loop.

Section 3.1 of the paper describes Entropy as a *modular* framework: the
observe/decide/plan/execute loop is fixed, while the decision module — the
piece that chooses which vjobs should run during the next iteration — is
replaceable.  This module captures that contract:

* :class:`Decision` is the single result type every decision module returns:
  the state each VM must reach, the matching vjob states, an optional explicit
  target configuration (for baselines that compute their own placement), an
  optional fallback configuration for a round whose optimizing solve fails, and
  free-form metadata for policy-specific diagnostics;
* :class:`DecisionModule` is the structural protocol a policy implements —
  a ``decide(configuration, queue, demands)`` method returning a
  :class:`Decision`;
* :func:`needs_switch` and :func:`stop_terminated_vms` are the two pieces of
  logic every policy (and the loop itself) shares, factored out of the
  individual modules.

Concrete policies live in :mod:`repro.decision` and are published through the
registry (:mod:`repro.api.registry`) so scenarios can select them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, MutableMapping, Optional, Protocol, runtime_checkable

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
    raises and it honours the catalog, or as the target with the optimizer
    off (:meth:`~repro.core.context_switch.ClusterContextSwitch.compute`).
    Policy-specific artefacts (e.g. the
    :class:`~repro.decision.rjsp.RJSPResult` behind a consolidation
    decision) travel in ``metadata``.
    """

    vm_states: dict[str, VMState] = field(default_factory=dict)
    vjob_states: dict[str, VJobState] = field(default_factory=dict)
    #: Explicit target configuration; when set, the loop plans directly
    #: towards it instead of running the CP optimizer.
    target: Optional[Configuration] = None
    #: Fallback target configuration (typically an FFD placement): planned
    #: when the optimizing solve raises and it honours the catalog, or as
    #: the target under ``use_optimizer=False``.
    fallback_target: Optional[Configuration] = None
    #: Free-form policy diagnostics (e.g. ``{"rjsp": RJSPResult}``).
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def is_noop(self) -> bool:
        return not self.vm_states

    @property
    def rjsp(self):
        """The RJSP outcome behind this decision, when the policy solved one."""
        return self.metadata.get("rjsp")


@runtime_checkable
class DecisionModule(Protocol):
    """Structural protocol every pluggable decision policy implements.

    A decision module observes the current configuration, the vjob queue and
    the fresh CPU demands reported by the monitoring service, and returns the
    :class:`Decision` driving the next cluster-wide context switch.  Policies
    should also expose a ``name`` class attribute matching their registry key.
    """

    def decide(
        self,
        configuration: Configuration,
        queue: VJobQueue,
        demands: Optional[Mapping[str, int]] = None,
    ) -> Decision:
        """Compute the target state of every VM for the next iteration."""
        ...


def needs_switch(configuration: Configuration, decision: Decision) -> bool:
    """Whether reaching ``decision`` requires a cluster-wide context switch.

    A switch is needed when at least one VM is not in its wanted state, or
    when the current configuration is not viable (e.g. the demand of a running
    VM grew beyond the capacity of its node).
    """
    for vm_name, state in decision.vm_states.items():
        if configuration.state_of(vm_name) is not state:
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
