"""Simulated cluster: the live configuration the drivers act on.

This is the stand-in for the paper's 11-node Xen testbed.  The cluster holds
the authoritative :class:`~repro.model.configuration.Configuration`, which is
the one record of every fact a round reads: where each VM runs, which node
holds each suspend image (``image_location_of`` / ``images_on``) and the load
of each node.  What a switch did, and when, is the executor's
:class:`~repro.sim.executor.ExecutionReport`.
"""

from __future__ import annotations

from typing import Iterable

from ..core.actions import Action
from ..model.configuration import Configuration
from ..model.errors import ExecutionError
from ..model.node import Node
from ..model.vm import VirtualMachine


class SimulatedCluster:
    """The mutable state of the simulated testbed."""

    def __init__(
        self,
        nodes: Iterable[Node],
        vms: Iterable[VirtualMachine] = (),
    ) -> None:
        self.configuration = Configuration(nodes=nodes, vms=vms)

    def add_vm(self, vm: VirtualMachine) -> None:
        self.configuration.add_vm(vm)

    def update_demand(self, vm_name: str, cpu_demand: int) -> None:
        """Reflect a fresh monitoring observation in the configuration."""
        vm = self.configuration.vm(vm_name)
        if vm.cpu_demand != cpu_demand:
            self.configuration.replace_vm(vm.with_cpu_demand(cpu_demand))

    def apply_action(self, action: Action) -> None:
        """Apply a plan action to the live configuration."""
        if not action.is_feasible(self.configuration):
            raise ExecutionError(f"action {action} is not feasible on the cluster")
        action.apply(self.configuration)
