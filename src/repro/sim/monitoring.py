"""Monitoring service (Ganglia substitute) and the loop's demand cache.

In the paper every VM and every Domain-0 runs a Ganglia daemon; Entropy polls
the monitoring head to obtain the CPU and memory consumption of the running
VMs, and needs about 10 seconds to accumulate fresh information after a
reconfiguration (Section 3.1).  The simulated service reproduces that
staleness: an observation taken less than
:data:`repro.config.MONITORING_DELAY_S` seconds after the previous
reconfiguration is stale, and carries nothing.

What it observes is its own record of what every VM's trace demands at its
vjob's progress.  Progress moves in the control loop's advance step only,
and never back: it refreshes the vjobs it advanced (:meth:`MonitoringService.
refresh`), and a vjob's traces are read again only once its progress reaches
the end of the earliest phase one of them was in.  A fresh observation hands
the loop the demands that changed since the previous fresh one; the loop
writes them into the configuration, whose load columns are the one record
of each node's load.  The per-vjob sums and durations serve the loop's
utilization sample and finish test.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from .. import config

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workloads.traces import VJobWorkload


class MonitoringService:
    """The demands of every admitted VM, observed ``MONITORING_DELAY_S``
    behind a reconfiguration."""

    def __init__(self) -> None:
        #: VM -> its trace's demand at its vjob's progress.
        self._of_vm: dict[str, int] = {}
        #: vjob -> the sum of its VMs' demands.
        self.of_vjob: dict[str, int] = {}
        #: vjob -> the progress at which its longest trace ends.
        self.duration: dict[str, float] = {}
        #: vjob -> the progress up to which none of its VMs' demands change.
        self._until: dict[str, float] = {}
        #: VM -> the demand the configuration holds: the last one a fresh
        #: observation carried, or the one the VM was registered with.
        self._held: dict[str, Optional[int]] = {}
        #: VM -> its demand, for the VMs where it differs from ``_held``.
        self._changes: dict[str, int] = {}
        self._last_reconfiguration: Optional[float] = None
        self._observed = False

    def add(self, workload: VJobWorkload) -> None:
        """A workload at progress 0, its VMs held at their descriptions'
        demands."""
        registered = {vm.name: vm.cpu_demand for vm in workload.vjob.vms}
        for vm_name in workload.traces:
            self._of_vm[vm_name] = self._held[vm_name] = registered.get(vm_name)
        self.duration[workload.vjob.name] = workload.duration
        self._read(workload, 0.0)

    def refresh(self, workload: VJobWorkload, progress: float) -> None:
        """The demands of ``workload`` at ``progress``."""
        if progress >= self._until[workload.vjob.name]:
            self._read(workload, progress)

    def _read(self, workload: VJobWorkload, progress: float) -> None:
        of_vm, held, changes = self._of_vm, self._held, self._changes
        total, until = 0, math.inf
        for vm_name, trace in workload.traces.items():
            demand, end = trace.demand_until(progress)
            if demand != of_vm[vm_name]:
                of_vm[vm_name] = demand
                if demand != held[vm_name]:
                    changes[vm_name] = demand
                else:
                    # Back where the configuration holds it.
                    changes.pop(vm_name, None)
            total += demand
            until = min(until, end)
        self.of_vjob[workload.vjob.name] = total
        self._until[workload.vjob.name] = until

    def notify_reconfiguration(self, time: float) -> None:
        """Tell the service a context switch just completed; the next
        observations within ``MONITORING_DELAY_S`` are stale."""
        self._last_reconfiguration = time

    def observe(self, time: float) -> Optional[dict[str, int]]:
        """The demands changed since the last fresh observation, or ``None``
        when ``time`` is inside the refresh delay (the changes then wait for
        the next fresh one).  The first observation is always fresh."""
        if (
            self._observed
            and self._last_reconfiguration is not None
            and time - self._last_reconfiguration < config.MONITORING_DELAY_S
        ):
            return None
        self._observed = True
        changes, self._changes = self._changes, {}
        self._held.update(changes)
        return changes
