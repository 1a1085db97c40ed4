"""Monitoring service (Ganglia substitute).

In the paper every VM and every Domain-0 runs a Ganglia daemon; Entropy polls
the monitoring head to obtain the CPU and memory consumption of the running
VMs, and needs about 10 seconds to accumulate fresh information after a
reconfiguration (Section 3.1).  The simulated service samples a *demand
source* — typically the workload traces — and reproduces that staleness: an
observation taken less than :data:`repro.config.MONITORING_DELAY_S` seconds
after the previous reconfiguration reuses the previous values.

An observation is the per-VM demands only.  The control loop writes them into
the configuration, whose load columns are the one record of each node's load;
its source reports only the demands that changed since the previous fresh
observation, so a stale observation — whose values the configuration already
holds — writes nothing (:attr:`Observation.fresh`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .. import config


#: A demand source maps a simulation time to per-VM CPU demands.
DemandSource = Callable[[float], Mapping[str, int]]


@dataclass(frozen=True)
class Observation:
    """One snapshot of the VM demands as seen by the monitoring service."""

    time: float
    cpu_demands: dict[str, int]
    #: False when the values are the previous observation's, reused inside
    #: the refresh delay.
    fresh: bool = True


class MonitoringService:
    """Samples VM demands, ``MONITORING_DELAY_S`` behind a reconfiguration."""

    def __init__(self, demand_source: DemandSource) -> None:
        self._source = demand_source
        self._last_reconfiguration: Optional[float] = None
        self._last_observation: Optional[Observation] = None

    def notify_reconfiguration(self, time: float) -> None:
        """Tell the service a context switch just completed; the next
        observations within ``MONITORING_DELAY_S`` reuse the previous
        values."""
        self._last_reconfiguration = time

    def observe(self, time: float) -> Observation:
        """Return the demands of every VM at ``time``."""
        stale = (
            self._last_reconfiguration is not None
            and self._last_observation is not None
            and time - self._last_reconfiguration < config.MONITORING_DELAY_S
        )
        if stale:
            previous = self._last_observation
            return Observation(
                time=time, cpu_demands=dict(previous.cpu_demands), fresh=False
            )

        observation = Observation(time=time, cpu_demands=dict(self._source(time)))
        self._last_observation = observation
        return observation
