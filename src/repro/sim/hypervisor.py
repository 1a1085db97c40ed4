"""Hypervisor action duration model calibrated on the paper's measurements.

Section 2.3 measures, on the real testbed, the duration of every VM context
switch operation as a function of the memory allocated to the manipulated VM
(Figure 3).  The planner and the cost model only need the *relative* costs of
Table 1, but the simulated experiments (Figures 11-13) also need wall-clock
durations; this model provides them:

* ``run``: ~6 s, memory independent;
* ``stop``: ~25 s clean shutdown (or a short hard destroy);
* ``migrate``: linear in memory, ~26 s for a 2 GB VM;
* ``suspend``/``resume``: linear in memory, with a ~2x factor when the image
  has to be moved to/from another node (scp or rsync, the
  :class:`TransferMethod`; where each image lives is the configuration's
  record, and a plan's ``Resume`` says whether it is local);
* busy VMs co-located with an operation are slowed by ~1.3x (local operation)
  to ~1.5x (remote) while it lasts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .. import config
from ..model.configuration import Configuration
from ..core.actions import Action, Migrate, Resume, Run, Stop, Suspend


class TransferMethod(enum.Enum):
    """How a suspend image reaches another node."""

    LOCAL = "local"    #: no transfer, the image stays on the local disk
    SCP = "scp"
    RSYNC = "rsync"


#: Remote suspend/resume duration factors relative to the local operation.
_REMOTE_FACTORS = {
    TransferMethod.LOCAL: 1.0,
    TransferMethod.SCP: config.REMOTE_IMAGE_FACTOR_SCP,
    TransferMethod.RSYNC: config.REMOTE_IMAGE_FACTOR_RSYNC,
}


def remote_factor(method: TransferMethod) -> float:
    """Duration multiplier of a remote suspend/resume using ``method``."""
    return _REMOTE_FACTORS[method]


@dataclass(frozen=True)
class HypervisorModel:
    """Durations (seconds) of the VM actions on the simulated testbed."""

    boot_duration: float = config.BOOT_DURATION_S
    clean_shutdown_duration: float = config.CLEAN_SHUTDOWN_DURATION_S
    hard_shutdown_duration: float = config.HARD_SHUTDOWN_DURATION_S
    migrate_base: float = config.MIGRATE_BASE_S
    migrate_per_mb: float = config.MIGRATE_PER_MB_S
    suspend_base: float = config.SUSPEND_LOCAL_BASE_S
    suspend_per_mb: float = config.SUSPEND_LOCAL_PER_MB_S
    resume_base: float = config.RESUME_LOCAL_BASE_S
    resume_per_mb: float = config.RESUME_LOCAL_PER_MB_S
    clean_shutdown: bool = True
    transfer_method: TransferMethod = TransferMethod.SCP

    # -- per-operation durations ---------------------------------------------

    def run_duration(self, memory_mb: int) -> float:
        return self.boot_duration

    def stop_duration(self, memory_mb: int) -> float:
        if self.clean_shutdown:
            return self.clean_shutdown_duration
        return self.hard_shutdown_duration

    def migrate_duration(self, memory_mb: int) -> float:
        return self.migrate_base + self.migrate_per_mb * memory_mb

    def suspend_duration(self, memory_mb: int, local: bool = True) -> float:
        base = self.suspend_base + self.suspend_per_mb * memory_mb
        if local:
            return base
        return base * remote_factor(self.transfer_method)

    def resume_duration(self, memory_mb: int, local: bool = True) -> float:
        base = self.resume_base + self.resume_per_mb * memory_mb
        if local:
            return base
        return base * remote_factor(self.transfer_method)

    # -- dispatch on plan actions ---------------------------------------------

    def action_duration(self, action: Action, configuration: Configuration) -> float:
        """Wall-clock duration of a plan action against ``configuration``."""
        memory = configuration.vm(action.vm).memory
        if isinstance(action, Run):
            return self.run_duration(memory)
        if isinstance(action, Stop):
            return self.stop_duration(memory)
        if isinstance(action, Migrate):
            return self.migrate_duration(memory)
        if isinstance(action, Suspend):
            return self.suspend_duration(memory, local=True)
        if isinstance(action, Resume):
            return self.resume_duration(memory, local=action.is_local)
        raise TypeError(f"unknown action type: {action!r}")


#: Model matching the paper's measurements, used by default everywhere.
DEFAULT_HYPERVISOR = HypervisorModel()

#: Variant using hard shutdowns, mentioned in Section 2.3 as an easy way to
#: reduce the stop duration.
FAST_STOP_HYPERVISOR = HypervisorModel(clean_shutdown=False)
