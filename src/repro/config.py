"""Calibration constants for the simulated substrate.

All durations come from the measurements reported in Section 2.3 / Figure 3 of
the paper, obtained on an 11-node cluster of 2.1 GHz Core 2 Duo machines (Xen
3.2, Gigabit Ethernet, NFS-served virtual disks):

* booting a VM takes about 6 seconds regardless of its memory size;
* a clean shutdown takes about 25 seconds (service timeouts);
* live migration, suspend and resume durations grow linearly with the memory
  allocated to the manipulated VM;
* a remote suspend/resume (state file pushed with scp or rsync) takes roughly
  twice the duration of a local one;
* while an action is in flight, a busy VM co-located on the involved node is
  slowed down by a factor of roughly 1.3 (local) to 1.5 (remote), i.e. at most
  ~50 % during the transition.

The figures of the paper give the following anchor points (memory in MB,
durations in seconds): migrating a 2 GB VM takes up to ~26 s, resuming a 2 GB
VM on a distant node takes up to ~3 minutes, suspending a 2 GB VM locally takes
on the order of 100 s.  The linear models below are fitted on those anchors.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# --------------------------------------------------------------------------- #
# Hypervisor action duration model (seconds)                                   #
# --------------------------------------------------------------------------- #

#: Duration of the ``run`` (boot) action, independent of the VM memory size.
BOOT_DURATION_S: float = 6.0

#: Duration of a clean ``stop`` (shutdown) action.
CLEAN_SHUTDOWN_DURATION_S: float = 25.0

#: Duration of a hard ``stop`` action (destroy), used when a clean shutdown is
#: not required.
HARD_SHUTDOWN_DURATION_S: float = 2.0

#: Live migration: fixed overhead + per-MB transfer time.  A 2048 MB VM
#: migrates in ~26 s, a 512 MB VM in ~10 s.
MIGRATE_BASE_S: float = 4.0
MIGRATE_PER_MB_S: float = (26.0 - MIGRATE_BASE_S) / 2048.0  # ~0.0107 s/MB

#: Local suspend: write the memory image to the local disk.
SUSPEND_LOCAL_BASE_S: float = 8.0
SUSPEND_LOCAL_PER_MB_S: float = 0.045

#: Local resume: read the memory image from the local disk.
RESUME_LOCAL_BASE_S: float = 8.0
RESUME_LOCAL_PER_MB_S: float = 0.045

#: A remote image, for both operations: a remote suspend is the local one
#: followed by an scp/rsync push of the image (Figure 3b), a remote resume
#: fetches the image then resumes (Figure 3c; a 2 GB remote resume peaks
#: around 3 minutes).  Either takes roughly twice the local duration.
REMOTE_IMAGE_FACTOR_SCP: float = 2.0
REMOTE_IMAGE_FACTOR_RSYNC: float = 1.9

#: Slow-down factor suffered by a busy VM co-located with a local operation.
INTERFERENCE_FACTOR_LOCAL: float = 1.3

#: Delay between two pipelined suspend/resume actions of the same vjob
#: (Section 4.1: "each action is started one second after the previous one").
VJOB_PIPELINE_DELAY_S: float = 1.0


# --------------------------------------------------------------------------- #
# Entropy control loop defaults                                                #
# --------------------------------------------------------------------------- #

#: Period of the decision module in the sample consolidation policy (seconds).
DECISION_PERIOD_S: float = 30.0

#: Time needed by the monitoring service to accumulate fresh information after
#: a reconfiguration (Section 3.1).
MONITORING_DELAY_S: float = 10.0

#: Default time budget granted to the CP optimizer (Section 5.1 uses 40 s).
OPTIMIZER_TIMEOUT_S: float = 40.0


# --------------------------------------------------------------------------- #
# Reference cluster descriptions                                               #
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of a working node."""

    cpu_capacity: int = 2          #: number of processing units
    memory_capacity: int = 4096    #: memory in MB
    dom0_memory: int = 512         #: memory reserved for the hypervisor / Domain-0

    @property
    def usable_memory(self) -> int:
        """Memory left for guest VMs once Domain-0 is accounted for."""
        return self.memory_capacity - self.dom0_memory


@dataclass(frozen=True)
class ClusterSpec:
    """Description of a homogeneous cluster."""

    node_count: int
    node_spec: NodeSpec = field(default_factory=NodeSpec)


#: The 11-node experimental cluster of Sections 2.3 and 5.2.
PAPER_CLUSTER = ClusterSpec(node_count=11)

#: The 200-node configuration of the workload-trace experiments (Section 5.1):
#: 2 CPUs and 4 GB of memory per node.
TRACE_CLUSTER = ClusterSpec(
    node_count=200,
    node_spec=NodeSpec(cpu_capacity=2, memory_capacity=4096, dom0_memory=0),
)

#: Memory sizes (MB) used throughout the evaluation.
VM_MEMORY_SIZES_MB = (256, 512, 1024, 2048)
