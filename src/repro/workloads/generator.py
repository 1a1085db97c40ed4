"""Random configuration generator for the scalability evaluation (Section 5.1).

The paper evaluates the cost reduction achieved by the CP optimizer on
generated configurations of 200 working nodes (2 CPUs, 4 GB each) hosting a
variable number of VMs.  The configurations aggregate vjobs of 9 or 18 VMs
whose workloads follow NGB traces of classes W, A and B; each VM is allocated
256 MB to 2048 MB of memory and requires an entire processing unit when it is
computing; the initial state of each vjob is chosen at random and the initial
placement only satisfies the *memory* requirement (so CPU-overloaded nodes do
appear and must be fixed by the context switch).  Thirty samples are generated
for every VM count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .. import config
from ..model.configuration import Configuration
from ..model.node import Node, make_working_nodes
from ..model.queue import VJobQueue
from ..model.vjob import VJobState, index_vms_by_vjob
from .nasgrid import (
    MEMORY_CHOICES_MB,
    Benchmark,
    NASGridSpec,
    ProblemClass,
    make_nasgrid_vjob,
)
from .traces import VJobWorkload

#: The VM counts a generated vjob draws from: the paper's vjobs of 9 or 18.
_VJOB_SIZES = (9, 18)


@dataclass
class GeneratedScenario:
    """One generated configuration plus its vjobs and traces."""

    configuration: Configuration
    queue: VJobQueue
    workloads: list[VJobWorkload] = field(default_factory=list)

    def vjob_of_vm(self) -> dict[str, str]:
        return index_vms_by_vjob(workload.vjob for workload in self.workloads)


class TraceConfigurationGenerator:
    """Builds random scenarios matching the Section 5.1 setup: vjobs of 9 or
    18 VMs, each VM drawing its memory from
    :data:`~repro.workloads.nasgrid.MEMORY_CHOICES_MB`, on ``node_count``
    nodes of the trace cluster's node size."""

    def __init__(
        self,
        node_count: int = config.TRACE_CLUSTER.node_count,
        seed: Optional[int] = None,
    ) -> None:
        self.node_count = node_count
        #: Seed this generator was built with; every random draw flows through
        #: the private ``random.Random`` below (never the module-global
        #: ``random``), so the same seed always yields the same scenarios.
        self.seed = seed
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------ #

    def generate(self, vm_count: int, seed: Optional[int] = None) -> GeneratedScenario:
        """Generate one scenario with about ``vm_count`` VMs."""
        rng = random.Random(seed) if seed is not None else self._rng
        node_spec = config.TRACE_CLUSTER.node_spec
        nodes = make_working_nodes(
            self.node_count,
            cpu_capacity=node_spec.cpu_capacity,
            memory_capacity=node_spec.usable_memory,
        )
        configuration = Configuration(nodes=nodes)
        queue = VJobQueue()
        workloads: list[VJobWorkload] = []

        built = 0
        index = 0
        while built < vm_count:
            per_vjob = rng.choice(_VJOB_SIZES)
            per_vjob = min(per_vjob, vm_count - built) or per_vjob
            spec = NASGridSpec(
                benchmark=rng.choice(list(Benchmark)),
                problem_class=rng.choice(list(ProblemClass)),
                vm_count=per_vjob,
            )
            memories = [rng.choice(MEMORY_CHOICES_MB) for _ in range(per_vjob)]
            workload = make_nasgrid_vjob(
                name=f"vjob{index}",
                spec=spec,
                memory_mb=memories,
                priority=index,
                rng=rng,
                jitter=0.15,
            )
            workloads.append(workload)
            queue.submit(workload.vjob)
            built += per_vjob
            index += 1

        self._populate(configuration, workloads, rng)
        return GeneratedScenario(
            configuration=configuration, queue=queue, workloads=workloads
        )

    # ------------------------------------------------------------------ #

    def _populate(
        self,
        configuration: Configuration,
        workloads: list[VJobWorkload],
        rng: random.Random,
    ) -> None:
        """Register every VM and place the running ones.

        The initial state of each vjob is drawn at random (running, sleeping
        or waiting); a running VM is placed on a node with enough *memory*
        left — CPU overloads are allowed, as in the paper's generator, because
        resolving them is precisely the context switch's job.  The CPU demand
        of every VM is sampled from a random point of its trace.
        """
        memory_left = {
            node.name: node.memory_capacity for node in configuration.nodes
        }
        node_names = list(memory_left)

        for workload in workloads:
            state = rng.choice(
                [VJobState.RUNNING, VJobState.SLEEPING, VJobState.WAITING]
            )
            # Sample the demands at a random progress point of the vjob.
            progress = rng.uniform(0, workload.duration)
            demands = workload.demands_at(progress)

            placements: dict[str, str] = {}
            if state is VJobState.RUNNING:
                for vm in workload.vjob.vms:
                    candidates = [
                        n for n in node_names if memory_left[n] >= vm.memory
                    ]
                    if not candidates:
                        # The cluster memory is exhausted: the vjob cannot be
                        # running initially, fall back to waiting.
                        state = VJobState.WAITING
                        placements.clear()
                        break
                    chosen = rng.choice(candidates)
                    placements[vm.name] = chosen
                    memory_left[chosen] -= vm.memory

            for vm in workload.vjob.vms:
                observed = vm.with_cpu_demand(demands[vm.name])
                configuration.add_vm(observed)
                if state is VJobState.RUNNING:
                    configuration.set_running(vm.name, placements[vm.name])
                elif state is VJobState.SLEEPING:
                    configuration.set_sleeping(vm.name, rng.choice(node_names))
                else:
                    configuration.set_waiting(vm.name)

            # Align the vjob life-cycle state with the drawn state.
            if state is VJobState.RUNNING:
                workload.vjob.run()
            elif state is VJobState.SLEEPING:
                workload.vjob.run()
                workload.vjob.suspend()


def paper_vm_counts() -> list[int]:
    """The VM counts of Figure 10: 54, 108, ..., 486."""
    return [54 * i for i in range(1, 10)]


def paper_cluster_nodes() -> list[Node]:
    """The 11 working nodes of the Section 2.3 / 5.2 testbed."""
    spec = config.PAPER_CLUSTER.node_spec
    return make_working_nodes(
        config.PAPER_CLUSTER.node_count,
        cpu_capacity=spec.cpu_capacity,
        memory_capacity=spec.usable_memory,
    )
