"""Factories shared by the test-suite, the examples and the benchmarks.

The test modules are not a package, so they cannot relatively import shared
helpers from their ``conftest.py``; these factories live in the installed
package instead and are imported absolutely (``from repro.testing import
make_vm``).  They are also handy for quick interactive experiments.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from .constraints import Fence
from .model.configuration import Configuration
from .model.node import Node
from .model.vjob import VJob
from .model.vm import VirtualMachine
from .workloads.traces import VJobWorkload, alternating_trace, constant_trace

__all__ = [
    "make_vm",
    "make_vjob",
    "make_workload",
    "make_large_fleet",
    "fence_groups",
]


def make_vm(
    name: str, memory: int = 512, cpu: int = 0, vjob: str = ""
) -> VirtualMachine:
    """A VM with the paper's defaults (512 MB, idle) unless overridden."""
    return VirtualMachine(name=name, memory=memory, cpu_demand=cpu, vjob=vjob)


def make_vjob(
    name: str,
    vm_count: int = 2,
    memory: int = 512,
    cpu: int = 1,
    priority: int = 0,
) -> VJob:
    """A vjob of ``vm_count`` identical VMs named ``<name>.vm<i>``."""
    vms = [
        make_vm(f"{name}.vm{i}", memory=memory, cpu=cpu, vjob=name)
        for i in range(vm_count)
    ]
    return VJob(name=name, vms=vms, priority=priority)


def make_workload(
    name: str,
    vm_count: int = 2,
    memory: int = 512,
    duration: float = 120.0,
    priority: int = 0,
    idle_head: float = 0.0,
) -> VJobWorkload:
    """A vjob whose VMs compute for ``duration`` seconds (optionally after an
    idle phase of ``idle_head`` seconds)."""
    vjob = make_vjob(name, vm_count=vm_count, memory=memory, priority=priority)
    if idle_head > 0:
        trace = alternating_trace([(idle_head, 0), (duration, 1)])
    else:
        trace = constant_trace(duration, cpu_demand=1)
    return VJobWorkload(vjob=vjob, traces={vm.name: trace for vm in vjob.vms})


#: Session-level cache of :func:`make_large_fleet` results, keyed by the
#: factory arguments.  Large fleets are expensive to build; test modules
#: share one construction per parameter set and :meth:`Configuration.copy`
#: what they need to mutate.
_FLEET_CACHE: Dict[Tuple[int, int, int, int], Configuration] = {}


def make_large_fleet(
    vm_count: int,
    vms_per_node: int = 4,
    seed: int = 7,
    groups: int = 8,
    cached: bool = True,
) -> Configuration:
    """A seeded datacenter-tier fleet: ``vm_count`` running VMs spread
    round-robin over ``vm_count / vms_per_node`` nodes in ``groups``
    contiguous node groups (group ``g`` hosts the VMs with ``i % groups ==
    g`` — the layout the scale tests fence into zones).

    Results are cached per parameter set for the life of the process; the
    returned configuration is **shared**, so callers that mutate it must
    :meth:`~repro.model.configuration.Configuration.copy` it first (the
    session-scoped pytest fixture hands out copies).  Pass ``cached=False``
    for a private instance.
    """
    key = (vm_count, vms_per_node, seed, groups)
    if cached and key in _FLEET_CACHE:
        return _FLEET_CACHE[key]
    rng = random.Random(seed)
    node_count = max(groups, vm_count // vms_per_node)
    configuration = Configuration()
    node_names = [f"node-{i}" for i in range(node_count)]
    for name in node_names:
        configuration.add_node(
            Node(
                name=name,
                cpu_capacity=2 * (vms_per_node + 2),
                memory_capacity=1024 * (vms_per_node + 2),
            )
        )
    width = node_count // groups
    node_groups = [
        node_names[g * width: (g + 1) * width if g < groups - 1 else node_count]
        for g in range(groups)
    ]
    for i in range(vm_count):
        group = node_groups[i % groups]
        vm_name = f"vm-{i}"
        configuration.add_vm(
            VirtualMachine(
                name=vm_name, memory=1024, cpu_demand=rng.randint(1, 2)
            )
        )
        configuration.set_running(vm_name, group[(i // groups) % len(group)])
    if cached:
        _FLEET_CACHE[key] = configuration
    return configuration


def fence_groups(configuration: Configuration, groups: int = 8) -> List[Fence]:
    """The catalog that goes with :func:`make_large_fleet`'s layout: each
    ``i % groups`` VM cohort fenced onto its contiguous node-group slice, so
    every group is one placement zone."""
    node_names = list(configuration.node_names)
    width = len(node_names) // groups
    catalog = []
    for g in range(groups):
        stop = (g + 1) * width if g < groups - 1 else len(node_names)
        cohort = [
            name
            for i, name in enumerate(configuration.vm_names)
            if i % groups == g
        ]
        catalog.append(Fence(cohort, node_names[g * width : stop]))
    return catalog
