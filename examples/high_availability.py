#!/usr/bin/env python
"""Placement constraints: high availability and maintenance windows.

The paper's conclusion announces per-VM placement relations (already present
in Entropy), e.g. hosting the replicas of a service on different nodes for
high availability.  This example shows the optimizer honouring them during a
cluster-wide context switch:

* the two replicas of a database vjob must stay on distinct nodes (`Spread`);
* a node is drained for maintenance: no VM may run on it (`Ban`);
* a licensed application is pinned to a subset of nodes (`Fence`).

Run with::

    python examples/high_availability.py
"""

from __future__ import annotations

from repro.analysis.report import series
from repro.constraints import Ban, Fence, Spread, violated_constraints
from repro.core import ClusterContextSwitch
from repro.model import Configuration, VirtualMachine, make_working_nodes
from repro.model.vm import VMState


def main() -> None:
    nodes = make_working_nodes(4, cpu_capacity=2, memory_capacity=3584)
    configuration = Configuration(nodes=nodes)

    # two database replicas currently packed on the same node
    configuration.add_vm(VirtualMachine("db.primary", memory=1024, cpu_demand=1))
    configuration.add_vm(VirtualMachine("db.replica", memory=1024, cpu_demand=1))
    configuration.set_running("db.primary", "node-0")
    configuration.set_running("db.replica", "node-0")

    # a licensed application, currently suspended
    configuration.add_vm(VirtualMachine("licensed", memory=2048, cpu_demand=1))
    configuration.set_sleeping("licensed", "node-1")

    # a batch worker sitting on the node to drain
    configuration.add_vm(VirtualMachine("worker", memory=512, cpu_demand=1))
    configuration.set_running("worker", "node-3")

    constraints = [
        Spread(["db.primary", "db.replica"]),
        Ban(["db.primary", "db.replica", "licensed", "worker"], ["node-3"]),
        Fence(["licensed"], ["node-1", "node-2"]),
    ]
    print("violated before the switch:",
          [type(c).__name__ for c in violated_constraints(configuration, constraints)])

    switcher = ClusterContextSwitch(optimizer_timeout=5.0)
    report = switcher.compute(
        configuration,
        {"licensed": VMState.RUNNING},
        constraints=constraints,
    )

    print()
    print(report.plan)
    rows = [
        (vm, configuration.location_of(vm) or configuration.image_location_of(vm) or "-",
         report.target.location_of(vm) or "-")
        for vm in configuration.vm_names
    ]
    print(series("placement before / after", ["vm", "before", "after"], rows))

    final = report.plan.apply()
    print("violated after the switch:",
          [type(c).__name__ for c in violated_constraints(final, constraints)])
    print("plan cost:", report.total_cost)


if __name__ == "__main__":
    main()
