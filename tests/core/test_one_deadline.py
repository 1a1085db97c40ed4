"""One deadline per round: every search one
:meth:`~repro.core.context_switch.ClusterContextSwitch.compute` runs reads the
deadline the first optimizer it entered made — the same float, whatever the
engine and however many solves the round takes."""

import time

import pytest

from repro.constraints import Fence
from repro.core.context_switch import ClusterContextSwitch
from repro.core.optimizer import ContextSwitchOptimizer
from repro.cp import SearchStatistics
from repro.model.configuration import Configuration
from repro.model.node import make_working_nodes
from repro.model.vm import VMState
from repro.scale import parallel
from repro.scale.parallel import ZoneOutcome
from repro.testing import make_vm

BUDGET = 5.0
CATALOG = [
    Fence(["vm0", "vm1", "vm2"], ["node-0", "node-1", "node-2"]),
    Fence(["vm3", "vm4", "vm5"], ["node-3", "node-4", "node-5"]),
]


def _fleet():
    """Six VMs, one a node, in two fenced zones."""
    configuration = Configuration(
        nodes=make_working_nodes(6, cpu_capacity=2, memory_capacity=4096)
    )
    for index in range(6):
        configuration.add_vm(make_vm(f"vm{index}", memory=1024, cpu=1))
        configuration.set_running(f"vm{index}", f"node-{index}")
    return configuration


def _overloaded():
    """``node-0`` must shed ``vm1``: no round at the bound, so every engine
    searches."""
    configuration = _fleet()
    configuration.replace_vm(make_vm("vm0", memory=1024, cpu=2))
    configuration.migrate("vm1", "node-0")
    return configuration


def _running(configuration):
    return dict.fromkeys(configuration.vm_names, VMState.RUNNING)


@pytest.mark.parametrize(
    "engine, searches",
    [
        ("event", 1),
        # the zones fail: the monolithic re-solve
        ("partitioned", 1),
        # the attempt fails: the full solve
        ("repair", 2),
        # the attempt's zones and re-solve fail, then the full solve's zones
        ("repair-partitioned", 2),
    ],
)
def test_every_search_of_a_round_reads_one_deadline(monkeypatch, engine, searches):
    switch = ClusterContextSwitch(
        optimizer_timeout=BUDGET, engine=engine, zone_executor="serial"
    )
    if engine.startswith("repair"):
        # A cold round first, so the spied one is warm and freezes a region.
        switch.compute(_fleet(), _running(_fleet()), constraints=CATALOG)
        switch.mark_dirty(["vm0"])

    deadlines = []
    search = ContextSwitchOptimizer._search
    current = _overloaded()

    def spy(self, configuration, vms, domains, constraints, deadline):
        deadlines.append(deadline)
        if configuration is not current:
            # the repair attempt, searched on its cut, finds nothing
            return None, SearchStatistics(), []
        return search(self, configuration, vms, domains, constraints, deadline)

    def failed_zone(task):
        return ZoneOutcome(
            index=task.zone.index,
            assignment=None,
            statistics=SearchStatistics(),
            elapsed=0.0,
        )

    monkeypatch.setattr(ContextSwitchOptimizer, "_search", spy)
    monkeypatch.setattr(parallel, "solve_zone", failed_zone)
    entered = time.monotonic()
    report = switch.compute(current, _running(current), constraints=CATALOG)
    left = time.monotonic()

    assert not report.used_fallback and report.target.is_viable()
    if engine.startswith("repair"):
        assert report.repair["mode"] == "full"
    assert len(deadlines) == searches
    assert len(set(deadlines)) == 1
    # made once, from the budget, when the round entered its optimizer
    assert entered + BUDGET <= deadlines[0] <= left + BUDGET
