"""A vjob whose VMs an operator stops from outside the loop (ROADMAP item 28).

The loop reads a vjob's state from its own records, not from its VMs: after
an operator command stops every VM of a running vjob, the default policy
still sees the vjob running and asks to run its terminated VMs again, which
no plan can, so every round fails with ``PlanningError`` until the run ends.
This is the committed reproduction; it passes once a reconcile step derives
each live vjob's state from its VMs before the decision.
"""

from __future__ import annotations

import pytest

from repro import Scenario
from repro.api import LoopObserver
from repro.model import make_working_nodes
from repro.model.vjob import VJobState
from repro.service.commands import LoopCommandQueue
from repro.testing import make_workload


def _stop_the_first_running_vjob(loop, now):
    """The operator stops every VM of the first running vjob."""
    for vjob in loop.queue:
        if vjob.state is VJobState.RUNNING:
            for vm_name in vjob.vm_names:
                loop.cluster.configuration.set_terminated(vm_name)
            return


class _StopAt(LoopObserver):
    """Queues the stop command at the first sample at or after ``at``."""

    def __init__(self, commands: LoopCommandQueue, at: float) -> None:
        self.commands = commands
        self.at = at

    def on_sample(self, sample):
        if self.at is not None and self.at <= sample.time:
            self.commands.call(_stop_the_first_running_vjob, label="stop")
            self.at = None


@pytest.mark.xfail(strict=True, reason="ROADMAP item 28")
def test_an_operator_stop_leaves_no_round_unplannable():
    commands = LoopCommandQueue()
    result = (
        Scenario(
            nodes=make_working_nodes(3, cpu_capacity=2, memory_capacity=4096),
            workloads=[make_workload(f"w{i}", duration=300.0) for i in range(3)],
            optimizer_timeout=1.0,
            observers=[_StopAt(commands, 90.0)],
        )
        .build(command_queue=commands)
        .run()
    )
    assert commands.applied == ["stop"] and commands.errors == []
    assert result.metadata["planning_failures"] == 0
