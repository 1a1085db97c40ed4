"""Tests of the Running Job Selection Problem (Section 3.2, Figure 6)."""

import pytest

from repro.constraints import PlacementConstraint
from repro.decision.rjsp import RetainedSelection, select_running_vjobs
from repro.model.configuration import Configuration
from repro.model.node import make_working_nodes
from repro.model.queue import VJobQueue
from repro.model.vjob import VJob, VJobState
from repro.model.vm import VirtualMachine, VMState


def vjob(name, vm_count, memory=512, cpu=1, priority=0):
    vms = [
        VirtualMachine(
            name=f"{name}.vm{i}", memory=memory, cpu_demand=cpu, vjob=name
        )
        for i in range(vm_count)
    ]
    return VJob(name=name, vms=vms, priority=priority)


def uniprocessor_cluster(count=3, memory=2048):
    return Configuration(
        nodes=make_working_nodes(count, cpu_capacity=1, memory_capacity=memory)
    )


class TestFigure6Scenario:
    """Three vjobs, three uniprocessor nodes: vjob 1 and 3 fit, vjob 2 must
    sleep."""

    def _scenario(self):
        configuration = uniprocessor_cluster()
        j1 = vjob("vjob1", vm_count=2, cpu=1, priority=1)       # needs 2 CPUs
        j2 = vjob("vjob2", vm_count=2, cpu=1, priority=2)       # needs 2 CPUs
        j3 = vjob("vjob3", vm_count=1, cpu=1, priority=3)       # needs 1 CPU
        j1.run()
        j2.run()
        for vm in list(j1.vms) + list(j2.vms) + list(j3.vms):
            configuration.add_vm(vm)
        configuration.set_running("vjob1.vm0", "node-0")
        configuration.set_running("vjob1.vm1", "node-1")
        configuration.set_running("vjob2.vm0", "node-2")
        configuration.set_running("vjob2.vm1", "node-2")  # overloaded node
        queue = VJobQueue([j1, j2, j3])
        return configuration, queue

    def test_vjob2_is_suspended_and_vjob3_selected(self):
        configuration, queue = self._scenario()
        result = select_running_vjobs(configuration, queue)
        assert result.accepted == ["vjob1", "vjob3"]
        assert result.rejected == ["vjob2"]
        assert result.vjob_states["vjob1"] is VJobState.RUNNING
        assert result.vjob_states["vjob2"] is VJobState.SLEEPING
        assert result.vjob_states["vjob3"] is VJobState.RUNNING

    def test_vm_states_follow_vjob_decision(self):
        configuration, queue = self._scenario()
        result = select_running_vjobs(configuration, queue)
        assert result.vm_states["vjob1.vm0"] is VMState.RUNNING
        assert result.vm_states["vjob2.vm0"] is VMState.SLEEPING
        assert result.vm_states["vjob3.vm0"] is VMState.RUNNING

    def test_trial_placement_only_covers_accepted_vjobs(self):
        configuration, queue = self._scenario()
        result = select_running_vjobs(configuration, queue)
        assert set(result.trial_placement) == {
            "vjob1.vm0",
            "vjob1.vm1",
            "vjob3.vm0",
        }


class TestQueueSemantics:
    def test_priority_order_is_respected(self):
        configuration = uniprocessor_cluster(count=1)
        high = vjob("high", vm_count=1, priority=1)
        low = vjob("low", vm_count=1, priority=2)
        queue = VJobQueue([low, high])
        result = select_running_vjobs(configuration, queue)
        assert result.accepted == ["high"]
        assert result.rejected == ["low"]

    def test_rejected_waiting_vjob_stays_waiting(self):
        configuration = uniprocessor_cluster(count=1)
        running = vjob("running", vm_count=1, priority=1)
        running.run()
        waiting = vjob("waiting", vm_count=1, priority=2)
        for vm in list(running.vms) + list(waiting.vms):
            configuration.add_vm(vm)
        configuration.set_running("running.vm0", "node-0")
        queue = VJobQueue([running, waiting])
        result = select_running_vjobs(configuration, queue)
        assert result.vjob_states["waiting"] is VJobState.WAITING
        assert result.vm_states["waiting.vm0"] is VMState.WAITING

    def test_rejected_sleeping_vjob_stays_sleeping(self):
        configuration = uniprocessor_cluster(count=1)
        runner = vjob("runner", vm_count=1, priority=1)
        runner.run()
        sleeper = vjob("sleeper", vm_count=1, priority=2)
        sleeper.run()
        sleeper.suspend()
        for vm in list(runner.vms) + list(sleeper.vms):
            configuration.add_vm(vm)
        configuration.set_running("runner.vm0", "node-0")
        configuration.set_sleeping("sleeper.vm0", "node-0")
        queue = VJobQueue([runner, sleeper])
        result = select_running_vjobs(configuration, queue)
        assert result.vjob_states["sleeper"] is VJobState.SLEEPING

    def test_terminated_vjobs_are_ignored(self):
        configuration = uniprocessor_cluster()
        done = vjob("done", vm_count=1)
        done.terminate()
        alive = vjob("alive", vm_count=1)
        for vm in list(done.vms) + list(alive.vms):
            configuration.add_vm(vm)
        queue = VJobQueue([done, alive])
        result = select_running_vjobs(configuration, queue)
        assert "done" not in result.vjob_states
        assert result.accepted == ["alive"]

    def test_memory_limits_are_honoured(self):
        configuration = uniprocessor_cluster(count=2, memory=1024)
        fat = vjob("fat", vm_count=2, memory=1024, cpu=0, priority=1)
        thin = vjob("thin", vm_count=1, memory=512, cpu=0, priority=2)
        for vm in list(fat.vms) + list(thin.vms):
            configuration.add_vm(vm)
        queue = VJobQueue([fat, thin])
        result = select_running_vjobs(configuration, queue)
        assert result.accepted == ["fat"]
        assert result.rejected == ["thin"]

    def test_observed_demand_changes_the_outcome(self):
        configuration = uniprocessor_cluster(count=1)
        j1 = vjob("j1", vm_count=1, cpu=1, priority=1)
        j2 = vjob("j2", vm_count=1, cpu=1, priority=2)
        for vm in list(j1.vms) + list(j2.vms):
            configuration.add_vm(vm)
        queue = VJobQueue([j1, j2])
        assert select_running_vjobs(configuration, queue).accepted == ["j1"]
        # With fresh monitoring data saying j1's VM is idle, both vjobs fit.
        configuration.replace_vm(configuration.vm("j1.vm0").with_cpu_demand(0))
        result = select_running_vjobs(configuration, queue)
        assert result.accepted == ["j1", "j2"]

    def test_empty_queue(self):
        configuration = uniprocessor_cluster()
        result = select_running_vjobs(configuration, VJobQueue())
        assert result.accepted == [] and result.rejected == []


class _Breaks(PlacementConstraint):
    """A relational constraint whose probe raises while ``broken``."""

    relational = True
    broken = False

    def allows(self, vm_name, node_name, trial):
        if self.broken:
            raise RuntimeError("probe failed")
        return True

    def is_satisfied_by(self, configuration):
        return True


class _StayPut(PlacementConstraint):
    """A running member may only stay on its host: a unary restriction that
    reads the placement."""

    def __init__(self, vms):
        self.vms = tuple(vms)

    def allowed_nodes(self, vm_name, node_names, configuration=None):
        if vm_name not in self.vms or configuration is None:
            return None
        host = configuration.location_of(vm_name)
        return None if host is None else {host}

    def is_satisfied_by(self, configuration):
        return True


class TestRetainedSelection:
    def _two_vjobs(self):
        configuration = uniprocessor_cluster()
        j1 = vjob("j1", vm_count=1, priority=1)
        j2 = vjob("j2", vm_count=1, priority=2)
        for vm in list(j1.vms) + list(j2.vms):
            configuration.add_vm(vm)
        return configuration, VJobQueue([j1, j2])

    def test_a_packing_cut_short_leaves_nothing_retained(self):
        configuration, queue = self._two_vjobs()
        catalog = [_Breaks()]
        # The selection keeps its trial under its memory's key.
        retained = RetainedSelection()
        assert retained.domains.key(configuration, catalog) is not None
        first = select_running_vjobs(
            configuration, queue, constraints=catalog, retained=retained
        )
        assert first.accepted == ["j1", "j2"]
        assert retained.trial is not None
        assert [entry.name for entry in retained.entries] == ["j1", "j2"]

        # j2's VM idles: the selection re-packs from j2, and its probe
        # raises half-way.
        idle = configuration.copy()
        idle.replace_vm(idle.vm("j2.vm0").with_cpu_demand(0))
        catalog[0].broken = True
        with pytest.raises(RuntimeError):
            select_running_vjobs(
                idle, queue, constraints=catalog, retained=retained
            )
        assert retained.trial is None and retained.entries == []

        catalog[0].broken = False
        again = select_running_vjobs(
            configuration, queue, constraints=catalog, retained=retained
        )
        assert again == select_running_vjobs(
            configuration, queue, constraints=catalog
        )

    def test_a_catalog_reading_the_placement_keeps_no_trial(self):
        configuration, queue = self._two_vjobs()
        catalog = [_StayPut(["j1.vm0"])]
        retained = RetainedSelection()
        assert retained.domains.key(configuration, catalog) is None
        result = select_running_vjobs(
            configuration, queue, constraints=catalog, retained=retained
        )
        assert result == select_running_vjobs(
            configuration, queue, constraints=catalog
        )
        assert retained.trial is None and retained.entries == []
