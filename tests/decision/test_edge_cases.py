"""Edge cases of the pluggable decision modules.

The API tests exercise the happy paths; these pin down the corners every
policy must survive without crashing and with sensible decisions:

* an **empty queue** — nothing to decide, the decision is a no-op;
* **all vjobs suspended** — the policies either resume them (capacity
  permitting) or leave them sleeping, but never lose or corrupt state;
* **zero-capacity nodes** — no vjob can be admitted, every policy must
  reject the whole queue instead of dividing by zero or packing onto
  phantom capacity.
"""

from __future__ import annotations

import pytest

from repro.decision import FCFSDecisionModule, FFDDecisionModule, RJSPDecisionModule
from repro.model import Configuration, VJob, VJobQueue, VirtualMachine, make_working_nodes
from repro.model.vjob import VJobState
from repro.model.vm import VMState

MODULES = [FCFSDecisionModule, FFDDecisionModule, RJSPDecisionModule]


def make_cluster(count=2, cpu=2, memory=4096):
    nodes = make_working_nodes(count, cpu_capacity=cpu, memory_capacity=memory)
    return Configuration(nodes=nodes)


def make_vjob(name, vm_count=2, memory=512, cpu=1, priority=0):
    vms = [
        VirtualMachine(f"{name}.vm{i}", memory=memory, cpu_demand=cpu, vjob=name)
        for i in range(vm_count)
    ]
    return VJob(name=name, vms=vms, priority=priority)


class TestEmptyQueue:
    @pytest.mark.parametrize("module_cls", MODULES)
    def test_empty_queue_is_a_noop(self, module_cls):
        configuration = make_cluster()
        decision = module_cls().decide(configuration, VJobQueue())
        assert decision.vm_states == {}
        assert decision.vjob_states == {}
        assert not decision.vm_states

    @pytest.mark.parametrize("module_cls", MODULES)
    def test_empty_queue_with_zero_capacity_nodes(self, module_cls):
        configuration = make_cluster(cpu=0, memory=0)
        decision = module_cls().decide(configuration, VJobQueue())
        assert not decision.vm_states


class TestAllVJobsSuspended:
    def _suspended_world(self):
        configuration = make_cluster(count=2, cpu=2, memory=4096)
        vjobs = [make_vjob(f"vjob{i}", priority=i) for i in range(2)]
        queue = VJobQueue(vjobs)
        for vjob in vjobs:
            vjob.run()
            vjob.suspend()
            for vm in vjob.vms:
                configuration.add_vm(vm)
                configuration.set_sleeping(vm.name, "node-0")
        return configuration, queue

    @pytest.mark.parametrize("module_cls", [FFDDecisionModule, RJSPDecisionModule])
    def test_suspended_vjobs_resume_when_capacity_allows(self, module_cls):
        configuration, queue = self._suspended_world()
        decision = module_cls().decide(configuration, queue)
        for vjob in queue.pending():
            assert decision.vjob_states[vjob.name] is VJobState.RUNNING
            for vm in vjob.vms:
                assert decision.vm_states[vm.name] is VMState.RUNNING

    def test_fcfs_resumes_suspended_vjobs_when_booking_fits(self):
        configuration, queue = self._suspended_world()
        decision = FCFSDecisionModule().decide(configuration, queue)
        # 2 vjobs x 2 VMs x 1 booked CPU fits the 2x2 CPU cluster exactly.
        for vjob in queue.pending():
            assert decision.vjob_states[vjob.name] is VJobState.RUNNING

    @pytest.mark.parametrize("module_cls", MODULES)
    def test_suspended_vjobs_stay_sleeping_without_capacity(self, module_cls):
        configuration, queue = self._suspended_world()
        starved = Configuration(
            nodes=make_working_nodes(2, cpu_capacity=0, memory_capacity=0)
        )
        for vm in configuration.vms:
            starved.add_vm(vm)
            starved.set_sleeping(vm.name, "node-0")
        decision = module_cls().decide(starved, queue)
        for vjob in queue.pending():
            assert decision.vjob_states[vjob.name] is VJobState.SLEEPING
            for vm in vjob.vms:
                assert decision.vm_states[vm.name] is VMState.SLEEPING


class TestZeroCapacityNodes:
    @pytest.mark.parametrize("module_cls", MODULES)
    def test_waiting_vjobs_are_all_rejected(self, module_cls):
        configuration = make_cluster(cpu=0, memory=0)
        vjobs = [make_vjob(f"vjob{i}", priority=i) for i in range(3)]
        queue = VJobQueue(vjobs)
        for vjob in vjobs:
            for vm in vjob.vms:
                configuration.add_vm(vm)
                configuration.set_waiting(vm.name)
        decision = module_cls().decide(configuration, queue)
        for vjob in vjobs:
            assert decision.vjob_states[vjob.name] is VJobState.WAITING
            for vm in vjob.vms:
                assert decision.vm_states[vm.name] is VMState.WAITING

    @pytest.mark.parametrize("module_cls", MODULES)
    def test_zero_cpu_but_enough_memory_still_rejects(self, module_cls):
        """CPU-starved nodes must reject VMs that demand processing units even
        when the memory dimension would fit."""
        configuration = make_cluster(cpu=0, memory=8192)
        vjob = make_vjob("vjob0", cpu=1)
        queue = VJobQueue([vjob])
        for vm in vjob.vms:
            configuration.add_vm(vm)
            configuration.set_waiting(vm.name)
        decision = module_cls().decide(configuration, queue)
        assert decision.vjob_states["vjob0"] is VJobState.WAITING

    def test_ffd_target_is_none_when_nothing_fits(self):
        configuration = make_cluster(cpu=0, memory=0)
        vjob = make_vjob("vjob0")
        queue = VJobQueue([vjob])
        for vm in vjob.vms:
            configuration.add_vm(vm)
            configuration.set_waiting(vm.name)
        decision = FFDDecisionModule().decide(configuration, queue)
        # Nothing must run, so the from-scratch FFD packing trivially succeeds
        # and produces a target where every VM still waits.
        assert decision.target is not None
        for vm in vjob.vms:
            assert decision.target.state_of(vm.name) is VMState.WAITING

    def test_idle_vjob_is_admitted_on_cpu_starved_nodes(self):
        """A vjob of idle VMs (0 CPU demand) fits a zero-CPU node as long as
        the memory fits — the packing must not reject on equality."""
        configuration = make_cluster(cpu=0, memory=64)
        vms = [VirtualMachine("v.vm0", memory=64, cpu_demand=0, vjob="v")]
        vjob = VJob(name="v", vms=vms)
        queue = VJobQueue([vjob])
        configuration.add_vm(vms[0])
        configuration.set_waiting("v.vm0")
        decision = RJSPDecisionModule().decide(configuration, queue)
        assert decision.vjob_states["v"] is VJobState.RUNNING
