"""Tests of the sample dynamic-consolidation decision module."""

import inspect

import pytest

from repro.api import ControlLoop
from repro.core.context_switch import ClusterContextSwitch
from repro.decision.consolidation import ConsolidationDecisionModule
from repro.model.configuration import Configuration
from repro.model.node import make_working_nodes
from repro.model.queue import VJobQueue
from repro.model.vjob import VJob, VJobState
from repro.model.vm import VirtualMachine, VMState


def vjob(name, vm_count=2, memory=512, cpu=1, priority=0):
    vms = [
        VirtualMachine(name=f"{name}.vm{i}", memory=memory, cpu_demand=cpu, vjob=name)
        for i in range(vm_count)
    ]
    return VJob(name=name, vms=vms, priority=priority)


@pytest.fixture
def module():
    return ConsolidationDecisionModule()


class TestDecide:
    def test_waiting_vjobs_are_started_when_resources_allow(self, module):
        configuration = Configuration(
            nodes=make_working_nodes(2, cpu_capacity=2, memory_capacity=4096)
        )
        j = vjob("j", vm_count=2)
        for vm in j.vms:
            configuration.add_vm(vm)
        decision = module.decide(configuration, VJobQueue([j]))
        assert decision.vm_states["j.vm0"] is VMState.RUNNING
        assert decision.vjob_states["j"] is VJobState.RUNNING
        assert decision.fallback_target is not None
        assert decision.fallback_target.is_viable()

    def test_overload_leads_to_suspension_of_lowest_priority(self, module):
        configuration = Configuration(
            nodes=make_working_nodes(2, cpu_capacity=1, memory_capacity=4096)
        )
        high = vjob("high", vm_count=2, priority=1)
        low = vjob("low", vm_count=2, priority=2)
        high.run()
        low.run()
        for vm in list(high.vms) + list(low.vms):
            configuration.add_vm(vm)
        configuration.set_running("high.vm0", "node-0")
        configuration.set_running("high.vm1", "node-1")
        configuration.set_running("low.vm0", "node-0")
        configuration.set_running("low.vm1", "node-1")
        decision = module.decide(configuration, VJobQueue([high, low]))
        assert decision.vjob_states["high"] is VJobState.RUNNING
        assert decision.vjob_states["low"] is VJobState.SLEEPING
        assert decision.vm_states["low.vm0"] is VMState.SLEEPING

    def test_terminated_vjob_vms_are_stopped(self, module):
        configuration = Configuration(
            nodes=make_working_nodes(2, cpu_capacity=2, memory_capacity=4096)
        )
        done = vjob("done", vm_count=1)
        done.run()
        for vm in done.vms:
            configuration.add_vm(vm)
        configuration.set_running("done.vm0", "node-0")
        done.terminate()
        decision = module.decide(configuration, VJobQueue([done]))
        assert decision.vm_states["done.vm0"] is VMState.TERMINATED

    def test_noop_decision_when_queue_is_empty(self, module):
        configuration = Configuration(nodes=make_working_nodes(1))
        decision = module.decide(configuration, VJobQueue())
        assert not decision.vm_states

    def test_monitoring_demands_are_used(self, module):
        """The monitored demands reach the selection through the observed
        configuration, where the loop's observe step writes them."""
        configuration = Configuration(
            nodes=make_working_nodes(1, cpu_capacity=1, memory_capacity=4096)
        )
        j1 = vjob("j1", vm_count=1, cpu=1, priority=1)
        j2 = vjob("j2", vm_count=1, cpu=1, priority=2)
        for vm in list(j1.vms) + list(j2.vms):
            configuration.add_vm(vm.with_cpu_demand(0))
        decision = module.decide(configuration, VJobQueue([j1, j2]))
        assert decision.vjob_states["j1"] is VJobState.RUNNING
        assert decision.vjob_states["j2"] is VJobState.RUNNING

    @pytest.mark.parametrize(("demand", "accepted"), [(1, 2), (2, 1)])
    def test_selection_fallback_and_switch_read_one_cluster(
        self, module, demand, accepted
    ):
        """Two 2-CPU VMs observed at ``demand`` on one 2-CPU node: the
        selection, its FFD fallback and the optimizer all read the demand
        from the configuration, so whatever the selection accepts, the
        fallback places and the switch plans."""
        configuration = Configuration(
            nodes=make_working_nodes(1, cpu_capacity=2, memory_capacity=4096)
        )
        vjobs = [vjob("a", 1, cpu=2, priority=1), vjob("b", 1, cpu=2, priority=2)]
        for j in vjobs:
            for vm in j.vms:
                configuration.add_vm(vm)
                configuration.replace_vm(vm.with_cpu_demand(demand))
        decision = module.decide(configuration, VJobQueue(vjobs))
        assert len(decision.metadata["rjsp"].accepted) == accepted
        assert decision.fallback_target is not None
        report = ClusterContextSwitch(optimizer_timeout=2.0).compute(
            configuration,
            decision.vm_states,
            fallback_target=decision.fallback_target,
        )
        assert report.target.is_viable()
        running = [vm for vm, s in decision.vm_states.items() if s is VMState.RUNNING]
        assert sorted(report.target.running_vms()) == sorted(running)

    def test_period_default_matches_paper(self):
        # Section 3.2 decides every 30 s; the loop steps by it, not the module
        period = inspect.signature(ControlLoop).parameters["period"].default
        assert period == 30.0
