"""Tests of the virtual machine model."""

import pytest

from repro.model.resources import ResourceVector
from repro.model.vm import VirtualMachine, VMState


class TestVirtualMachine:
    def test_demand_combines_cpu_and_memory(self):
        vm = VirtualMachine(name="vm1", memory=1024, cpu_demand=1)
        assert vm.demand == ResourceVector(1, 1024)

    def test_idle_vm_has_zero_cpu_demand(self):
        vm = VirtualMachine(name="vm1", memory=512)
        assert vm.demand == ResourceVector(0, 512)

    def test_with_cpu_demand_returns_new_instance(self):
        vm = VirtualMachine(name="vm1", memory=512, cpu_demand=0)
        busy = vm.with_cpu_demand(1)
        assert busy.cpu_demand == 1
        assert vm.cpu_demand == 0
        assert busy.name == vm.name and busy.memory == vm.memory

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            VirtualMachine(name="", memory=512)

    def test_rejects_non_positive_memory(self):
        with pytest.raises(ValueError):
            VirtualMachine(name="vm1", memory=0)
        with pytest.raises(ValueError):
            VirtualMachine(name="vm1", memory=-512)

    def test_rejects_negative_cpu_demand(self):
        with pytest.raises(ValueError):
            VirtualMachine(name="vm1", memory=512, cpu_demand=-1)

    def test_vjob_tag(self):
        vm = VirtualMachine(name="j1.vm0", memory=512, vjob="j1")
        assert vm.vjob == "j1"

    def test_states_enum_values(self):
        assert VMState.RUNNING.value == "running"
        assert VMState.SLEEPING.value == "sleeping"
        assert VMState.WAITING.value == "waiting"
        assert VMState.TERMINATED.value == "terminated"
