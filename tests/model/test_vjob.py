"""Tests of the vjob life cycle (Figure 2)."""

import pytest

from repro.model.errors import InvalidStateTransition
from repro.model.vjob import VJob, VJobState, index_vms_by_vjob
from repro.model.vm import VirtualMachine


def make_vjob(name="j1", vm_count=2, memory=512, cpu=1) -> VJob:
    vms = [
        VirtualMachine(name=f"{name}.vm{i}", memory=memory, cpu_demand=cpu, vjob=name)
        for i in range(vm_count)
    ]
    return VJob(name=name, vms=vms)


class TestLifeCycle:
    def test_submission_state_is_waiting(self):
        assert make_vjob().state is VJobState.WAITING

    def test_run_from_waiting(self):
        vjob = make_vjob()
        vjob.run()
        assert vjob.state is VJobState.RUNNING

    def test_suspend_from_running(self):
        vjob = make_vjob()
        vjob.run()
        vjob.suspend()
        assert vjob.state is VJobState.SLEEPING

    def test_cannot_suspend_a_sleeping_vjob(self):
        vjob = make_vjob()
        vjob.run()
        vjob.suspend()
        with pytest.raises(InvalidStateTransition):
            vjob.suspend()
        assert vjob.state is VJobState.SLEEPING

    def test_terminate_from_sleeping(self):
        vjob = make_vjob()
        vjob.run()
        vjob.suspend()
        vjob.terminate()
        assert vjob.is_terminated

    def test_terminate_from_running(self):
        vjob = make_vjob()
        vjob.run()
        vjob.terminate()
        assert vjob.is_terminated

    def test_terminate_from_waiting(self):
        vjob = make_vjob()
        vjob.terminate()
        assert vjob.is_terminated

    def test_cannot_suspend_a_waiting_vjob(self):
        with pytest.raises(InvalidStateTransition):
            make_vjob().suspend()

    def test_cannot_run_a_terminated_vjob(self):
        vjob = make_vjob()
        vjob.terminate()
        with pytest.raises(InvalidStateTransition):
            vjob.run()

    def test_transition_error_reports_states(self):
        vjob = make_vjob()
        with pytest.raises(InvalidStateTransition) as excinfo:
            vjob.suspend()
        assert "waiting" in str(excinfo.value)
        assert "sleeping" in str(excinfo.value)


class TestVJobProperties:

    def test_total_memory(self):
        assert make_vjob(vm_count=2, memory=2048).total_memory == 4096

    def test_vm_names(self):
        assert make_vjob(name="job", vm_count=2).vm_names == ("job.vm0", "job.vm1")

    def test_requires_at_least_one_vm(self):
        with pytest.raises(ValueError):
            VJob(name="empty", vms=[])

    def test_rejects_vm_tagged_for_another_vjob(self):
        foreign = VirtualMachine(name="x", memory=512, vjob="other")
        with pytest.raises(ValueError):
            VJob(name="j1", vms=[foreign])

    def test_accepts_untagged_vms(self):
        vm = VirtualMachine(name="x", memory=512)
        vjob = VJob(name="j1", vms=[vm])
        assert vjob.vm_names == ("x",)


class TestIndexVmsByVjob:
    def test_mapping(self):
        j1, j2 = make_vjob("j1", 2), make_vjob("j2", 1)
        mapping = index_vms_by_vjob([j1, j2])
        assert mapping == {"j1.vm0": "j1", "j1.vm1": "j1", "j2.vm0": "j2"}
