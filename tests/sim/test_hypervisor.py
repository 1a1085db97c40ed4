"""Tests of the calibrated hypervisor duration model (Section 2.3, Figure 3)."""

import pytest

from repro import config
from repro.core.actions import Migrate, Resume, Run, Stop, Suspend
from repro.model.configuration import Configuration
from repro.model.node import make_working_nodes
from repro.sim.hypervisor import (
    DEFAULT_HYPERVISOR,
    FAST_STOP_HYPERVISOR,
    HypervisorModel,
    TransferMethod,
    remote_factor,
)

from repro.testing import make_vm


@pytest.fixture
def configuration():
    configuration = Configuration(nodes=make_working_nodes(2, memory_capacity=8192))
    configuration.add_vm(make_vm("vm", memory=2048, cpu=1))
    configuration.set_running("vm", "node-0")
    return configuration


class TestFigure3a:
    """Run/migrate/stop durations."""

    def test_boot_duration_is_memory_independent(self):
        model = DEFAULT_HYPERVISOR
        assert model.run_duration(512) == model.run_duration(2048) == pytest.approx(6.0)

    def test_clean_shutdown_is_about_25_seconds(self):
        assert DEFAULT_HYPERVISOR.stop_duration(1024) == pytest.approx(25.0)

    def test_hard_shutdown_is_much_faster(self):
        assert FAST_STOP_HYPERVISOR.stop_duration(1024) < 5.0

    def test_migration_grows_with_memory(self):
        model = DEFAULT_HYPERVISOR
        assert model.migrate_duration(512) < model.migrate_duration(1024) < model.migrate_duration(2048)

    def test_migrating_2gb_takes_up_to_26_seconds(self):
        assert 15.0 <= DEFAULT_HYPERVISOR.migrate_duration(2048) <= 26.0


class TestFigure3bAnd3c:
    """Suspend/resume durations, local vs remote."""

    def test_suspend_grows_with_memory(self):
        model = DEFAULT_HYPERVISOR
        assert model.suspend_duration(512) < model.suspend_duration(2048)

    def test_remote_suspend_is_about_twice_the_local_one(self):
        model = DEFAULT_HYPERVISOR
        local = model.suspend_duration(1024, local=True)
        remote = model.suspend_duration(1024, local=False)
        assert remote == pytest.approx(local * config.REMOTE_IMAGE_FACTOR_SCP)

    def test_remote_resume_is_about_twice_the_local_one(self):
        model = DEFAULT_HYPERVISOR
        local = model.resume_duration(2048, local=True)
        remote = model.resume_duration(2048, local=False)
        assert remote / local == pytest.approx(2.0, rel=0.1)

    def test_remote_resume_of_2gb_is_in_the_minutes_range(self):
        remote = DEFAULT_HYPERVISOR.resume_duration(2048, local=False)
        assert 120.0 <= remote <= 240.0

    def test_remote_factors(self):
        assert remote_factor(TransferMethod.LOCAL) == 1.0
        assert remote_factor(TransferMethod.SCP) == pytest.approx(2.0)
        assert remote_factor(TransferMethod.RSYNC) > 1.0

    def test_rsync_transfer_is_slightly_cheaper_than_scp(self):
        scp = HypervisorModel(transfer_method=TransferMethod.SCP)
        rsync = HypervisorModel(transfer_method=TransferMethod.RSYNC)
        assert rsync.resume_duration(1024, local=False) < scp.resume_duration(
            1024, local=False
        )


class TestActionDispatch:
    def test_action_duration_dispatch(self, configuration):
        model = DEFAULT_HYPERVISOR
        configuration.add_vm(make_vm("sleepy", memory=1024))
        configuration.set_sleeping("sleepy", "node-0")
        configuration.add_vm(make_vm("fresh", memory=512))

        assert model.action_duration(Run(vm="fresh", node="node-1"), configuration) == 6.0
        assert model.action_duration(Stop(vm="vm", node="node-0"), configuration) == 25.0
        migrate = Migrate(vm="vm", source_node="node-0", destination_node="node-1")
        assert model.action_duration(migrate, configuration) == pytest.approx(
            model.migrate_duration(2048)
        )
        suspend = Suspend(vm="vm", node="node-0")
        assert model.action_duration(suspend, configuration) == pytest.approx(
            model.suspend_duration(2048)
        )
        local = Resume(vm="sleepy", image_node="node-0", destination_node="node-0")
        remote = Resume(vm="sleepy", image_node="node-0", destination_node="node-1")
        assert model.action_duration(remote, configuration) > model.action_duration(
            local, configuration
        )

    def test_unknown_action_type_rejected(self, configuration):
        class Fake:
            vm = "vm"

        with pytest.raises(TypeError):
            DEFAULT_HYPERVISOR.action_duration(Fake(), configuration)  # type: ignore[arg-type]
