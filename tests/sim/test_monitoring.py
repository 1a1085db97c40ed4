"""Tests of the monitoring service (Ganglia substitute and demand cache)."""

from repro import config
from repro.sim.monitoring import MonitoringService
from repro.testing import make_vjob
from repro.workloads.traces import VJobWorkload, alternating_trace

DELAY = config.MONITORING_DELAY_S


def _workload(name="j", *segments, cpu=1):
    """A one-VM vjob registered at ``cpu`` whose trace is ``segments``."""
    vjob = make_vjob(name, vm_count=1, cpu=cpu)
    return VJobWorkload(
        vjob=vjob, traces={f"{name}.vm0": alternating_trace(segments)}
    )


def _service(workload):
    service = MonitoringService()
    service.add(workload)
    return service


class TestObservation:
    def test_observe_returns_the_demands_that_differ_from_registration(self):
        service = MonitoringService()
        service.add(_workload("a", (100.0, 0), cpu=1))
        service.add(_workload("b", (100.0, 1), cpu=1))
        # b's VM is registered at the demand its trace starts at.
        assert service.observe(0.0) == {"a.vm0": 0}
        assert service.of_vjob == {"a": 0, "b": 1}
        assert service.duration == {"a": 100.0, "b": 100.0}

    def test_a_refresh_past_a_phase_is_observed_once(self):
        workload = _workload("j", (100.0, 1), (100.0, 0))
        service = _service(workload)
        assert service.observe(0.0) == {}
        service.refresh(workload, 50.0)
        assert service.observe(50.0) == {}
        service.refresh(workload, 150.0)
        assert service.of_vjob["j"] == 0
        assert service.observe(150.0) == {"j.vm0": 0}
        assert service.observe(160.0) == {}

    def test_observation_keeps_the_values_it_read(self):
        workload = _workload("j", (100.0, 0), (100.0, 1), cpu=1)
        service = _service(workload)
        observation = service.observe(0.0)
        service.refresh(workload, 150.0)
        assert observation == {"j.vm0": 0}

    def test_a_demand_back_at_the_held_value_is_not_carried(self):
        workload = _workload("j", (100.0, 1), (100.0, 0), (100.0, 1))
        service = _service(workload)
        assert service.observe(0.0) == {}
        service.refresh(workload, 150.0)
        service.refresh(workload, 250.0)
        assert service.observe(250.0) == {}


class TestStaleness:
    def test_observation_right_after_reconfiguration_is_stale(self):
        workload = _workload("j", (100.0, 1), (100.0, 0))
        service = _service(workload)
        service.observe(0.0)
        service.notify_reconfiguration(50.0)
        service.refresh(workload, 120.0)  # the real demand changed
        assert service.observe(50.0 + DELAY / 2) is None
        # The change waits for the next fresh observation.
        assert service.observe(50.0 + DELAY) == {"j.vm0": 0}

    def test_observation_after_refresh_delay_is_fresh(self):
        workload = _workload("j", (100.0, 1), (100.0, 0))
        service = _service(workload)
        service.observe(0.0)
        service.notify_reconfiguration(50.0)
        service.refresh(workload, 120.0)
        assert service.observe(50.0 + DELAY + 1.0) == {"j.vm0": 0}

    def test_no_previous_observation_means_fresh(self):
        workload = _workload("j", (100.0, 0), cpu=1)
        service = _service(workload)
        service.notify_reconfiguration(0.0)
        assert service.observe(1.0) == {"j.vm0": 0}
        assert service.observe(2.0) is None
