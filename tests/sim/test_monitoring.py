"""Tests of the monitoring service (Ganglia substitute)."""

from repro import config
from repro.sim.monitoring import MonitoringService

DELAY = config.MONITORING_DELAY_S


class TestObservation:
    def test_observe_returns_demands(self):
        service = MonitoringService(lambda t: {"a": 1, "b": 0})
        observation = service.observe(0.0)
        assert observation.time == 0.0
        assert observation.cpu_demands == {"a": 1, "b": 0}

    def test_time_varying_source(self):
        def source(time):
            return {"a": 1 if time < 100 else 0}

        service = MonitoringService(source)
        assert service.observe(0.0).cpu_demands["a"] == 1
        assert service.observe(200.0).cpu_demands["a"] == 0

    def test_observation_keeps_the_values_it_read(self):
        # the source may hand out a live mapping: an observation is a copy
        values = {"a": 1}
        observation = MonitoringService(lambda t: values).observe(0.0)
        values["a"] = 0
        assert observation.cpu_demands["a"] == 1


class TestStaleness:
    def test_observation_right_after_reconfiguration_is_stale(self):
        values = {"a": 1}
        service = MonitoringService(lambda t: values)
        service.observe(0.0)
        service.notify_reconfiguration(50.0)
        values["a"] = 0  # the real demand changed
        stale = service.observe(50.0 + DELAY / 2)
        assert stale.time == 50.0 + DELAY / 2
        assert stale.cpu_demands["a"] == 1  # still the previous value

    def test_observation_after_refresh_delay_is_fresh(self):
        values = {"a": 1}
        service = MonitoringService(lambda t: values)
        service.observe(0.0)
        service.notify_reconfiguration(50.0)
        values["a"] = 0
        fresh = service.observe(50.0 + DELAY + 1.0)
        assert fresh.cpu_demands["a"] == 0

    def test_no_previous_observation_means_fresh(self):
        values = {"a": 1}
        service = MonitoringService(lambda t: values)
        service.notify_reconfiguration(0.0)
        assert service.observe(1.0).cpu_demands["a"] == 1
        values["a"] = 0
        assert service.observe(2.0).cpu_demands["a"] == 1
