"""Tests of demand traces and vjob workloads."""

import pytest

from repro.model.vjob import VJob
from repro.model.vm import VirtualMachine
from repro.workloads.traces import (
    DemandTrace,
    Phase,
    VJobWorkload,
    alternating_trace,
    constant_trace,
)


class TestPhase:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            Phase(duration=-1.0, cpu_demand=0)
        with pytest.raises(ValueError):
            Phase(duration=1.0, cpu_demand=-1)


class TestDemandTrace:
    def test_requires_at_least_one_phase(self):
        with pytest.raises(ValueError):
            DemandTrace([])

    def test_total_duration(self):
        trace = alternating_trace([(10.0, 0), (20.0, 1), (5.0, 0)])
        assert trace.total_duration == 35.0
        assert trace.peak_demand == 1
        assert len(trace) == 3

    def test_demand_at_progress(self):
        trace = alternating_trace([(10.0, 0), (20.0, 1)])
        assert trace.demand_at(0.0) == 0
        assert trace.demand_at(9.99) == 0
        assert trace.demand_at(10.0) == 1
        assert trace.demand_at(29.0) == 1
        assert trace.demand_at(31.0) == 0  # beyond the end

    def test_negative_progress_rejected(self):
        with pytest.raises(ValueError):
            constant_trace(10.0).demand_at(-1.0)

    def test_constant_trace(self):
        trace = constant_trace(60.0, cpu_demand=2)
        assert trace.total_duration == 60.0
        assert trace.demand_at(30.0) == 2


class TestVJobWorkload:
    def _workload(self):
        vms = [
            VirtualMachine(name="j.vm0", memory=512, cpu_demand=1, vjob="j"),
            VirtualMachine(name="j.vm1", memory=512, cpu_demand=0, vjob="j"),
        ]
        vjob = VJob(name="j", vms=vms)
        traces = {
            "j.vm0": alternating_trace([(100.0, 1)]),
            "j.vm1": alternating_trace([(50.0, 0), (50.0, 1), (100.0, 0)]),
        }
        return VJobWorkload(vjob=vjob, traces=traces)

    def test_duration_is_longest_trace(self):
        assert self._workload().duration == 200.0

    def test_peak_demand(self):
        workload = self._workload()
        assert workload.peak_cpu_demand == 2

    def test_demands_at(self):
        workload = self._workload()
        assert workload.demands_at(75.0) == {"j.vm0": 1, "j.vm1": 1}
        assert workload.demands_at(150.0) == {"j.vm0": 0, "j.vm1": 0}

    def test_missing_trace_rejected(self):
        vms = [VirtualMachine(name="j.vm0", memory=512, vjob="j")]
        vjob = VJob(name="j", vms=vms)
        with pytest.raises(ValueError):
            VJobWorkload(vjob=vjob, traces={})
