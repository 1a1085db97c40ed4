"""Tests of the analysis metrics."""

import pytest

from repro.analysis.metrics import (
    CostComparison,
    average_cost_reduction,
    average_cpu_utilization,
    average_memory_utilization_gb,
    cost_duration_pairs,
    group_by_vm_count,
    makespan_reduction,
    mean_costs_by_vm_count,
    resample,
    switch_statistics,
)
from repro.api.results import ContextSwitchRecord, UtilizationSample


def record(cost=1000, duration=60.0, migrations=1, suspends=0, resumes=0, local=0,
           runs=0, stops=0, time=0.0):
    return ContextSwitchRecord(
        time=time,
        cost=cost,
        duration=duration,
        migrations=migrations,
        runs=runs,
        stops=stops,
        suspends=suspends,
        resumes=resumes,
        local_resumes=local,
    )


def sample(time=0.0, demand=10, used=8, capacity=20, memory=4096):
    return UtilizationSample(
        time=time,
        cpu_demand_units=demand,
        cpu_used_units=used,
        cpu_capacity_units=capacity,
        memory_used_mb=memory,
    )


class TestCostComparisons:
    def test_reduction(self):
        comparison = CostComparison(vm_count=54, ffd_cost=1000, entropy_cost=100)
        assert comparison.reduction == pytest.approx(0.9)

    def test_zero_ffd_cost_gives_zero_reduction(self):
        assert CostComparison(54, 0, 0).reduction == 0.0

    def test_average_reduction_ignores_zero_baselines(self):
        comparisons = [
            CostComparison(54, 1000, 100),
            CostComparison(54, 0, 0),
            CostComparison(108, 2000, 1000),
        ]
        assert average_cost_reduction(comparisons) == pytest.approx((0.9 + 0.5) / 2)

    def test_average_reduction_of_empty_list(self):
        assert average_cost_reduction([]) == 0.0

    def test_grouping_and_means(self):
        comparisons = [
            CostComparison(54, 100, 10),
            CostComparison(54, 200, 30),
            CostComparison(108, 400, 40),
        ]
        grouped = group_by_vm_count(comparisons)
        assert set(grouped) == {54, 108}
        rows = mean_costs_by_vm_count(comparisons)
        assert rows[0] == (54, 150, 20)
        assert rows[1] == (108, 400, 40)


class TestSwitchStatistics:
    def test_aggregates(self):
        switches = [
            record(cost=0, duration=10.0, migrations=0, runs=2),
            record(cost=4608, duration=315.0, migrations=9, suspends=9, resumes=9, local=7),
        ]
        stats = switch_statistics(switches)
        assert stats.count == 2
        assert stats.average_duration == pytest.approx(162.5)
        assert stats.max_duration == 315.0
        assert stats.max_cost == 4608
        assert stats.local_resume_fraction == pytest.approx(7 / 9)

    def test_empty_switches(self):
        stats = switch_statistics([])
        assert stats.count == 0
        assert stats.average_duration == 0.0

    def test_noop_switches_are_ignored(self):
        noop = record(cost=0, duration=0.0, migrations=0)
        stats = switch_statistics([noop])
        assert stats.count == 0

    def test_cost_duration_pairs(self):
        switches = [record(cost=1024, duration=19.0), record(cost=0, duration=0.0, migrations=0)]
        assert cost_duration_pairs(switches) == [(1024, 19.0)]


class TestUtilization:
    def test_average_cpu_utilization(self):
        samples = [sample(time=0.0, used=10), sample(time=60.0, used=20)]
        assert average_cpu_utilization(samples) == pytest.approx(0.75)
        assert average_cpu_utilization(samples, until=30.0) == pytest.approx(0.5)
        assert average_cpu_utilization([]) == 0.0

    def test_cpu_demand_fraction_can_exceed_one(self):
        overloaded = sample(demand=29, capacity=22)
        assert overloaded.cpu_demand_fraction > 1.0

    def test_average_memory_utilization(self):
        samples = [sample(memory=2048), sample(time=60.0, memory=4096)]
        assert average_memory_utilization_gb(samples) == pytest.approx(3.0)

    def test_makespan_reduction_matches_paper_headline(self):
        assert makespan_reduction(250.0, 150.0) == pytest.approx(0.4)
        assert makespan_reduction(0.0, 10.0) == 0.0

    def test_resample_produces_regular_grid(self):
        samples = [sample(time=0.0, used=5), sample(time=95.0, used=15)]
        grid = resample(samples, step=50.0, horizon=150.0)
        assert [s.time for s in grid] == [0.0, 50.0, 100.0, 150.0]
        assert [s.cpu_used_units for s in grid] == [5, 5, 15, 15]

    def test_resample_empty(self):
        assert resample([], step=10.0) == []
