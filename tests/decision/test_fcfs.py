"""Tests of the FCFS + EASY backfilling baseline (Section 2.1, Figure 1)."""

import pytest

from repro.decision.static import BatchJob, FCFSScheduler


class TestBatchJob:
    def test_walltime_defaults_to_duration(self):
        job = BatchJob(name="j", cpus=1, duration=100.0)
        assert job.walltime == 100.0

    def test_explicit_estimate(self):
        job = BatchJob(name="j", cpus=1, duration=100.0, estimated_duration=150.0)
        assert job.walltime == 150.0

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            BatchJob(name="j", cpus=0, duration=10.0)
        with pytest.raises(ValueError):
            BatchJob(name="j", cpus=1, duration=0.0)


class TestSchedulerValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FCFSScheduler(total_cpus=0)
        with pytest.raises(ValueError):
            FCFSScheduler(total_cpus=4, backfilling="magic")

    def test_empty_schedule(self):
        schedule = FCFSScheduler(total_cpus=4).schedule([])
        assert schedule.allocations == []
        assert schedule.makespan == 0.0


class TestFCFSWithoutBackfilling:
    def test_jobs_wait_for_the_queue_head(self):
        """Figure 1(a)/(b): without backfilling, a small job cannot overtake a
        blocked large one."""
        jobs = [
            BatchJob(name="j1", cpus=4, duration=100.0),
            BatchJob(name="j2", cpus=4, duration=100.0),
            BatchJob(name="j3", cpus=1, duration=10.0),
        ]
        schedule = FCFSScheduler(total_cpus=4, backfilling="none").schedule(jobs)
        assert schedule.allocation_of("j1").start == 0.0
        assert schedule.allocation_of("j2").start == 100.0
        assert schedule.allocation_of("j3").start == 200.0

    def test_parallel_start_when_resources_allow(self):
        jobs = [
            BatchJob(name="j1", cpus=2, duration=50.0),
            BatchJob(name="j2", cpus=2, duration=50.0),
        ]
        schedule = FCFSScheduler(total_cpus=4, backfilling="none").schedule(jobs)
        assert schedule.allocation_of("j1").start == 0.0
        assert schedule.allocation_of("j2").start == 0.0


class TestEasyBackfilling:
    def test_small_job_backfills_without_delaying_the_head(self):
        """Figure 1(b): jobs 2 and 3 are backfilled while job 1's reservation
        is preserved."""
        jobs = [
            BatchJob(name="running", cpus=3, duration=100.0),
            BatchJob(name="head", cpus=4, duration=100.0),
            BatchJob(name="filler", cpus=1, duration=50.0),
        ]
        schedule = FCFSScheduler(total_cpus=4, backfilling="easy").schedule(jobs)
        assert schedule.allocation_of("running").start == 0.0
        # head must wait for the 3-cpu job to finish
        assert schedule.allocation_of("head").start == 100.0
        # the filler fits in the hole and finishes before the reservation
        assert schedule.allocation_of("filler").start == 0.0

    def test_backfill_does_not_delay_the_reservation(self):
        jobs = [
            BatchJob(name="running", cpus=3, duration=100.0),
            BatchJob(name="head", cpus=4, duration=100.0),
            BatchJob(name="too-long", cpus=1, duration=300.0),
        ]
        schedule = FCFSScheduler(total_cpus=4, backfilling="easy").schedule(jobs)
        # the long narrow job would delay the head (it needs the head's CPU),
        # so it cannot be backfilled.
        assert schedule.allocation_of("head").start == 100.0
        assert schedule.allocation_of("too-long").start >= 100.0

    def test_backfill_on_spare_cpus_may_exceed_shadow_time(self):
        """A job that only uses CPUs left spare at the shadow time can run past
        the reservation."""
        jobs = [
            BatchJob(name="running", cpus=2, duration=100.0),
            BatchJob(name="head", cpus=3, duration=100.0),
            BatchJob(name="long-narrow", cpus=1, duration=500.0),
        ]
        schedule = FCFSScheduler(total_cpus=4, backfilling="easy").schedule(jobs)
        assert schedule.allocation_of("head").start == 100.0
        assert schedule.allocation_of("long-narrow").start == 0.0

    def test_makespan_improves_over_plain_fcfs(self):
        jobs = [
            BatchJob(name="a", cpus=4, duration=100.0),
            BatchJob(name="b", cpus=3, duration=100.0),
            BatchJob(name="c", cpus=1, duration=100.0),
        ]
        plain = FCFSScheduler(total_cpus=4, backfilling="none").schedule(jobs)
        easy = FCFSScheduler(total_cpus=4, backfilling="easy").schedule(jobs)
        assert easy.makespan <= plain.makespan

    def test_memory_dimension_blocks_backfill(self):
        jobs = [
            BatchJob(name="running", cpus=1, duration=100.0, memory=3000),
            BatchJob(name="head", cpus=4, duration=50.0, memory=1000),
            BatchJob(name="hungry", cpus=1, duration=10.0, memory=2000),
        ]
        schedule = FCFSScheduler(
            total_cpus=4, total_memory=4096, backfilling="easy"
        ).schedule(jobs)
        assert schedule.allocation_of("hungry").start >= 100.0


class TestSubmissionTimes:
    def test_jobs_cannot_start_before_submission(self):
        jobs = [
            BatchJob(name="early", cpus=1, duration=10.0, submit_time=0.0),
            BatchJob(name="late", cpus=1, duration=10.0, submit_time=500.0),
        ]
        schedule = FCFSScheduler(total_cpus=4).schedule(jobs)
        assert schedule.allocation_of("late").start == 500.0

    def test_wait_time(self):
        jobs = [
            BatchJob(name="first", cpus=4, duration=100.0),
            BatchJob(name="second", cpus=4, duration=10.0),
        ]
        schedule = FCFSScheduler(total_cpus=4).schedule(jobs)
        assert schedule.allocation_of("second").wait_time == 100.0


class TestScheduleViews:
    def test_running_at(self):
        jobs = [
            BatchJob(name="a", cpus=2, duration=100.0, memory=1024),
            BatchJob(name="b", cpus=2, duration=50.0, memory=2048),
        ]
        schedule = FCFSScheduler(total_cpus=4, total_memory=8192).schedule(jobs)
        assert {a.job.name for a in schedule.running_at(0.0)} == {"a", "b"}
        assert {a.job.name for a in schedule.running_at(75.0)} == {"a"}
        assert schedule.makespan == 100.0

    def test_allocation_of_unknown_job_raises(self):
        schedule = FCFSScheduler(total_cpus=4).schedule(
            [BatchJob(name="a", cpus=1, duration=1.0)]
        )
        with pytest.raises(KeyError):
            schedule.allocation_of("ghost")
