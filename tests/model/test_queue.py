"""Tests of the FCFS vjob queue."""

import pytest

from repro.model.errors import DuplicateElementError, ModelError
from repro.model.queue import VJobQueue
from repro.model.vjob import VJob, VJobState
from repro.model.vm import VirtualMachine


def vjob(name, priority=0, submitted_at=0.0):
    return VJob(
        name=name,
        vms=[VirtualMachine(name=f"{name}.vm0", memory=512, vjob=name)],
        priority=priority,
        submitted_at=submitted_at,
    )


class TestSubmission:
    def test_duplicate_submission_rejected(self):
        queue = VJobQueue([vjob("a")])
        with pytest.raises(DuplicateElementError):
            queue.submit(vjob("a"))

    def test_len_and_contains(self):
        queue = VJobQueue([vjob("a"), vjob("b")])
        assert len(queue) == 2
        assert "a" in queue and "c" not in queue

    def test_get_unknown_raises(self):
        with pytest.raises(ModelError):
            VJobQueue().get("nope")


class TestOrdering:
    def test_priority_order(self):
        queue = VJobQueue([vjob("low", priority=5), vjob("high", priority=1)])
        assert [v.name for v in queue.ordered()] == ["high", "low"]

    def test_submission_time_breaks_priority_ties(self):
        queue = VJobQueue(
            [vjob("late", submitted_at=10.0), vjob("early", submitted_at=1.0)]
        )
        assert [v.name for v in queue.ordered()] == ["early", "late"]

    def test_insertion_order_breaks_remaining_ties(self):
        queue = VJobQueue([vjob("first"), vjob("second")])
        assert [v.name for v in queue.ordered()] == ["first", "second"]

    def test_iteration_follows_order(self):
        queue = VJobQueue([vjob("b", priority=2), vjob("a", priority=1)])
        assert [v.name for v in queue] == ["a", "b"]


class TestStateViews:
    def test_pending_excludes_terminated(self):
        a, b = vjob("a"), vjob("b")
        queue = VJobQueue([a, b])
        a.terminate()
        assert [v.name for v in queue.pending()] == ["b"]
        assert [v.name for v in queue.terminated()] == ["a"]

    def test_all_terminated(self):
        a, b = vjob("a"), vjob("b")
        queue = VJobQueue([a, b])
        assert not queue.all_terminated()
        a.terminate()
        b.terminate()
        assert queue.all_terminated()
