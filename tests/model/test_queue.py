"""Tests of the FCFS vjob queue."""

import pytest
from hypothesis import given, strategies as st

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
        assert [v.name for v in queue.stopping()] == ["a"]

    def test_a_stopped_vjob_leaves_the_stopping_view(self):
        a, b = vjob("a"), vjob("b")
        queue = VJobQueue([a, b])
        a.terminate()
        b.terminate()
        queue.stopped(queue.stopping()[0])
        assert queue.stopping() == [b]
        assert queue.ordered() == [a, b] and queue.pending() == []


class TestKeptOrder:
    """The queue keeps its order from ``submit`` instead of sorting on every
    view: each view equals a sort on ``(priority, submitted_at, rank)``."""

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.sampled_from([0.0, 30.0, 60.0]),
                st.booleans(),
            ),
            max_size=12,
        )
    )
    def test_views_equal_a_sort_on_the_key(self, draws):
        queue = VJobQueue()
        submitted = []
        for rank, (priority, time, finished) in enumerate(draws):
            job = vjob(f"j{rank}", priority=priority, submitted_at=time)
            queue.submit(job)
            submitted.append((priority, time, rank, job))
            if finished:
                job.terminate()
            expected = [job for *_, job in sorted(submitted, key=lambda e: e[:3])]
            assert queue.ordered() == list(queue) == expected
            assert queue.pending() == [j for j in expected if not j.is_terminated]
            # Nothing said a terminated vjob runs no VM any more.
            assert queue.stopping() == [j for j in expected if j.is_terminated]

    def test_the_key_is_read_at_submit(self):
        # The operator daemon bumps a late vjob's submitted_at before it is
        # submitted; a write after submission does not move a vjob.
        early, late = vjob("early", submitted_at=0.0), vjob("late", submitted_at=0.0)
        late.submitted_at = 90.0
        queue = VJobQueue([late, early])
        assert [v.name for v in queue.ordered()] == ["early", "late"]
        early.priority = 9
        assert [v.name for v in queue.ordered()] == ["early", "late"]
