"""Unit tests of the span tracer core (``repro.obs.tracer``)."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    NULL_SPAN,
    Span,
    Tracer,
    current_span,
    current_tracer,
    span,
)


def ticking_tracer(step: float = 0.5, name: str = "run") -> Tracer:
    """A tracer whose clock advances ``step`` seconds per reading."""
    counter = iter(range(100_000))
    return Tracer(name=name, clock=lambda: next(counter) * step)


class TestInactiveTracing:
    def test_span_yields_the_null_singleton_when_no_tracer_is_active(self):
        assert current_tracer() is None
        with span("anything", key="value") as sp:
            assert sp is NULL_SPAN
        assert current_span() is None

    def test_null_span_swallows_all_recording(self):
        with span("x") as sp:
            sp.set(a=1)
            sp.inc("ticks", 5)
            sp.event("boom", detail="ignored")
        assert NULL_SPAN.attributes == {}
        assert NULL_SPAN.counters == {}
        assert NULL_SPAN.events == []


class TestNesting:
    def test_children_nest_under_the_active_span(self):
        tracer = ticking_tracer()
        with tracer.activate() as root:
            assert current_tracer() is tracer
            assert current_span() is root
            with span("round", index=0) as outer:
                assert current_span() is outer
                with span("solve") as inner:
                    assert current_span() is inner
                assert current_span() is outer
        assert current_span() is None
        (round_span,) = tracer.root.children
        assert round_span.name == "round"
        assert round_span.attributes == {"index": 0}
        (solve_span,) = round_span.children
        assert solve_span.name == "solve"

    def test_deterministic_timestamps_with_injected_clock(self):
        tracer = ticking_tracer(step=0.5)
        with tracer.activate():
            with span("a"):      # starts at 0.5, ends at 1.0
                pass
            with span("b"):      # starts at 1.5, ends at 2.0
                pass
        a, b = tracer.root.children
        assert (a.start, a.end) == (0.5, 1.0)
        assert (b.start, b.end) == (1.5, 2.0)
        assert a.duration == 0.5
        assert tracer.root.end == 2.5

    def test_counters_accumulate_and_events_are_timestamped(self):
        tracer = ticking_tracer(step=1.0)
        with tracer.activate():
            with span("solve") as sp:
                sp.inc("nodes", 3)
                sp.inc("nodes", 2)
                sp.event("improving_solution", objective=42)
        (solve,) = tracer.root.children
        assert solve.counters == {"nodes": 5}
        (event,) = solve.events
        assert event["name"] == "improving_solution"
        assert event["attributes"] == {"objective": 42}
        assert solve.start < event["at"] <= solve.end

    def test_start_and_finish_are_idempotent(self):
        tracer = ticking_tracer()
        tracer.start()
        origin_epoch = tracer.started_at
        tracer.start()
        assert tracer.started_at == origin_epoch
        tracer.finish()
        end = tracer.root.end
        tracer.finish()
        assert tracer.root.end == end


class TestErrors:
    def test_an_exception_is_named_on_every_span_it_crosses(self):
        tracer = ticking_tracer()
        with tracer.activate():
            with pytest.raises(RecursionError):
                with span("plan"):
                    with span("solve") as solve:
                        solve.inc("nodes", 3)
                        with span("finished-before-the-error"):
                            pass
                        raise RecursionError("too deep")
            with span("next-round"):
                pass
        plan, next_round = tracer.root.children
        (solve,) = plan.children
        assert plan.attributes["error"] == "RecursionError"
        assert solve.attributes["error"] == "RecursionError"
        # the partial subtree is kept, closed, and the stack is back in order
        assert solve.counters == {"nodes": 3}
        assert [child.name for child in solve.children] == [
            "finished-before-the-error"
        ]
        assert "error" not in solve.children[0].attributes
        assert plan.end is not None and solve.end is not None
        assert "error" not in next_round.attributes
        assert "error" not in tracer.root.attributes


class TestSerialization:
    def test_to_dict_round_trips_byte_stably(self):
        tracer = ticking_tracer()
        with tracer.activate():
            with span("round", index=1) as sp:
                sp.inc("moves", 2)
                sp.event("mark")
                with span("solve"):
                    pass
        document = tracer.root.to_dict()
        assert Span.from_dict(document).to_dict() == document

    def test_empty_collections_are_omitted(self):
        sp = Span("bare", start=1.0)
        sp.end = 2.0
        assert sp.to_dict() == {"name": "bare", "start": 1.0, "end": 2.0}

    def test_open_span_serializes_with_null_end(self):
        tracer = ticking_tracer()
        tracer.start()
        snapshot = tracer.to_dict()
        assert snapshot["root"]["end"] is None
        assert snapshot["version"] == 1


class TestThreads:
    def test_context_does_not_leak_into_new_threads(self):
        tracer = ticking_tracer()
        seen = {}

        def worker():
            seen["tracer"] = current_tracer()
            with span("in-thread") as sp:
                seen["span"] = sp

        with tracer.activate():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["tracer"] is None
        assert seen["span"] is NULL_SPAN
        assert tracer.root.children == []

    def test_live_snapshot_from_another_thread(self):
        tracer = ticking_tracer()
        snapshots = []
        with tracer.activate():
            with span("round"):
                thread = threading.Thread(
                    target=lambda: snapshots.append(tracer.to_dict())
                )
                thread.start()
                thread.join()
        (snapshot,) = snapshots
        (round_dict,) = snapshot["root"]["children"]
        assert round_dict["name"] == "round"
        assert round_dict["end"] is None  # still open when snapshotted
