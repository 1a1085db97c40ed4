"""Chrome trace-event export and validation (``repro.obs.export``)."""

from __future__ import annotations

import json

import pytest

from repro.obs import Tracer, span, to_chrome_trace, validate_chrome_trace


def _sample_trace() -> dict:
    counter = iter(range(1000))
    tracer = Tracer(clock=lambda: next(counter) * 0.5)
    with tracer.activate() as root:
        root.set(policy="consolidation")
        with span("round", index=0) as sp:
            sp.event("mark", detail=1)
            with span("solve") as solve:
                solve.inc("nodes", 4)
    return tracer.to_dict()


class TestToChromeTrace:
    def test_complete_events_carry_microsecond_timestamps(self):
        document = to_chrome_trace(_sample_trace())
        assert document["displayTimeUnit"] == "ms"
        spans = {
            e["name"]: e for e in document["traceEvents"] if e["ph"] == "X"
        }
        assert set(spans) == {"run", "round", "solve"}
        # injected clock: round opens at tick 1 (0.5 s) -> 500000 us.
        assert spans["round"]["ts"] == pytest.approx(500_000.0)
        assert spans["solve"]["args"] == {"nodes": 4}
        assert spans["run"]["args"] == {"policy": "consolidation"}

    def test_metadata_and_instant_events(self):
        document = to_chrome_trace(_sample_trace(), process_name="demo")
        meta = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert meta[0]["args"] == {"name": "demo"}
        instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["mark"]
        assert instants[0]["s"] == "t"
        assert instants[0]["args"] == {"detail": 1}

    def test_open_spans_clamp_to_the_horizon(self):
        counter = iter(range(1000))
        tracer = Tracer(clock=lambda: next(counter) * 0.5)
        tracer.start()
        with tracer.activate():
            with span("round"):
                document = to_chrome_trace(tracer.to_dict())
        errors = validate_chrome_trace(document)
        assert errors == []
        for event in document["traceEvents"]:
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_accepts_runresult_shaped_documents(self):
        trace = _sample_trace()
        wrapped = {"makespan": 1.0, "trace": trace}
        assert to_chrome_trace(wrapped) == to_chrome_trace(trace)
        bare = trace["root"]
        assert to_chrome_trace(bare) == to_chrome_trace(trace)

    def test_rejects_non_trace_documents(self):
        with pytest.raises(ValueError):
            to_chrome_trace({"makespan": 1.0})

    def test_export_is_json_serializable(self):
        document = to_chrome_trace(_sample_trace())
        assert validate_chrome_trace(json.loads(json.dumps(document))) == []


class TestValidateChromeTrace:
    def test_flags_missing_trace_events(self):
        assert validate_chrome_trace({}) == [
            "traceEvents is missing or not a list"
        ]
        assert "traceEvents is empty" in validate_chrome_trace(
            {"traceEvents": []}
        )

    def test_flags_unknown_phases_and_missing_keys(self):
        errors = validate_chrome_trace(
            {"traceEvents": [{"ph": "Z"}, {"ph": "X", "ts": -1.0}]}
        )
        assert any("unknown phase" in error for error in errors)
        assert any("bad ts" in error for error in errors)

    def test_flags_overlapping_spans_on_one_track(self):
        document = {
            "traceEvents": [
                {
                    "ph": "X", "name": "a", "pid": 1, "tid": 1,
                    "ts": 0.0, "dur": 100.0,
                },
                {
                    # Starts inside 'a' but ends beyond it: not a nesting.
                    "ph": "X", "name": "b", "pid": 1, "tid": 1,
                    "ts": 50.0, "dur": 100.0,
                },
            ]
        }
        errors = validate_chrome_trace(document)
        assert any("overflows" in error for error in errors)

    def test_parallel_tracks_do_not_interfere(self):
        document = {
            "traceEvents": [
                {
                    "ph": "X", "name": "a", "pid": 1, "tid": 1,
                    "ts": 0.0, "dur": 100.0,
                },
                {
                    "ph": "X", "name": "b", "pid": 1, "tid": 2,
                    "ts": 50.0, "dur": 100.0,
                },
            ]
        }
        assert validate_chrome_trace(document) == []
