"""Trace summarization and diffing (``repro.obs.summary``)."""

from __future__ import annotations

import pytest

from repro.obs import (
    Tracer,
    diff_traces,
    format_diff,
    format_summary,
    load_trace,
    phase_totals,
    solver_totals,
    span,
    summarize,
    top_spans,
)


def _trace(step: float = 0.5) -> dict:
    counter = iter(range(10_000))
    tracer = Tracer(clock=lambda: next(counter) * step)
    with tracer.activate():
        for index in range(2):
            with span("round", index=index):
                with span("cp.solve") as solve:
                    solve.inc("nodes", 5)
                    solve.inc("backtracks", 2)
    return tracer.to_dict()


class TestLoadTrace:
    def test_accepts_all_document_shapes(self):
        trace = _trace()
        assert load_trace(trace).name == "run"
        assert load_trace({"trace": trace}).name == "run"
        assert load_trace(trace["root"]).name == "run"

    def test_rejects_traceless_documents(self):
        with pytest.raises(ValueError):
            load_trace({"makespan": 2.0})
        with pytest.raises(ValueError):
            load_trace("not a dict")


class TestPhaseTotals:
    def test_self_time_excludes_children(self):
        # Injected clock, step 0.5: every span boundary is one tick, so
        # round #0 spans ticks [1..4] (1.5 s) with cp.solve at [2..3].
        totals = phase_totals(load_trace(_trace()))
        assert totals["round"]["count"] == 2
        assert totals["cp.solve"]["count"] == 2
        assert totals["round"]["total_s"] == pytest.approx(3.0)
        assert totals["cp.solve"]["total_s"] == pytest.approx(1.0)
        assert totals["round"]["self_s"] == pytest.approx(2.0)
        assert totals["round"]["max_s"] == pytest.approx(1.5)

    def test_open_spans_count_zero_duration(self):
        tracer = Tracer()
        tracer.start()
        totals = phase_totals(load_trace(tracer.to_dict()))
        assert totals["run"]["total_s"] == 0.0


class TestSolverTotals:
    def test_counters_sum_over_cp_solve_spans(self):
        totals = solver_totals(load_trace(_trace()))
        assert totals == {
            "solves": 2,
            "nodes": 10,
            "backtracks": 4,
            "propagations": 0,
            "solutions": 0,
        }


class TestTopSpansAndSummary:
    def test_top_spans_are_sorted_longest_first(self):
        ranked = top_spans(load_trace(_trace()), limit=3)
        assert len(ranked) == 3
        assert ranked[0]["name"] == "run"
        durations = [entry["duration_s"] for entry in ranked]
        assert durations == sorted(durations, reverse=True)

    def test_summarize_and_format(self):
        summary = summarize(_trace())
        assert summary["root"] == "run"
        assert summary["solver"]["solves"] == 2
        text = format_summary(summary)
        assert "round" in text
        assert "solver: solves=2" in text

    def test_limit_bounds_the_span_list(self):
        assert len(summarize(_trace(), limit=1)["top_spans"]) == 1
        assert summarize(_trace(), limit=0)["top_spans"] == []

    def test_a_negative_limit_is_refused(self):
        # ``ranked[:-2]`` would silently drop the two shortest spans.
        with pytest.raises(ValueError, match="non-negative"):
            top_spans(load_trace(_trace()), limit=-2)


class TestDiff:
    def test_ratio_and_delta_per_phase(self):
        before, after = _trace(step=1.0), _trace(step=0.5)
        diff = diff_traces(before, after)
        round_diff = diff["phases"]["round"]
        assert round_diff["before_s"] == pytest.approx(6.0)
        assert round_diff["after_s"] == pytest.approx(3.0)
        assert round_diff["ratio"] == pytest.approx(0.5)
        assert round_diff["delta_s"] == pytest.approx(-3.0)
        assert round_diff["before_count"] == round_diff["after_count"] == 2
        assert diff["solver"]["nodes"] == {"before": 10, "after": 10}

    def test_one_sided_phase_has_no_ratio(self):
        counter = iter(range(100))
        other = Tracer(clock=lambda: next(counter) * 0.5)
        with other.activate():
            with span("execute"):
                pass
        diff = diff_traces(_trace(), other.to_dict())
        assert diff["phases"]["execute"]["ratio"] is None
        assert diff["phases"]["execute"]["before_count"] == 0

    def test_format_diff_renders_every_phase(self):
        text = format_diff(diff_traces(_trace(), _trace()))
        assert "round" in text
        assert "1.00x" in text
        assert "solver:" in text
