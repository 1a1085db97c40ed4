"""``repro.obs`` — end-to-end span tracing for the reconfiguration loop.

A zero-dependency hierarchical tracer (:class:`Tracer` / :class:`Span`)
threaded through the whole stack: control-loop rounds, CP solves,
partitioned zone workers, repair attempts, plan execution, and
operator-daemon requests.  Traces attach to ``RunResult`` documents,
export to Chrome trace-event JSON (Perfetto), and summarize/diff via
the ``repro-trace`` CLI.  See ``docs/OBSERVABILITY.md``.
"""

from .export import to_chrome_trace, validate_chrome_trace
from .summary import (
    diff_traces,
    format_diff,
    format_summary,
    load_trace,
    phase_totals,
    solver_totals,
    summarize,
    top_spans,
)
from .tracer import NULL_SPAN, Span, Tracer, current_span, current_tracer, span

__all__ = [
    "Span",
    "Tracer",
    "span",
    "current_span",
    "current_tracer",
    "NULL_SPAN",
    "to_chrome_trace",
    "validate_chrome_trace",
    "load_trace",
    "phase_totals",
    "solver_totals",
    "top_spans",
    "summarize",
    "format_summary",
    "diff_traces",
    "format_diff",
]
