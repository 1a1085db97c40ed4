"""Trace summarization — per-phase totals, solver rollups, diffs.

These helpers power the ``repro-trace`` CLI and the per-phase
time-breakdown table in :mod:`repro.analysis.report`.  They operate on
plain trace documents (dicts), so a summary can be computed from a live
tracer snapshot, a ``RunResult`` JSON file, or a daemon ``GET /trace``
response alike.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .tracer import Span

__all__ = [
    "load_trace",
    "phase_totals",
    "solver_totals",
    "top_spans",
    "summarize",
    "format_summary",
    "diff_traces",
    "format_diff",
]


def load_trace(data: Dict[str, Any]) -> Span:
    """Build a :class:`Span` tree from any trace-bearing document: a
    ``Tracer.to_dict()`` payload, a bare span dict, a ``RunResult``
    document with a ``"trace"`` key, or a daemon ``GET /trace`` body."""
    if not isinstance(data, dict):
        raise ValueError("trace document must be a JSON object")
    if isinstance(data.get("trace"), dict):
        data = data["trace"]
    if isinstance(data.get("root"), dict):
        data = data["root"]
    if "name" not in data:
        raise ValueError(
            "no trace found: expected a 'trace'/'root' key or a bare "
            "span object"
        )
    return Span.from_dict(data)


def _span_end(node: Span) -> float:
    return node.end if node.end is not None else node.start


def phase_totals(root: Span) -> Dict[str, Dict[str, Any]]:
    """Aggregate spans by name.

    Returns ``{name: {"count", "total_s", "self_s", "max_s"}}`` where
    ``total_s`` sums span durations and ``self_s`` subtracts time spent
    in child spans (so nested phases don't double-count against their
    parents in the breakdown table).
    """
    totals: Dict[str, Dict[str, Any]] = {}
    for node in root.walk():
        duration = max(0.0, _span_end(node) - node.start)
        child_time = sum(
            max(0.0, _span_end(child) - child.start)
            for child in node.children
        )
        entry = totals.setdefault(
            node.name,
            {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0},
        )
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += max(0.0, duration - child_time)
        entry["max_s"] = max(entry["max_s"], duration)
    return totals


#: Solver counters rolled up by :func:`solver_totals` (the names set by
#: ``repro.cp.Solver.solve`` on its ``cp.solve`` spans).
_SOLVER_COUNTERS = ("nodes", "backtracks", "propagations", "solutions")


def solver_totals(root: Span) -> Dict[str, int]:
    """Sum the CP search counters over every ``cp.solve`` span."""
    totals = {name: 0 for name in _SOLVER_COUNTERS}
    totals["solves"] = 0
    for node in root.walk():
        if node.name != "cp.solve":
            continue
        totals["solves"] += 1
        for name in _SOLVER_COUNTERS:
            totals[name] += int(node.counters.get(name, 0))
    return totals


def top_spans(root: Span, limit: int = 10) -> List[Dict[str, Any]]:
    """The ``limit`` longest spans, longest first; a negative ``limit``
    raises :class:`ValueError` (it would slice from the end)."""
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    ranked = sorted(
        root.walk(),
        key=lambda node: max(0.0, _span_end(node) - node.start),
        reverse=True,
    )
    return [
        {
            "name": node.name,
            "duration_s": round(max(0.0, _span_end(node) - node.start), 6),
            "start_s": round(node.start, 6),
            "attributes": dict(node.attributes),
        }
        for node in ranked[:limit]
    ]


def summarize(data: Dict[str, Any], limit: int = 10) -> Dict[str, Any]:
    """One-stop summary document: phase totals, solver rollup, longest
    spans, total duration."""
    root = load_trace(data)
    return {
        "root": root.name,
        "duration_s": round(max(0.0, _span_end(root) - root.start), 6),
        "phases": phase_totals(root),
        "solver": solver_totals(root),
        "top_spans": top_spans(root, limit=limit),
    }


def format_summary(summary: Dict[str, Any]) -> str:
    """Render a :func:`summarize` document as an aligned text table."""
    lines = [
        f"trace '{summary['root']}' — {summary['duration_s']:.3f}s total",
        "",
        f"{'phase':<18} {'count':>6} {'total s':>10} {'self s':>10} "
        f"{'max s':>10}",
    ]
    phases = sorted(
        summary["phases"].items(),
        key=lambda item: item[1]["total_s"],
        reverse=True,
    )
    for name, entry in phases:
        lines.append(
            f"{name:<18} {entry['count']:>6} {entry['total_s']:>10.3f} "
            f"{entry['self_s']:>10.3f} {entry['max_s']:>10.3f}"
        )
    solver = summary["solver"]
    if solver.get("solves"):
        lines.append("")
        lines.append(
            "solver: "
            + ", ".join(
                f"{name}={solver[name]}"
                for name in ("solves",) + _SOLVER_COUNTERS
            )
        )
    lines.append("")
    lines.append("longest spans:")
    for entry in summary["top_spans"]:
        attrs = ", ".join(
            f"{key}={value}"
            for key, value in sorted(entry["attributes"].items())
        )
        suffix = f"  ({attrs})" if attrs else ""
        lines.append(
            f"  {entry['duration_s']:>10.3f}s  {entry['name']}{suffix}"
        )
    return "\n".join(lines)


def diff_traces(
    before: Dict[str, Any], after: Dict[str, Any]
) -> Dict[str, Any]:
    """Per-phase comparison of two traces (e.g. cold vs repair engine).

    For each phase name present in either trace the diff reports both
    totals, the absolute delta, and the ratio ``after/before`` (``None``
    when the phase is absent on one side).
    """
    a = phase_totals(load_trace(before))
    b = phase_totals(load_trace(after))
    phases: Dict[str, Dict[str, Any]] = {}
    for name in sorted(set(a) | set(b)):
        before_s = a.get(name, {}).get("total_s", 0.0)
        after_s = b.get(name, {}).get("total_s", 0.0)
        ratio: Optional[float] = (
            round(after_s / before_s, 4) if before_s > 0 else None
        )
        phases[name] = {
            "before_s": round(before_s, 6),
            "after_s": round(after_s, 6),
            "delta_s": round(after_s - before_s, 6),
            "ratio": ratio,
            "before_count": a.get(name, {}).get("count", 0),
            "after_count": b.get(name, {}).get("count", 0),
        }
    solver_a = solver_totals(load_trace(before))
    solver_b = solver_totals(load_trace(after))
    return {
        "phases": phases,
        "solver": {
            name: {"before": solver_a[name], "after": solver_b[name]}
            for name in solver_a
        },
    }


def format_diff(diff: Dict[str, Any]) -> str:
    """Render a :func:`diff_traces` document as an aligned text table."""
    lines = [
        f"{'phase':<18} {'before s':>10} {'after s':>10} {'delta s':>10} "
        f"{'ratio':>8}",
    ]
    ordered = sorted(
        diff["phases"].items(),
        key=lambda item: item[1]["before_s"],
        reverse=True,
    )
    for name, entry in ordered:
        ratio = entry["ratio"]
        ratio_text = f"{ratio:.2f}x" if ratio is not None else "-"
        lines.append(
            f"{name:<18} {entry['before_s']:>10.3f} "
            f"{entry['after_s']:>10.3f} {entry['delta_s']:>+10.3f} "
            f"{ratio_text:>8}"
        )
    solver = diff.get("solver", {})
    if solver:
        lines.append("")
        lines.append(
            "solver: "
            + ", ".join(
                f"{name} {entry['before']}→{entry['after']}"
                for name, entry in sorted(solver.items())
            )
        )
    return "\n".join(lines)
