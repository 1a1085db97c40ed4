"""Plain-text rendering of the experiment tables and figure series.

The benchmark harness regenerates every table and figure of the paper's
evaluation as textual tables (one row per series point), suitable both for the
console and for EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned plain-text table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = [render_row(list(headers))]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render_row(row) for row in materialized)
    return "\n".join(lines)


def format_seconds(value: float) -> str:
    """``mm:ss`` rendering used for context-switch durations."""
    minutes = int(value // 60)
    seconds = value - minutes * 60
    return f"{minutes:02d}:{seconds:04.1f}"


def format_fraction(value: float) -> str:
    return f"{100.0 * value:.1f}%"


def banner(title: str) -> str:
    bar = "=" * max(20, len(title) + 4)
    return f"{bar}\n  {title}\n{bar}"


def series(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A titled table — the standard output of every benchmark."""
    return f"{banner(title)}\n{format_table(headers, rows)}\n"


#: Column order of :func:`campaign_table` (key -> header).
_CAMPAIGN_COLUMNS = (
    ("policy", "policy"),
    ("fleet", "fleet"),
    ("faults", "faults"),
    ("runs", "runs"),
    ("mean_makespan", "makespan"),
    ("mean_switches", "switches"),
    ("mean_switch_cost", "switch cost"),
    ("sla_violations", "SLA viol."),
    ("lost_vjobs", "lost"),
    ("mean_runtime_seconds", "runtime (s)"),
)


def campaign_table(rows: Iterable[dict]) -> str:
    """Render aggregated campaign rows (see
    :meth:`repro.scale.campaign.CampaignResult.aggregate`) as the standard
    titled table, sorted by (policy, fleet, faults) for stable output."""
    materialized = sorted(
        rows, key=lambda r: (str(r["policy"]), r["fleet"], str(r["faults"]))
    )
    headers = [header for _, header in _CAMPAIGN_COLUMNS]
    body = [
        [row.get(key, "") for key, _ in _CAMPAIGN_COLUMNS]
        for row in materialized
    ]
    return series("Campaign results", headers, body)
