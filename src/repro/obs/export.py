"""Chrome trace-event export — view a trace in Perfetto.

:func:`to_chrome_trace` converts a tracer document
(:meth:`repro.obs.Tracer.to_dict`, a bare span dict, or a ``RunResult``
JSON document carrying a ``"trace"`` key) into the Chrome trace-event
JSON object format (``{"traceEvents": [...]}``): one complete event
(``"ph": "X"``) per span with microsecond ``ts``/``dur``, one instant
event (``"ph": "i"``) per span event.  The output loads directly in
https://ui.perfetto.dev or ``chrome://tracing``.

Every span is drawn on one track (``tid`` 1): the spans of one process
nest, and every solve, zones included, runs in the process that traces it.

:func:`validate_chrome_trace` is the schema/nesting check used by the
test suite and ``tools/trace_smoke.py``: it verifies required keys,
phase codes, non-negative timings, and that per-track complete events
properly nest.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .tracer import Span

__all__ = ["to_chrome_trace", "validate_chrome_trace"]

#: Seconds -> microseconds (the trace-event unit).
_US = 1_000_000.0


def _extract_root(trace: Dict[str, Any]) -> Dict[str, Any]:
    """Accept a tracer document, a RunResult document, or a bare span."""
    if "trace" in trace and isinstance(trace["trace"], dict):
        trace = trace["trace"]
    if "root" in trace and isinstance(trace["root"], dict):
        return trace["root"]
    if "name" in trace and "start" in trace:
        return trace
    raise ValueError(
        "not a trace document: expected a Tracer.to_dict() payload, a "
        "bare span dict, or a RunResult dict with a 'trace' key"
    )


def to_chrome_trace(
    trace: Dict[str, Any],
    process_name: str = "repro",
    pid: int = 1,
) -> Dict[str, Any]:
    """Convert a trace document to Chrome trace-event JSON."""
    root = Span.from_dict(_extract_root(trace))
    # Open spans (live snapshots) clamp to the latest timestamp seen so
    # every exported event has a duration.
    horizon = 0.0
    for node in root.walk():
        horizon = max(horizon, node.start, node.end or 0.0)
        for event in node.events:
            horizon = max(horizon, event.get("at", 0.0))

    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]

    for node in root.walk():
        end = node.end if node.end is not None else horizon
        args: Dict[str, Any] = {}
        args.update(node.attributes)
        args.update(node.counters)
        events.append(
            {
                "ph": "X",
                "name": node.name,
                "pid": pid,
                "tid": 1,
                "ts": node.start * _US,
                "dur": max(0.0, end - node.start) * _US,
                "args": args,
            }
        )
        for event in node.events:
            events.append(
                {
                    "ph": "i",
                    "name": event["name"],
                    "pid": pid,
                    "tid": 1,
                    "ts": event.get("at", node.start) * _US,
                    "s": "t",
                    "args": dict(event.get("attributes", {})),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(document: Dict[str, Any]) -> List[str]:
    """Return one error string per schema or nesting violation (empty
    when the document is a well-formed Chrome trace)."""
    errors: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    if not events:
        errors.append("traceEvents is empty")

    spans_by_track: Dict[Any, List[Dict[str, Any]]] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event {index}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "i", "M"):
            errors.append(f"event {index}: unknown phase {phase!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in event:
                errors.append(f"event {index}: missing {key!r}")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"event {index}: bad ts {ts!r}")
            continue
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {index}: bad dur {dur!r}")
                continue
            track = (event.get("pid"), event.get("tid"))
            spans_by_track.setdefault(track, []).append(event)

    # Complete events on one track must properly nest: sorted by start
    # (outermost first), each event lies within every enclosing one.
    for track, track_events in sorted(spans_by_track.items()):
        ordered = sorted(
            track_events, key=lambda e: (e["ts"], -(e["ts"] + e["dur"]))
        )
        stack: List[Dict[str, Any]] = []
        for event in ordered:
            start, end = event["ts"], event["ts"] + event["dur"]
            while stack and start >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            if stack:
                parent_end = stack[-1]["ts"] + stack[-1]["dur"]
                # Tolerate float rounding at the microsecond scale.
                if end > parent_end + 1e-3:
                    errors.append(
                        f"track {track}: span {event['name']!r} "
                        f"[{start}, {end}] overflows enclosing "
                        f"{stack[-1]['name']!r} [{stack[-1]['ts']}, "
                        f"{parent_end}]"
                    )
            stack.append(event)
    return errors
