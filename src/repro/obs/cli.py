"""``repro-trace`` — summarize, diff, and export recorded traces.

Usage::

    repro-trace summary run.json            # per-phase totals + top spans
    repro-trace diff cold.json repair.json  # phase-by-phase comparison
    repro-trace export run.json -o run.chrome.json  # Perfetto-loadable

Each input may be a ``RunResult`` JSON document (``"trace"`` key), a raw
``Tracer.to_dict()`` payload, or a daemon ``GET /trace`` response body.
Also runnable from a checkout as ``python -m repro.obs.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional

from .export import to_chrome_trace, validate_chrome_trace
from .summary import diff_traces, format_diff, format_summary, summarize

__all__ = ["main"]


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _load(path: Path) -> Dict[str, Any]:
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"error: {path}: no such file")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path}: not valid JSON ({exc})")
    if not isinstance(data, dict):
        raise SystemExit(f"error: {path}: expected a JSON object")
    return data


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace", description=__doc__.splitlines()[0]
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser(
        "summary", help="per-phase totals, solver rollup, longest spans"
    )
    cmd.add_argument("trace", type=Path, help="trace or RunResult JSON file")
    cmd.add_argument(
        "--limit", type=_non_negative, default=10, help="longest spans listed"
    )
    cmd.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    cmd = commands.add_parser(
        "diff", help="compare two traces phase by phase"
    )
    cmd.add_argument("before", type=Path, help="baseline trace JSON file")
    cmd.add_argument("after", type=Path, help="candidate trace JSON file")
    cmd.add_argument(
        "--json", action="store_true", help="emit the diff as JSON"
    )

    cmd = commands.add_parser(
        "export", help="convert to Chrome trace-event JSON (Perfetto)"
    )
    cmd.add_argument("trace", type=Path, help="trace or RunResult JSON file")
    cmd.add_argument(
        "-o", "--output", type=Path, default=None,
        help="output path (default: <trace>.chrome.json)",
    )

    args = parser.parse_args(argv)

    if args.command == "summary":
        try:
            summary = summarize(_load(args.trace), limit=args.limit)
        except ValueError as exc:
            raise SystemExit(f"error: {args.trace}: {exc}")
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(format_summary(summary))
        return 0

    if args.command == "diff":
        try:
            diff = diff_traces(_load(args.before), _load(args.after))
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        if args.json:
            print(json.dumps(diff, indent=2, sort_keys=True))
        else:
            print(format_diff(diff))
        return 0

    # export
    try:
        document = to_chrome_trace(_load(args.trace))
    except ValueError as exc:
        raise SystemExit(f"error: {args.trace}: {exc}")
    errors = validate_chrome_trace(document)
    if errors:
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        return 1
    output = args.output or args.trace.with_suffix(".chrome.json")
    output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output} ({len(document['traceEvents'])} events)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
