#!/usr/bin/env python
"""The reachability ledger: which functions of ``src/repro`` no entry point
of the project ever runs.

A stdlib collector (``sys.settrace`` plus ``threading.settrace``: the
``coverage`` package is not a dependency) records every code object entered
while the entry points below run, then lists, per module of ``src/repro``,
the functions none of them entered, with their line counts.  The trace
function only watches function entries (it turns line tracing off for every
frame), so the run costs a small multiple of the bare one.  Nothing in
``src/repro`` starts a process; a subprocess an entry point starts itself is
not seen.

Entry points, in order:

* ``pytest tests/integration tests/docs`` — the goldens and the doc
  walkthroughs (module unit tests do not count as a reason to keep code);
* ``pytest benchmarks --ignore=benchmarks/round`` — the paper figures;
* every example, with the quick arguments its docstring names;
* ``tools/trace_smoke.py``, ``tools/verify_smoke.py``, ``tools/check_docs.py``,
  ``tools/service_smoke.py`` (the daemon, its HTTP threads and
  ``demo_scenario``);
* the round benchmark's ``measure(workload, seed, seconds / 10, trace=0)`` for
  each workload of ``BENCHMARK.json``.

Nothing is written under ``benchmarks/round/`` (bytecode writing is off for
the whole run); the ledger goes to ``tools/reach_ledger.txt``::

    python tools/reach.py            # ~10 min on a 2-core host
    python tools/reach.py --out /tmp/ledger.txt
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import runpy
import sys
import threading
import time
from pathlib import Path
from types import CodeType
from typing import Callable, Iterable, Iterator, Sequence

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
LEDGER = REPO / "tools" / "reach_ledger.txt"

#: Every example, with the arguments that keep it quick.
EXAMPLES = (
    ("quickstart.py",),
    ("overload_recovery.py",),
    ("consolidation_campaign.py", "--quick"),
    ("scalability_200_nodes.py", "--samples", "1", "--max-vms", "108"),
    ("high_availability.py",),
    ("ha_maintenance.py",),
    ("chaos_recovery.py",),
    ("action_costs.py",),
)

TOOLS = ("trace_smoke.py", "verify_smoke.py", "check_docs.py", "service_smoke.py")

#: One entry point: a label and what to call.
Entry = tuple[str, Callable[[], object]]

#: What identifies a function entered: ``(file name, first line, qualified
#: name)`` of its code object.
Key = tuple[str, int, str]


def _key(code: CodeType) -> Key:
    return (code.co_filename, code.co_firstlineno, code.co_qualname)


def collect(entries: Iterable[Entry]) -> tuple[set[Key], list[str]]:
    """Run every entry point under the tracer; returns the keys of the
    functions entered and one line per entry point that raised (the others
    still run)."""
    entered: set[CodeType] = set()
    enter = entered.add

    def tracer(frame, event, arg):
        enter(frame.f_code)

    failures = []
    for label, run in entries:
        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            run()
        except BaseException as error:  # SystemExit(0) included: a script's end
            if not (isinstance(error, SystemExit) and error.code in (0, None)):
                failures.append(f"{label}: {type(error).__name__}: {error}")
        finally:
            sys.settrace(None)
            threading.settrace(None)
    return {_key(code) for code in entered}, failures


def _functions(code: CodeType) -> Iterator[CodeType]:
    """The function code objects nested in ``code`` (class bodies are
    walked through, comprehensions and lambdas belong to their function)."""
    for const in code.co_consts:
        if not isinstance(const, CodeType) or const.co_name.startswith("<"):
            continue
        if const.co_flags & inspect.CO_OPTIMIZED:
            yield const
        else:
            yield from _functions(const)


def _last_line(code: CodeType) -> int:
    """The last source line of ``code`` or of anything it nests."""
    lines = [line for _, _, line in code.co_lines() if line]
    lines += [_last_line(c) for c in code.co_consts if isinstance(c, CodeType)]
    return max(lines, default=code.co_firstlineno)


def never_run(
    root: Path, entered: Iterable[Key]
) -> dict[str, list[tuple[int, str, int]]]:
    """Per module under ``root`` (path relative to its parent), the
    functions no key of ``entered`` names: ``(first line, qualified name,
    lines)``, in source order.  A function that never ran is listed once —
    what it nests ran neither."""
    seen = {
        (os.path.realpath(filename), line, name) for filename, line, name in entered
    }
    ledger: dict[str, list[tuple[int, str, int]]] = {}
    for path in sorted(root.rglob("*.py")):
        filename = os.path.realpath(path)
        module = compile(path.read_text(), filename, "exec")
        missing = []
        pending = list(_functions(module))
        while pending:
            code = pending.pop()
            if (filename, code.co_firstlineno, code.co_qualname) in seen:
                pending.extend(_functions(code))
            else:
                size = _last_line(code) - code.co_firstlineno + 1
                missing.append((code.co_firstlineno, code.co_qualname, size))
        ledger[str(path.relative_to(root.parent))] = sorted(missing)
    return ledger


def render(
    ledger: dict[str, list[tuple[int, str, int]]], header: Sequence[str]
) -> str:
    """The ledger file: a header, a total, then one block per module with
    a never-run function (line, lines, qualified name)."""
    functions = sum(len(rows) for rows in ledger.values())
    lines = sum(size for rows in ledger.values() for _, _, size in rows)
    out = [f"# {line}" if line else "#" for line in header]
    out += [
        f"# {functions} never-run functions, {lines} lines, in "
        f"{sum(1 for rows in ledger.values() if rows)} of {len(ledger)} modules.",
        "",
    ]
    for module, rows in ledger.items():
        if not rows:
            continue
        out.append(
            f"{module}  ({len(rows)} functions, {sum(r[2] for r in rows)} lines)"
        )
        out += [f"  {line:5d}  {size:4d}  {name}" for line, name, size in rows]
        out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------- #
# the project's entry points                                              #
# ---------------------------------------------------------------------- #


def _pytest(*args: str) -> Callable[[], object]:
    def run() -> None:
        import pytest

        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
        if code != 0:
            raise RuntimeError(f"pytest {' '.join(args)} exited {code}")

    return run


def _script(path: Path, *argv: str) -> Callable[[], object]:
    def run() -> None:
        saved = sys.argv
        sys.argv = [str(path), *argv]
        try:
            runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = saved

    return run


def _round(workload: str, seed: int, seconds: float) -> Callable[[], object]:
    def run() -> None:
        saved = list(sys.path)
        try:
            spec = runpy.run_path(str(REPO / "benchmarks" / "round" / "run.py"))
            document = spec["measure"](workload, seed, seconds, 0)
        finally:
            sys.path[:] = saved
        if document["failed"]:
            raise RuntimeError(f"{document['failed']} failed operations")

    return run


def entry_points(seed: int = 1007) -> list[Entry]:
    """Everything the ledger counts as a reason to keep code, in order."""
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"] / 10
    entries: list[Entry] = [
        ("pytest integration+docs", _pytest("tests/integration", "tests/docs")),
        ("pytest benchmarks", _pytest("benchmarks", "--ignore=benchmarks/round")),
    ]
    for name, *argv in EXAMPLES:
        entries.append((f"examples/{name}", _script(REPO / "examples" / name, *argv)))
    for name in TOOLS:
        entries.append((f"tools/{name}", _script(REPO / "tools" / name)))
    for workload in (spec["name"] for spec in benchmark["workloads"]):
        entries.append((f"round {workload}", _round(workload, seed, seconds)))
    return entries


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=LEDGER, help="ledger file to write")
    args = parser.parse_args(argv)
    os.chdir(REPO)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    entries = entry_points()
    started = time.monotonic()
    entered, failures = collect(entries)
    for failure in failures:
        print(f"reach: entry point failed: {failure}", file=sys.stderr)
    header = [
        "Functions of src/repro that no entry point ran: written by tools/reach.py.",
        "Columns: first line, lines (decorators included), qualified name.",
        "A function listed is not listed again for what it nests.",
        "",
        "Entry points:",
        *(f"  {label}" for label, _ in entries),
    ]
    args.out.write_text(render(never_run(SRC / "repro", entered), header) + "\n")
    print(
        f"reach: {len(entries)} entry points in {time.monotonic() - started:.0f} s, "
        f"{len(failures)} failed; wrote {args.out}"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
