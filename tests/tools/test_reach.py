"""``tools/reach.py``: the reachability collector, on a toy package, and
the committed ledger against ``src/repro``.

The collector records the code objects its entry points enter — in this
process and in its threads — and lists,
per module, the functions none of them did — a never-run function once,
with its line count, and nothing it nests.  The committed ledger must name
only modules and functions that still exist (line numbers are not compared:
an unrelated edit does not stale it, a cut does).
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import textwrap
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
REACH = REPO / "tools" / "reach.py"
LEDGER = REPO / "tools" / "reach_ledger.txt"

TOY = textwrap.dedent(
    '''\
    import functools


    def used():
        return helper() + Box().ran()


    def helper():
        return 1


    def unused(a):
        def inner():
            return a

        return inner


    @functools.lru_cache
    def decorated_unused():
        return 2


    class Box:
        def ran(self):
            return 0

        def never(self):
            return [x for x in range(3)]


    def threaded():
        return 3
    '''
)


def _reach():
    spec = importlib.util.spec_from_file_location("reach", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_ledger_lists_what_no_entry_point_ran(tmp_path, monkeypatch):
    reach = _reach()
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TOY)
    (package / "idle.py").write_text("def alone():\n    pass\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "toy", raising=False)
    monkeypatch.delitem(sys.modules, "toy.mod", raising=False)
    toy = importlib.import_module("toy.mod")

    def in_a_thread():
        worker = threading.Thread(target=toy.threaded)
        worker.start()
        worker.join()

    def broken():
        raise RuntimeError("entry point bug")

    entered, failures = reach.collect(
        [
            ("used", toy.used),
            ("thread", in_a_thread),
            ("broken", broken),
        ]
    )
    assert failures == ["broken: RuntimeError: entry point bug"]
    assert sys.gettrace() is None
    ledger = reach.never_run(package, entered)
    assert ledger == {
        "toy/__init__.py": [],
        "toy/idle.py": [(1, "alone", 2)],
        "toy/mod.py": [
            (12, "unused", 5),
            (19, "decorated_unused", 3),
            (28, "Box.never", 2),
        ],
    }
    text = reach.render(ledger, ["toy ledger"])
    assert text.splitlines()[:2] == [
        "# toy ledger",
        "# 4 never-run functions, 12 lines, in 2 of 3 modules.",
    ]
    assert "toy/mod.py  (3 functions, 10 lines)" in text
    assert "     12     5  unused" in text


def test_every_entry_point_script_exists():
    # reach.py only finds a renamed example or tool when it runs (~10 min)
    reach = _reach()
    assert "service_smoke.py" in reach.TOOLS
    for name, *_ in reach.EXAMPLES:
        assert (REPO / "examples" / name).is_file(), name
    for name in reach.TOOLS:
        assert (REPO / "tools" / name).is_file(), name


def _ledger_names() -> dict[str, list[str]]:
    """Module path (relative to ``src``) -> the qualified names the
    committed ledger lists for it."""
    names: dict[str, list[str]] = {}
    for line in LEDGER.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        if line.startswith(" "):
            names[module].append(line.split()[2])
        else:
            module = line.split()[0]
            names[module] = []
    return names


def test_the_committed_ledger_names_only_what_exists():
    reach = _reach()

    def qualified(code):
        for function in reach._functions(code):
            yield function.co_qualname
            yield from qualified(function)

    ledger = _ledger_names()
    assert ledger, "the committed ledger lists no module"
    for module, names in ledger.items():
        path = REPO / "src" / module
        assert path.is_file(), f"the ledger names {module}, which is gone"
        functions = set(qualified(compile(path.read_text(), str(path), "exec")))
        stale = [name for name in names if name not in functions]
        assert not stale, f"the ledger lists {stale} in {module}: rerun tools/reach.py"
