"""``tools/readers.py``: the readers ledger, on a toy repository, and the
committed ledger against ``src/repro``.

The tool lists, per module, the attributes, keys and module constants that
``src/`` writes and nothing outside ``tests/`` reads, matched by name (a
constant's own module is no reader).  The committed ledger must
name only modules and writes that still exist (line numbers are not
compared: an unrelated edit does not stale it, a cut does).
"""

from __future__ import annotations

import ast
import importlib.util
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
READERS = REPO / "tools" / "readers.py"
LEDGER = REPO / "tools" / "readers_ledger.txt"

TOY = textwrap.dedent(
    '''\
    from dataclasses import dataclass


    @dataclass
    class Box:
        kept: int
        dropped: int

        def __post_init__(self):
            self.counter = 0
            self.seen = 0

        def bump(self):
            self.counter += 1

        def helper(this):
            def inner():
                this.closure = 1

            return inner


    class Slots:
        __slots__ = ("slot",)

        def __init__(self):
            self.slot = 1


    def to_dict(box):
        return {"read_key": box.kept, "lost_key": 2}


    def record(result):
        result.metadata["noted"] = True


    LIMIT = 3
    SHARED: int = 4
    TESTED = 5
    _PRIVATE = 6
    lower = 7


    def capped(n):
        return min(n, LIMIT, _PRIVATE, lower)
    '''
)

USE = textwrap.dedent(
    """\
    from toy.mod import SHARED


    def use(box, document):
        return box.seen + document["read_key"] + getattr(box, "closure") + SHARED
    """
)

GUIDE = textwrap.dedent(
    """\
    # Guide

    A prose mention of `counter` is no read; a doctest is:

    >>> result.metadata["noted"]
    True
    """
)

TEST = textwrap.dedent(
    """\
    def test_box(box, mod):
        assert box.dropped == 0 and box.slot == 1 and mod.TESTED == 5
    """
)


def _readers():
    spec = importlib.util.spec_from_file_location("readers", READERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_ledger_lists_what_nothing_outside_tests_reads(tmp_path):
    readers = _readers()
    files = {
        "src/toy/__init__.py": "",
        "src/toy/mod.py": TOY,
        "tools/use.py": USE,
        "docs/GUIDE.md": GUIDE,
        "tests/test_toy.py": TEST,
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    outside, inside = readers.count_reads(tmp_path)
    ledger, total = readers.unread(tmp_path / "src" / "toy", outside, inside)
    assert total == 12
    assert ledger == {
        "toy/__init__.py": [],
        "toy/mod.py": [
            (7, "Box.dropped", 1),
            (10, "Box.counter", 0),
            (27, "Slots.slot", 1),
            (31, 'to_dict["lost_key"]', 0),
            # read in its own module only
            (38, "LIMIT", 0),
            (40, "TESTED", 1),
        ],
    }
    text = readers.render(ledger, total, ["toy ledger"])
    assert text.splitlines()[:2] == [
        "# toy ledger",
        "# 6 unread of 12 attributes, keys and constants written, in 1 of 2 modules.",
    ]
    assert "toy/mod.py  (6 unread)" in text
    assert '     31     0  to_dict["lost_key"]' in text


def test_docstrings_slots_all_and_write_backs_are_not_reads():
    readers = _readers()
    tree = ast.parse(
        textwrap.dedent(
            '''\
            """module"""
            __all__ = ["exported"]


            class Box:
                """docstring"""

                __slots__ = ("slot",)

                def bump(self):
                    """counter"""
                    self.counter += 1
                    counter = LIMIT
                    return "kept", counter
            '''
        )
    )
    counts = readers.reads(tree)
    # a bare lower-case name is a local, not a read of the attribute
    for name in ("module", "exported", "docstring", "slot", "counter"):
        assert not counts[name], name
    assert counts["kept"] == counts['"kept"'] == counts["LIMIT"] == 1
    assert [w.label for w in readers.writes(tree)] == ["Box.counter"]


def _ledger_labels() -> dict[str, list[str]]:
    """Module path (relative to ``src``) -> the labels the committed ledger
    lists for it."""
    labels: dict[str, list[str]] = {}
    for line in LEDGER.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        if line.startswith(" "):
            labels[module].append(line.split(maxsplit=2)[2])
        else:
            module = line.split()[0]
            labels[module] = []
    return labels


def test_the_committed_ledger_names_only_what_exists():
    readers = _readers()
    ledger = _ledger_labels()
    assert ledger, "the committed ledger lists no module"
    for module, labels in ledger.items():
        path = REPO / "src" / module
        assert path.is_file(), f"the ledger names {module}, which is gone"
        written = {w.label for w in readers.writes(ast.parse(path.read_text()))}
        stale = [label for label in labels if label not in written]
        assert not stale, f"the ledger lists {stale} in {module}: rerun tools/readers.py"
