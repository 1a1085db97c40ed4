#!/usr/bin/env python
"""The readers ledger: which attributes and constants written in
``src/repro`` nothing outside ``tests/`` reads.

``tools/reach.py`` lists the functions no entry point runs.  It cannot see
state that a running function writes and nobody reads: the writer runs.  This
tool counts readers per attribute instead, statically, with the stdlib
:mod:`ast` and without importing ``src/``.

Writes, in ``src/repro``:

* ``self.x = …`` (plain, annotated or augmented) in a method: ``Class.x``;
* an annotated name in a class body (dataclass and ``NamedTuple`` fields):
  ``Class.x``;
* ``….metadata["k"] = …``: the key ``function["k"]``;
* the string keys of a dict literal, and ``…["k"] = …`` stores, inside a
  function named ``to_dict`` or ``*_to_dict``: the key ``function["k"]``;
* a public upper-case name assigned at module level (``X = …``): the
  constant ``X``.

Reads, matched by name in ``src/``, ``benchmarks/``, ``tools/``,
``examples/`` and the doctests of ``docs/*.md``, and separately in
``tests/``: for an attribute ``x``, every ``.x`` load and every string
constant ``"x"`` (``getattr``); for a key ``"k"``, every string constant
``"k"`` that is not itself a write; for a constant ``X``, the same as for
an attribute plus every load of the bare name ``X``, outside the module
that defines it (a module reading its own constant is not a reader).  An
augmented assignment reads only to write back, so ``v.x += 1`` is a write.
The names of ``__slots__`` and ``__all__`` and docstrings are not reads.

The match is by name, so it is conservative: a name read anywhere keeps every
attribute of that name.  What it cannot see is reflection that reads every
field at once (``dataclasses.asdict``, ``fields``, a dataclass ``__eq__``),
so a listed field is a candidate, to be confirmed by hand before a cut.  The
ledger goes to ``tools/readers_ledger.txt``::

    python tools/readers.py
    python tools/readers.py --out /tmp/readers.txt
"""

from __future__ import annotations

import argparse
import ast
import doctest
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
LEDGER = REPO / "tools" / "readers_ledger.txt"

#: The trees whose reads keep an attribute (the docs/*.md doctests count too).
READER_DIRS = ("src", "benchmarks", "tools", "examples")


class Write(NamedTuple):
    """One attribute, key or constant written in a module: its first line,
    the name a reader must use (``x``, ``"k"`` or ``X``), and how the ledger
    shows it (a constant by its name alone)."""

    line: int
    name: str
    label: str

    @property
    def constant(self) -> bool:
        """A module-level constant, read only from other modules."""
        return self.label == self.name


def _is_constant(name: str) -> bool:
    return name.isupper() and not name.startswith("_")


def _is_to_dict(name: str) -> bool:
    return name == "to_dict" or name.endswith("_to_dict")


def _constant_key(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_metadata(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "metadata") or (
        isinstance(node, ast.Name) and node.id == "metadata"
    )


def _self_attribute(target: ast.AST, self_name: str) -> str | None:
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == self_name
    ):
        return target.attr
    return None


def _targets(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return [node.target]
    return []


def _ignored_strings(tree: ast.AST) -> set[int]:
    """``id`` of the string constants that are not reads: docstrings and the
    names listed by ``__slots__`` / ``__all__``."""
    ignored: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and _constant_key(body[0].value) is not None:
                ignored.add(id(body[0].value))
        names = [t.id for t in _targets(node) if isinstance(t, ast.Name)]
        if {"__slots__", "__all__"} & set(names):
            ignored.update(id(n) for n in ast.walk(node.value) if _constant_key(n) is not None)
    return ignored


def _scan(tree: ast.AST) -> Iterator[tuple[int, str, str, ast.AST | None]]:
    """Every write in ``tree``: its line, the name a reader must use, its
    label, and for a key the string constant that spells it."""

    def visit(node, owner, function, self_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                for item in child.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        name = item.target.id
                        yield item.lineno, name, f"{child.name}.{name}", None
                yield from visit(child, child.name, None, None)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args.posonlyargs + child.args.args
                # a method's first argument; a closure keeps its method's
                first = args[0].arg if owner is not None and args else None
                yield from visit(child, owner, child.name, self_name if function else first)
                continue
            in_to_dict = function is not None and _is_to_dict(function)
            for target in _targets(child):
                if (
                    owner is None
                    and function is None
                    and isinstance(target, ast.Name)
                    and _is_constant(target.id)
                ):
                    yield child.lineno, target.id, target.id, None
                attr = _self_attribute(target, self_name) if self_name else None
                if attr is not None:
                    yield child.lineno, attr, f"{owner}.{attr}", None
                if isinstance(target, ast.Subscript) and (
                    in_to_dict or _is_metadata(target.value)
                ):
                    key = _constant_key(target.slice)
                    if key is not None:
                        yield child.lineno, f'"{key}"', f'{function}["{key}"]', target.slice
            if in_to_dict and isinstance(child, ast.Dict):
                for node in child.keys:
                    key = _constant_key(node) if node is not None else None
                    if key is not None:
                        yield node.lineno, f'"{key}"', f'{function}["{key}"]', node
            yield from visit(child, owner, function, self_name)

    return visit(tree, None, None, None)


def writes(tree: ast.Module) -> list[Write]:
    """Every attribute and key ``tree`` writes, first write of each, in
    source order."""
    found: dict[str, Write] = {}
    for line, name, label, _ in _scan(tree):
        if label not in found or line < found[label].line:
            found[label] = Write(line, name, label)
    return sorted(found.values())


def reads(tree: ast.AST) -> Counter[str]:
    """Load sites by name: ``x`` for a ``.x`` load or a string constant
    ``"x"``, ``"k"`` for a string constant ``"k"``, and ``X`` for a load of
    an upper-case bare name ``X``."""
    ignored = _ignored_strings(tree) | {id(key) for *_, key in _scan(tree) if key}
    counts: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            counts[node.attr] += 1
        elif (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and _is_constant(node.id)
        ):
            counts[node.id] += 1
        elif (key := _constant_key(node)) is not None and id(node) not in ignored:
            counts[key] += 1
            counts[f'"{key}"'] += 1
    return counts


def _doctests(path: Path) -> Iterator[ast.Module]:
    """The doctest examples of a markdown file, each parsed on its own."""
    for example in doctest.DocTestParser().get_examples(path.read_text()):
        try:
            yield ast.parse(example.source)
        except SyntaxError:
            continue


def _parsed(paths: Iterable[Path]) -> Iterator[ast.Module]:
    for path in paths:
        yield ast.parse(path.read_text(), str(path))


def count_reads(repo: Path) -> tuple[Counter[str], Counter[str]]:
    """Load sites outside ``tests/`` and inside it, by name."""
    outside: Counter[str] = Counter()
    for name in READER_DIRS:
        for tree in _parsed(sorted((repo / name).rglob("*.py"))):
            outside += reads(tree)
    for path in sorted((repo / "docs").glob("*.md")):
        for tree in _doctests(path):
            outside += reads(tree)
    inside: Counter[str] = Counter()
    for tree in _parsed(sorted((repo / "tests").rglob("*.py"))):
        inside += reads(tree)
    return outside, inside


def unread(
    root: Path, outside: Counter[str], inside: Counter[str]
) -> tuple[dict[str, list[tuple[int, str, int]]], int]:
    """Per module under ``root`` (path relative to its parent), the writes
    no load site outside ``tests/`` reads — a constant's own module
    excluded: ``(line, label, test loads)``; and how many writes there are
    in all."""
    ledger: dict[str, list[tuple[int, str, int]]] = {}
    total = 0
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found = writes(tree)
        own = reads(tree)
        total += len(found)
        ledger[str(path.relative_to(root.parent))] = [
            (w.line, w.label, inside[w.name])
            for w in found
            if outside[w.name] <= (own[w.name] if w.constant else 0)
        ]
    return ledger, total


def render(
    ledger: dict[str, list[tuple[int, str, int]]], total: int, header: Sequence[str]
) -> str:
    """The ledger file: a header, a total, then one block per module with an
    unread write (line, loads in tests, label)."""
    count = sum(len(rows) for rows in ledger.values())
    out = [f"# {line}" if line else "#" for line in header]
    out += [
        f"# {count} unread of {total} attributes, keys and constants written, in "
        f"{sum(1 for rows in ledger.values() if rows)} of {len(ledger)} modules.",
        "",
    ]
    for module, rows in ledger.items():
        if not rows:
            continue
        out.append(f"{module}  ({len(rows)} unread)")
        out += [f"  {line:5d}  {tests:4d}  {label}" for line, label, tests in rows]
        out.append("")
    return "\n".join(out)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=LEDGER, help="ledger file to write")
    args = parser.parse_args(argv)
    outside, inside = count_reads(REPO)
    ledger, total = unread(SRC / "repro", outside, inside)
    header = [
        "Attributes, keys and constants written in src/repro that nothing outside tests/ reads:",
        "written by tools/readers.py.",
        "Columns: line of the first write, load sites in tests/, owner.name, owner[\"key\"] or CONSTANT.",
        "Read by name in src/, benchmarks/, tools/, examples/ and the docs/*.md doctests;",
        "a constant's own module does not count.",
    ]
    args.out.write_text(render(ledger, total, header) + "\n")
    print(f"readers: {sum(map(len, ledger.values()))} unread; wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
