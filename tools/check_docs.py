#!/usr/bin/env python
"""Documentation checker: links, embedded doctests, API-reference coverage.

Three passes over the repository's markdown documentation (``README.md``,
``ROADMAP.md``, ``CHANGES.md`` and everything under ``docs/``):

1. **Link check** — every relative markdown link target (``[text](path)``)
   must exist on disk; anchors and external ``http(s)``/``mailto`` links are
   skipped.
2. **Doctests** — every ``>>>`` block in ``docs/*.md`` is executed with the
   standard :mod:`doctest` runner, so the guides' examples cannot rot.  The
   guides are written so their outputs are deterministic (seeded generators,
   generous CP budgets).
3. **API-reference coverage** — every public symbol exported by the
   documented packages (``repro.api.__all__``, ``repro.constraints.__all__``,
   ``repro.repair.__all__``, ``repro.scale.__all__``,
   ``repro.service.__all__``, ``repro.instances.__all__``,
   ``repro.obs.__all__``, ``repro.sim.__all__``) must appear, backtick-quoted, in
   ``docs/API_REFERENCE.md``; an undocumented export fails the check (and
   CI), so the reference index cannot silently fall behind the code.  The
   other way round, a table row in one of those packages' sections whose
   symbol none of them exports (a deleted or moved name) fails it too.

Run locally with::

    python tools/check_docs.py

CI runs the same script in the ``docs`` job.  The module is also imported by
``tests/docs/test_documentation.py`` so the tier-1 suite enforces all three
passes.
"""

from __future__ import annotations

import doctest
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"

#: Markdown files whose links are validated.
LINKED_FILES = ("README.md", "ROADMAP.md", "CHANGES.md")

#: ``[text](target)`` — good enough for the plain links these docs use
#: (no nested brackets, no reference-style links).
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Targets that are not filesystem paths.
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "#")


def _ensure_importable() -> None:
    """Make ``repro`` importable for the doctests without an install."""
    src = REPO_ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def markdown_files() -> list[Path]:
    files = [REPO_ROOT / name for name in LINKED_FILES]
    files.extend(sorted(DOCS_DIR.glob("*.md")))
    return [path for path in files if path.exists()]


def check_links(paths: list[Path] | None = None) -> list[str]:
    """Return one error string per broken relative link."""
    errors: list[str] = []
    for path in paths if paths is not None else markdown_files():
        for number, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            for match in _LINK_RE.finditer(line):
                target = match.group(1)
                if target.startswith(_EXTERNAL_PREFIXES):
                    continue
                resolved = (path.parent / target.split("#", 1)[0]).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{path.relative_to(REPO_ROOT)}:{number}: broken "
                        f"link -> {target}"
                    )
    return errors


_PROMPT_RE = re.compile(r"^\s*>>> ", re.MULTILINE)


def doctest_files() -> list[Path]:
    """Markdown guides containing at least one doctest prompt (a line
    starting with ``>>>``; prose mentions of the prompt do not count)."""
    return [
        path
        for path in sorted(DOCS_DIR.glob("*.md"))
        if _PROMPT_RE.search(path.read_text())
    ]


def run_doctests(verbose: bool = False) -> list[str]:
    """Run the doctests of every guide; returns one error per failing file."""
    _ensure_importable()
    errors: list[str] = []
    for path in doctest_files():
        failures, attempted = doctest.testfile(
            str(path),
            module_relative=False,
            verbose=verbose,
            optionflags=doctest.NORMALIZE_WHITESPACE,
        )
        status = "ok" if not failures else "FAILED"
        print(
            f"doctest {path.relative_to(REPO_ROOT)}: {attempted} examples, "
            f"{failures} failures [{status}]"
        )
        if failures:
            errors.append(
                f"{path.relative_to(REPO_ROOT)}: {failures} doctest "
                "failure(s)"
            )
        elif attempted == 0:
            errors.append(
                f"{path.relative_to(REPO_ROOT)}: contains '>>>' but doctest "
                "collected no examples (malformed block?)"
            )
    return errors


#: Packages whose ``__all__`` must be fully covered by the API reference.
DOCUMENTED_PACKAGES = (
    "repro.api",
    "repro.constraints",
    "repro.repair",
    "repro.scale",
    "repro.service",
    "repro.instances",
    "repro.obs",
    "repro.sim",
)

#: The generated-style index of the public surface.
API_REFERENCE = DOCS_DIR / "API_REFERENCE.md"


#: ``## `repro.scale` — ...``: the package a reference section documents.
_SECTION_RE = re.compile(r"^## `(repro[\w.]*)`")

#: The backtick-quoted names in the first cell of a table row.
_ROW_RE = re.compile(r"^\| (`[^|]*`) \|")


def check_api_reference(
    packages: tuple[str, ...] = DOCUMENTED_PACKAGES,
) -> list[str]:
    """One error per public symbol missing from ``docs/API_REFERENCE.md``,
    and one per row of a documented package's section whose symbol no
    documented package exports.

    A symbol counts as documented when it appears backtick-quoted in the
    reference (``` `Scenario` ``` or a dotted/called form such as
    ``` `repro.api.Scenario` ``` / ``` `Scenario(...)` ```).
    """
    _ensure_importable()
    import importlib

    if not API_REFERENCE.exists():
        return [f"{API_REFERENCE.relative_to(REPO_ROOT)} is missing"]
    text = API_REFERENCE.read_text()
    errors: list[str] = []
    every_export: set[str] = set()
    for package_name in packages:
        package = importlib.import_module(package_name)
        exported = getattr(package, "__all__", ())
        if not exported:
            errors.append(f"{package_name} exports no __all__")
            continue
        every_export.update(exported)
        for symbol in exported:
            pattern = re.compile(rf"`[\w.]*\b{re.escape(symbol)}\b[\w.()]*`")
            if not pattern.search(text):
                errors.append(
                    f"{API_REFERENCE.relative_to(REPO_ROOT)}: public symbol "
                    f"{package_name}.{symbol} is undocumented"
                )
    section = None
    for number, line in enumerate(text.splitlines(), start=1):
        heading = _SECTION_RE.match(line)
        if heading:
            section = heading.group(1)
        row = _ROW_RE.match(line)
        if row is None or section not in packages:
            continue
        for quoted in re.findall(r"`([^`]+)`", row.group(1)):
            symbol = quoted.split("(")[0].rsplit(".", 1)[-1]
            if symbol not in every_export:
                errors.append(
                    f"{API_REFERENCE.relative_to(REPO_ROOT)}:{number}: row "
                    f"documents `{symbol}`, which no documented package "
                    "exports"
                )
    return errors


def main() -> int:
    link_errors = check_links()
    for error in link_errors:
        print(error)
    print(
        f"link check: {len(markdown_files())} files, "
        f"{len(link_errors)} broken links"
    )
    doctest_errors = run_doctests()
    api_errors = check_api_reference()
    for error in api_errors:
        print(error)
    print(
        f"api reference: {', '.join(DOCUMENTED_PACKAGES)} against "
        f"{API_REFERENCE.name}, {len(api_errors)} undocumented or stale "
        "symbols"
    )
    if link_errors or doctest_errors or api_errors:
        print("documentation check FAILED")
        return 1
    print("documentation check ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
