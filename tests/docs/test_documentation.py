"""The documentation suite is enforced by the tier-1 tests.

Runs the same two passes as ``tools/check_docs.py`` (and the CI ``docs``
job): intra-repo markdown links must resolve, and every doctest embedded in
the ``docs/`` guides must pass.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


check_docs = _load_check_docs()


def test_documentation_files_exist():
    for name in (
        "SIMULATOR_GUIDE.md",
        "ARCHITECTURE.md",
        "SCENARIOS.md",
        "PERFORMANCE.md",
        "API_REFERENCE.md",
    ):
        assert (REPO_ROOT / "docs" / name).exists(), f"docs/{name} is missing"


def test_no_broken_intra_repo_links():
    assert check_docs.check_links() == []


def test_readme_links_the_scenario_catalog():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/SCENARIOS.md" in readme
    assert "docs/SIMULATOR_GUIDE.md" in readme


def test_guides_have_doctests_and_they_pass():
    files = check_docs.doctest_files()
    names = {path.name for path in files}
    assert "SIMULATOR_GUIDE.md" in names
    assert "PERFORMANCE.md" in names
    assert check_docs.run_doctests() == []


def test_api_reference_covers_every_public_symbol():
    assert check_docs.check_api_reference() == []


def test_api_reference_check_reports_missing_symbols(monkeypatch):
    # the rule must actually bite: an export absent from the reference fails
    import repro.api

    monkeypatch.setattr(
        repro.api, "__all__", [*repro.api.__all__, "NotDocumentedAnywhere"]
    )
    errors = check_docs.check_api_reference()
    assert any("NotDocumentedAnywhere" in error for error in errors)


def test_api_reference_check_reports_stale_rows(monkeypatch):
    # and the other way round: a row outlives the export it documents
    import repro.scale

    monkeypatch.setattr(
        repro.scale,
        "__all__",
        [name for name in repro.scale.__all__ if name != "ZoneOutcome"],
    )
    errors = check_docs.check_api_reference()
    assert len(errors) == 1
    assert "`ZoneOutcome`" in errors[0] and "no documented package" in errors[0]
