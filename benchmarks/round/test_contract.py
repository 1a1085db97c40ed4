"""The benchmark keeps its own contract.

``pytest benchmarks/round/test_contract.py`` runs every workload once with
``--quick`` (one seed, a tenth of the rounds, bare then traced, each in a
fresh process) and checks what BENCHMARK.json promises.  Not part of the
tier-1 suite (``testpaths = ["tests"]``): it takes about a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Files a benchmark PR may touch besides its own directory.
ALLOWED_OUTSIDE = {
    "BENCHMARK.json",
    ".gitignore",
    "CHANGES.md",
    "ISSUE.md",
    "REVIEW.md",
}


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("round") / "result.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        check=True,
        timeout=900,
    )
    return json.loads(out.read_text())


def test_manifest_is_well_formed():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert MANIFEST["paths"] == ["benchmarks/round"]
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in MANIFEST[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_every_declared_metric_is_printed_with_its_unit(quick):
    assert list(quick["workloads"]) == [w["name"] for w in MANIFEST["workloads"]]
    for name, runs in quick["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            printed = runs[section]["metrics"]
            declared = {m["name"]: m["unit"] for m in MANIFEST[section]}
            assert {k: v["unit"] for k, v in printed.items()} == declared, name
            assert all(
                isinstance(v["value"], (int, float)) for v in printed.values()
            )
        assert all(v["value"] > 0 for v in runs["end_to_end"]["metrics"].values())


def test_every_round_was_verified_and_none_failed(quick):
    for name, runs in quick["workloads"].items():
        for run in runs.values():
            assert run["correct"], name
            assert run["failed"] == 0, (name, run["failure_reasons"])
            assert run["attempted"] >= 1
            assert run["plans_verified"] == run["switches"] >= 1, name


def test_nothing_outside_the_benchmark_changed():
    status = subprocess.run(
        ["git", "-C", str(REPO), "status", "--porcelain"],
        capture_output=True,
        text=True,
    )
    if status.returncode:
        pytest.skip("not a git checkout")
    touched = [line[3:].split(" -> ")[-1] for line in status.stdout.splitlines()]
    outside = [
        path
        for path in touched
        if not path.startswith("benchmarks/round/") and path not in ALLOWED_OUTSIDE
    ]
    assert not outside
