"""``tools/verify_smoke.py``: the plan submissions its CLI step drives, on
the first committed instance.

The smoke serializes the FFD baseline's plan action by action and submits
it (it must pass), then the same plan with one action naming a VM the
instance does not have (it must be refused with exit 2 and a structured
``unknown-vm`` error).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.instances.format import load_instance
from repro.instances.pack import PACK_DIR, pack_instance_names

REPO = Path(__file__).resolve().parents[2]
SMOKE = REPO / "tools" / "verify_smoke.py"


def _smoke():
    spec = importlib.util.spec_from_file_location("verify_smoke", SMOKE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def first_instance():
    return PACK_DIR / f"{pack_instance_names()[0]}.json"


def _submit(smoke, instance_path: Path, path: Path, pools) -> tuple[int, dict]:
    path.write_text(json.dumps({"plan": {"pools": pools}}))
    code, out = smoke.run_cli(str(instance_path), str(path))
    return code, json.loads(out)


def test_the_baseline_plan_it_submits_passes(first_instance, tmp_path):
    smoke = _smoke()
    pools = smoke.baseline_pools(load_instance(first_instance))
    actions = sum(len(pool) for pool in pools)
    assert actions > 0
    code, report = _submit(smoke, first_instance, tmp_path / "plan.json", pools)
    assert code == 0
    assert report["passed"] is True
    assert report["actions"] == actions


def test_the_plan_naming_an_unknown_vm_is_refused(first_instance, tmp_path):
    smoke = _smoke()
    pools = smoke.baseline_pools(load_instance(first_instance))
    pools[0][0] = {**pools[0][0], "vm": "no-such-vm"}
    code, report = _submit(smoke, first_instance, tmp_path / "plan.json", pools)
    assert code == 2
    assert set(report) == {"error"}
    assert report["error"]["code"] == "unknown-vm"
