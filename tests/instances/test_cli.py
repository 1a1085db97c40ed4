"""``repro-verify`` CLI: exit codes and structured error reports."""

from __future__ import annotations

import json

import pytest

from repro.instances.cli import EXIT_ERROR, EXIT_FAILED, EXIT_PASSED, main
from repro.instances.format import SCHEMA_VERSION, save_instance

from .test_verifier import migrate, running_instance


@pytest.fixture()
def instance_path(tmp_path):
    path = tmp_path / "instance.json"
    save_instance(running_instance(), path)
    return path


def submission_file(tmp_path, payload, name="submission.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


class TestHappyPaths:
    def test_passing_plan_exits_zero_with_report(
        self, tmp_path, instance_path, capsys
    ):
        sub = submission_file(
            tmp_path,
            {"plan": {"pools": [[migrate("job0.vm0", "node-0", "node-3")]]}},
        )
        code, out = run_cli(capsys, instance_path, sub)
        assert code == EXIT_PASSED
        report = json.loads(out)
        assert report["passed"] is True
        assert report["switch_cost"] == 512

    def test_failing_plan_exits_one(self, tmp_path, instance_path, capsys):
        sub = submission_file(
            tmp_path,
            {"plan": {"pools": [[migrate("job0.vm0", "node-1", "node-3")]]}},
        )
        code, out = run_cli(capsys, instance_path, sub)
        assert code == EXIT_FAILED
        assert json.loads(out)["passed"] is False

    def test_fingerprint_flag(self, instance_path, capsys):
        code, out = run_cli(capsys, instance_path, "--fingerprint")
        assert code == EXIT_PASSED
        assert out.strip() == running_instance().fingerprint

    def test_report_file_and_verdict_line(
        self, tmp_path, instance_path, capsys
    ):
        sub = submission_file(tmp_path, {"plan": {"pools": []}})
        out_path = tmp_path / "report.json"
        code, out = run_cli(capsys, instance_path, sub, "--report", out_path)
        assert code == EXIT_PASSED
        assert out.startswith("PASSED")
        assert json.loads(out_path.read_text())["passed"] is True


def error_code(out: str) -> str:
    payload = json.loads(out)
    assert set(payload) == {"error"}
    assert set(payload["error"]) == {"code", "message"}
    return payload["error"]["code"]


class TestNegativePaths:
    def test_missing_instance_file(self, tmp_path, capsys):
        code, out = run_cli(capsys, tmp_path / "nope.json", "--fingerprint")
        assert code == EXIT_ERROR
        assert error_code(out) == "missing-file"

    def test_malformed_instance_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, out = run_cli(capsys, path, "--fingerprint")
        assert code == EXIT_ERROR
        assert error_code(out) == "malformed-json"

    def test_schema_version_mismatch(self, tmp_path, capsys):
        document = running_instance().document()
        document["schema_version"] = SCHEMA_VERSION + 7
        path = tmp_path / "future.json"
        path.write_text(json.dumps(document))
        code, out = run_cli(capsys, path, "--fingerprint")
        assert code == EXIT_ERROR
        assert error_code(out) == "schema-version-mismatch"

    def test_unknown_constraint_name(self, tmp_path, capsys):
        document = running_instance().document()
        document["constraints"] = [{"kind": "teleport", "vms": ["job0.vm0"]}]
        del document["fingerprint"]
        path = tmp_path / "bad-constraint.json"
        path.write_text(json.dumps(document))
        code, out = run_cli(capsys, path, "--fingerprint")
        assert code == EXIT_ERROR
        assert error_code(out) == "unknown-constraint"

    def test_string_where_names_are_expected(self, tmp_path, capsys):
        document = running_instance().document()
        document["constraints"] = [
            {"kind": "fence", "vms": ["job0.vm0"], "nodes": "node-1", "elastic": "no"}
        ]
        del document["fingerprint"]
        path = tmp_path / "string-nodes.json"
        path.write_text(json.dumps(document))
        code, out = run_cli(capsys, path, "--fingerprint")
        assert code == EXIT_ERROR
        assert error_code(out) == "invalid-field"

    def test_missing_submission_file(self, tmp_path, instance_path, capsys):
        code, out = run_cli(capsys, instance_path, tmp_path / "ghost.json")
        assert code == EXIT_ERROR
        assert error_code(out) == "missing-file"

    def test_malformed_submission_json(self, tmp_path, instance_path, capsys):
        path = tmp_path / "broken-sub.json"
        path.write_text('{"plan": ')
        code, out = run_cli(capsys, instance_path, path)
        assert code == EXIT_ERROR
        assert error_code(out) == "malformed-json"

    def test_truncated_plan(self, tmp_path, instance_path, capsys):
        sub = submission_file(
            tmp_path, {"plan": {"pools": [[{"kind": "migrate"}]]}}
        )
        code, out = run_cli(capsys, instance_path, sub)
        assert code == EXIT_ERROR
        assert error_code(out) == "truncated-plan"

    def test_unknown_vm_in_submission(self, tmp_path, instance_path, capsys):
        sub = submission_file(
            tmp_path,
            {"plan": {"pools": [[migrate("ghost", "node-0", "node-1")]]}},
        )
        code, out = run_cli(capsys, instance_path, sub)
        assert code == EXIT_ERROR
        assert error_code(out) == "unknown-vm"

    def test_no_submission_argument(self, instance_path, capsys):
        code, out = run_cli(capsys, instance_path)
        assert code == EXIT_ERROR
        assert error_code(out) == "malformed-submission"


def test_entry_point_is_declared():
    """pyproject must expose the console script so an installed package has
    `repro-verify` on PATH."""
    import pathlib
    import re

    pyproject = (
        pathlib.Path(__file__).resolve().parents[2] / "pyproject.toml"
    ).read_text()
    assert re.search(
        r'repro-verify\s*=\s*"repro\.instances\.cli:main"', pyproject
    )
