"""The ``repro-trace`` CLI (``repro.obs.cli``)."""

from __future__ import annotations

import json

import pytest

from repro.obs import Tracer, span, validate_chrome_trace
from repro.obs.cli import main


@pytest.fixture
def trace_file(tmp_path):
    counter = iter(range(1000))
    tracer = Tracer(clock=lambda: next(counter) * 0.5)
    with tracer.activate():
        with span("round", index=0):
            with span("cp.solve") as solve:
                solve.inc("nodes", 3)
    path = tmp_path / "run.trace.json"
    path.write_text(json.dumps(tracer.to_dict()))
    return path


class TestSummary:
    def test_renders_the_text_table(self, trace_file, capsys):
        assert main(["summary", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "trace 'run'" in out
        assert "cp.solve" in out

    def test_json_mode_emits_a_parsable_document(self, trace_file, capsys):
        assert main(["summary", str(trace_file), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["solver"]["nodes"] == 3

    def test_missing_file_exits_with_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no such file"):
            main(["summary", str(tmp_path / "absent.json")])

    def test_invalid_json_exits_with_an_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["summary", str(bad)])

    def test_a_negative_limit_is_a_usage_error(self, trace_file, capsys):
        # A negative limit would slice from the end of the ranking.
        with pytest.raises(SystemExit) as exit_info:
            main(["summary", str(trace_file), "--limit", "-2"])
        assert exit_info.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_a_zero_limit_lists_no_span(self, trace_file, capsys):
        assert main(["summary", str(trace_file), "--limit", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["top_spans"] == []

    def test_traceless_document_exits_with_an_error(self, tmp_path):
        bad = tmp_path / "result.json"
        bad.write_text(json.dumps({"makespan": 1.0}))
        with pytest.raises(SystemExit, match="no trace found"):
            main(["summary", str(bad)])


class TestDiff:
    def test_diffs_two_files(self, trace_file, tmp_path, capsys):
        other = tmp_path / "other.trace.json"
        other.write_text(trace_file.read_text())
        assert main(["diff", str(trace_file), str(other)]) == 0
        out = capsys.readouterr().out
        assert "1.00x" in out

    def test_json_mode(self, trace_file, capsys):
        assert main(
            ["diff", str(trace_file), str(trace_file), "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["phases"]["round"]["ratio"] == 1.0


class TestExport:
    def test_writes_a_valid_chrome_document(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "out.chrome.json"
        assert main(["export", str(trace_file), "-o", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        assert validate_chrome_trace(document) == []
        assert "wrote" in capsys.readouterr().out

    def test_default_output_path_derives_from_the_input(self, trace_file):
        assert main(["export", str(trace_file)]) == 0
        assert trace_file.with_suffix(".chrome.json").exists()

    def test_runresult_documents_export_too(self, trace_file, tmp_path):
        wrapped = tmp_path / "result.json"
        wrapped.write_text(
            json.dumps({"trace": json.loads(trace_file.read_text())})
        )
        assert main(["export", str(wrapped), "-o", str(tmp_path / "w.json")]) == 0
