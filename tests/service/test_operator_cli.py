"""The ``repro-operator`` scenario file: its keys, and the refusal of others."""

import json

import pytest

from repro.service.__main__ import main, scenario_from_file

SCENARIO = {
    "nodes": [{"name": "node-0"}, {"name": "node-1"}],
    "workloads": [{"name": "job-0", "vm_count": 2, "duration": 60.0}],
}


def _write(tmp_path, **keys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**SCENARIO, **keys}))
    return str(path)


def test_every_documented_key_is_read(tmp_path):
    scenario = scenario_from_file(
        _write(
            tmp_path,
            policy="ffd",
            policy_options={},
            optimizer_timeout=2.0,
            sla_factor=6.0,
            max_time=600.0,
            faults=[{"kind": "node_crash", "target": "node-1", "at": 30.0}],
        )
    )
    assert scenario.policy == "ffd"
    assert (scenario.optimizer_timeout, scenario.sla_factor, scenario.max_time) == (
        2.0,
        6.0,
        600.0,
    )
    assert len(scenario.faults) == 1


@pytest.mark.parametrize(
    "key, value",
    [("polcy", "ffd"), ("use_optimizer", False)],
    ids=["misspelled", "removed-knob"],
)
def test_an_unknown_key_is_refused_by_name(tmp_path, key, value):
    path = _write(tmp_path, **{key: value})
    with pytest.raises(ValueError, match=f"unknown scenario key\\(s\\) '{key}'"):
        scenario_from_file(path)


def test_the_command_exits_non_zero_with_the_message(tmp_path, capsys):
    path = _write(tmp_path, polcy="ffd")
    with pytest.raises(SystemExit) as exited:
        main(["--port", "0", "--run", "--oneshot", "--scenario-file", path])
    assert exited.value.code == 2
    assert "unknown scenario key(s) 'polcy'" in capsys.readouterr().err
