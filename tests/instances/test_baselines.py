"""The baseline scoreboard: one plain loop over (policy, instance) cells, the
document it builds, its JSON form, and the floor check run over it.

The full fifteen-cell rerun against the committed golden lives in
``tests/integration/test_instance_pack.py``; these tests run a few cheap
cells and hand-built boards.
"""

from __future__ import annotations

import json

import pytest

from repro.instances import load_pack_instance
from repro.instances.baselines import (
    OPTIMIZER_TIMEOUT_S,
    SCORE_KEYS,
    SCOREBOARD_FORMAT,
    SCOREBOARD_SCHEMA_VERSION,
    baseline_scoreboard,
    floor_violations,
    load_scoreboard,
    scoreboard_to_json,
)
from repro.instances.format import InstanceFormatError, fingerprint_of
from repro.instances.pack import SCOREBOARD_PATH, pack_instance_names

INSTANCES = ["small-spread", "small-mix"]
POLICIES = ["partitioned", "ffd"]


@pytest.fixture(scope="module")
def board():
    # Not the pack's sorted order on purpose: the loop keeps the given one.
    return baseline_scoreboard(instances=INSTANCES, policies=POLICIES)


def _cell(instance: str, policy: str, engine: str = "event") -> dict:
    summary = (
        load_pack_instance(instance)
        .scenario(policy=policy, engine=engine, optimizer_timeout=OPTIMIZER_TIMEOUT_S)
        .run()
        .summary()
    )
    return {key: summary[key] for key in SCORE_KEYS}


# ---------------------------------------------------------------------- #
# baseline_scoreboard                                                     #
# ---------------------------------------------------------------------- #


def test_cells_keep_the_given_instance_and_policy_order(board):
    assert list(board["instances"]) == INSTANCES
    for entry in board["instances"].values():
        assert list(entry["policies"]) == POLICIES


def test_a_cell_holds_exactly_the_score_keys_in_order(board):
    for entry in board["instances"].values():
        for cell in entry["policies"].values():
            assert tuple(cell) == SCORE_KEYS


def test_cells_match_the_committed_scoreboard(board):
    committed = load_scoreboard(SCOREBOARD_PATH)
    for name, entry in board["instances"].items():
        for policy, cell in entry["policies"].items():
            assert cell == committed["instances"][name]["policies"][policy], (
                name,
                policy,
            )


def test_partitioned_is_consolidation_on_the_partitioned_engine(board):
    cell = board["instances"]["small-mix"]["policies"]["partitioned"]
    assert cell == _cell("small-mix", "consolidation", engine="partitioned")
    # and not the event engine's consolidation run, which differs here
    assert cell != _cell("small-mix", "consolidation")


def test_instance_rows_describe_the_loaded_instance(board):
    assert board["format"] == SCOREBOARD_FORMAT
    assert board["schema_version"] == SCOREBOARD_SCHEMA_VERSION
    assert board["optimizer_timeout"] == OPTIMIZER_TIMEOUT_S
    for name, entry in board["instances"].items():
        instance = load_pack_instance(name)
        assert entry["fingerprint"] == instance.fingerprint
        assert entry["nodes"] == len(instance.nodes)
        assert entry["vms"] == instance.vm_count


def test_the_fingerprint_covers_the_rest_of_the_document(board):
    rest = {key: value for key, value in board.items() if key != "fingerprint"}
    assert board["fingerprint"] == fingerprint_of(rest)


def test_the_default_instances_are_the_whole_pack():
    # no policy: no run, only the instance rows
    empty = baseline_scoreboard(policies=[])
    assert list(empty["instances"]) == pack_instance_names()
    assert all(entry["policies"] == {} for entry in empty["instances"].values())


def test_an_unknown_instance_raises_before_any_run():
    with pytest.raises(InstanceFormatError, match="no pack instance named 'nope'"):
        baseline_scoreboard(instances=["nope"])


# ---------------------------------------------------------------------- #
# JSON form                                                               #
# ---------------------------------------------------------------------- #


def test_the_json_form_round_trips_through_load_scoreboard(board, tmp_path):
    path = tmp_path / "scoreboard.json"
    text = scoreboard_to_json(board)
    path.write_text(text)
    assert text.endswith("}\n")
    assert load_scoreboard(path) == json.loads(json.dumps(board))
    # canonical: the same document serializes to the same bytes
    assert scoreboard_to_json(load_scoreboard(path)) == text


@pytest.mark.parametrize(
    "document",
    [{"format": "repro-instance"}, {}, ["repro-scoreboard"]],
    ids=["another-format", "no-format", "not-an-object"],
)
def test_load_scoreboard_rejects_other_documents(document, tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError, match="not a 'repro-scoreboard' document"):
        load_scoreboard(path)


# ---------------------------------------------------------------------- #
# floor_violations                                                        #
# ---------------------------------------------------------------------- #


def _board(**makespans: dict[str, float]) -> dict:
    """A scoreboard holding only makespans: instance -> policy -> value."""
    return {
        "instances": {
            name: {
                "policies": {
                    policy: {"makespan": value} for policy, value in row.items()
                }
            }
            for name, row in makespans.items()
        }
    }


def test_the_committed_scoreboard_holds_the_floors():
    assert floor_violations(load_scoreboard(SCOREBOARD_PATH)) == []


def test_a_board_where_consolidation_wins_has_no_violation():
    board = _board(
        a={"consolidation": 90.0, "ffd": 100.0, "fcfs": 120.0},
        b={"consolidation": 50.0, "ffd": 50.0, "fcfs": 60.0},
    )
    assert floor_violations(board) == []


def test_consolidation_over_a_static_floor_is_named():
    board = _board(
        a={"consolidation": 110.0, "ffd": 100.0, "fcfs": 120.0},
        b={"consolidation": 10.0, "ffd": 50.0, "fcfs": 60.0},
    )
    assert floor_violations(board) == [
        "a: consolidation makespan 110.0 exceeds the ffd floor 100.0"
    ]


def test_a_missing_baseline_row_is_named():
    board = _board(
        a={"consolidation": 90.0, "ffd": 100.0},
        b={"consolidation": 50.0, "ffd": 60.0, "fcfs": 70.0},
    )
    assert floor_violations(board) == [
        "a: missing baseline rows (have ['consolidation', 'ffd'])"
    ]


def test_a_tie_in_aggregate_is_not_a_win():
    board = _board(
        a={"consolidation": 100.0, "ffd": 100.0, "fcfs": 120.0},
        b={"consolidation": 50.0, "ffd": 50.0, "fcfs": 60.0},
    )
    assert floor_violations(board) == [
        "consolidation does not strictly beat ffd in aggregate (150.0 vs 150.0)"
    ]


def test_an_empty_scoreboard_is_a_violation():
    assert floor_violations({"instances": {}}) == ["scoreboard has no instances"]
    assert floor_violations({}) == ["scoreboard has no instances"]


def test_other_policies_do_not_count_toward_the_floors():
    board = _board(
        a={"consolidation": 90.0, "ffd": 100.0, "fcfs": 120.0, "rjsp": 999.0},
    )
    assert floor_violations(board) == []
