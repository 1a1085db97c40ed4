"""Golden regression for the shipped instance pack and its baseline floors.

The pack under ``src/repro/instances/pack/`` is a *committed artifact*: the
instances are rebuilt from their seeds and compared byte-for-byte, and the
baseline scoreboard is re-run over them and compared byte-for-byte.  Any
drift — a generator change, a solver change, a policy change — shows up as a
reviewable golden diff instead of silently moving the floors.

Regenerate after an intentional change with::

    REPRO_UPDATE_GOLDENS=1 python -m pytest tests/integration/test_instance_pack.py

and commit the diff (instances *and* scoreboard together — the scoreboard
embeds the instance fingerprints).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.instances.baselines import (
    BASELINE_POLICIES,
    baseline_scoreboard,
    floor_violations,
    load_scoreboard,
    scoreboard_to_json,
)
from repro.instances.format import fingerprint_of, instance_to_json, load_instance
from repro.instances.pack import (
    PACK_DIR,
    SCOREBOARD_PATH,
    build_pack,
    load_pack_instance,
    pack_instance_names,
    write_pack,
)
from repro.instances.verifier import verify_submission

UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"


@pytest.fixture(scope="module", autouse=True)
def regenerate_if_requested():
    if UPDATE:
        write_pack()
        board = baseline_scoreboard()
        SCOREBOARD_PATH.write_text(scoreboard_to_json(board))
    yield


class TestPackGoldens:
    def test_pack_lists_the_expected_tiers(self):
        assert pack_instance_names() == [
            "medium-faulty",
            "small-mix",
            "small-spread",
        ]

    def test_committed_instances_match_their_seeds_byte_for_byte(self):
        built = {instance.name: instance for instance in build_pack()}
        assert sorted(built) == pack_instance_names()
        for name, instance in built.items():
            committed = (PACK_DIR / f"{name}.json").read_text()
            assert instance_to_json(instance) + "\n" == committed, (
                f"pack instance {name} drifted from its seed build; if "
                "intentional, regenerate with REPRO_UPDATE_GOLDENS=1"
            )

    def test_committed_fingerprints_verify(self):
        for name in pack_instance_names():
            # load_instance re-fingerprints and raises on drift
            instance = load_instance(PACK_DIR / f"{name}.json")
            assert instance.fingerprint == fingerprint_of(instance.to_dict())

    def test_pack_instances_are_all_waiting(self):
        for name in pack_instance_names():
            instance = load_pack_instance(name)
            assert not instance.states and not instance.placement

    def test_empty_plan_verifies_against_every_pack_instance(self):
        """The committed instances must be scoreable by the standalone
        verifier (an empty plan passes: all-waiting is viable)."""
        for name in pack_instance_names():
            report = verify_submission(
                load_pack_instance(name), {"plan": {"pools": []}}
            )
            assert report.passed, (name, report.to_dict())


class TestScoreboardGoldens:
    @pytest.fixture(scope="class")
    def fresh_board(self):
        return baseline_scoreboard()

    def test_committed_scoreboard_matches_rerun_byte_for_byte(
        self, fresh_board
    ):
        """All 15 cells (five policies on three instances) are re-run and
        the whole file compared."""
        assert SCOREBOARD_PATH.exists(), (
            "scoreboard golden missing; run with REPRO_UPDATE_GOLDENS=1"
        )
        assert scoreboard_to_json(fresh_board) == SCOREBOARD_PATH.read_text(), (
            "baseline scoreboard drifted; if intentional, regenerate with "
            "REPRO_UPDATE_GOLDENS=1 and review the diff"
        )

    def test_scoreboard_fingerprint_is_self_consistent(self):
        board = load_scoreboard(SCOREBOARD_PATH)
        claimed = board["fingerprint"]
        del board["fingerprint"]
        assert claimed == fingerprint_of(board)

    def test_scoreboard_embeds_current_instance_fingerprints(self):
        board = load_scoreboard(SCOREBOARD_PATH)
        for name, entry in board["instances"].items():
            assert entry["fingerprint"] == load_pack_instance(name).fingerprint

    def test_every_policy_scored_on_every_instance(self):
        board = load_scoreboard(SCOREBOARD_PATH)
        for name, entry in board["instances"].items():
            assert sorted(entry["policies"]) == sorted(BASELINE_POLICIES), name
            for policy, scores in entry["policies"].items():
                assert scores["makespan"] > 0, (name, policy)

    def test_consolidation_beats_the_static_floors(self):
        """ISSUE acceptance: the committed scoreboard shows dynamic
        consolidation at or under the FFD/FCFS floors on every pack
        instance and strictly better in aggregate (the paper's headline
        ordering, in miniature)."""
        board = load_scoreboard(SCOREBOARD_PATH)
        assert floor_violations(board) == []
