"""System-level invariants of repair.

These are the properties the paper's guarantees rest on (§2): repaired
state is deterministic for a deterministic history, repair never perturbs
the live generation until finalize, and an aborted repair is a perfect
no-op.
"""

import pytest

import persistence_fixtures as fixtures
from repro.apps.wiki.app import WikiApp
from repro.apps.wiki.patches import patch_for
from repro.warp import WarpSystem
from repro.workload.scenarios import ATTACK_TYPES, run_scenario


class TestDeterminism:
    @pytest.mark.parametrize("attack", ["stored-xss", "csrf", "acl-error"])
    def test_repair_counts_are_deterministic(self, attack):
        rows = []
        for _trial in range(2):
            outcome = run_scenario(attack, n_users=12, n_victims=2, seed=42)
            result = outcome.repair()
            rows.append(
                (
                    result.stats.visits_reexecuted,
                    result.stats.runs_reexecuted,
                    result.stats.queries_reexecuted,
                    result.stats.runs_canceled,
                    len(result.conflicts),
                )
            )
        assert rows[0] == rows[1]

    def test_repaired_state_is_deterministic(self):
        states = []
        for _trial in range(2):
            outcome = run_scenario("stored-xss", n_users=8, n_victims=2, seed=7)
            outcome.repair()
            states.append(
                {
                    user: outcome.wiki.page_text(f"{user}_notes")
                    for user in outcome.deployment.users
                }
            )
        assert states[0] == states[1]


class TestGenerationIsolation:
    def test_live_state_untouched_until_finalize(self):
        """Mid-repair, the current generation serves the pre-repair view."""
        outcome = run_scenario("stored-xss", n_users=6, n_victims=2)
        victim = outcome.victims[0]
        attacked_text = outcome.wiki.page_text(f"{victim}_notes")
        assert "xss-attack-line" in attacked_text

        controller = outcome.warp._controller()
        controller._begin()
        spec = patch_for("stored-xss")
        controller.scripts.patch(spec.file, spec.build())
        for run in controller.graph.runs_loading_file(spec.file, 0):
            controller._escalate(run.run_id)
        controller._process()
        # Repair fully processed but not finalized: live view unchanged.
        assert outcome.wiki.page_text(f"{victim}_notes") == attacked_text
        controller._finalize()
        assert "xss-attack-line" not in outcome.wiki.page_text(f"{victim}_notes")

    def test_abort_is_a_perfect_noop_on_data(self):
        outcome = run_scenario("stored-xss", n_users=6, n_victims=2)
        before = {
            user: outcome.wiki.page_text(f"{user}_notes")
            for user in outcome.deployment.users
        }
        version_count = outcome.warp.ttdb.total_versions()

        controller = outcome.warp._controller()
        controller._begin()
        spec = patch_for("stored-xss")
        controller.scripts.patch(spec.file, spec.build())
        for run in controller.graph.runs_loading_file(spec.file, 0):
            controller._escalate(run.run_id)
        controller._process()
        controller._abort()

        after = {
            user: outcome.wiki.page_text(f"{user}_notes")
            for user in outcome.deployment.users
        }
        assert before == after
        assert outcome.warp.ttdb.total_versions() == version_count
        assert outcome.warp.ttdb.repair_gen is None
        assert outcome.warp.ttdb.current_gen == 0


class TestPartitionKeyShape:
    """Every producer emits ``(table, column, value)``: no consumer
    converts a two-element key any more, so none may ever appear."""

    @pytest.mark.parametrize("source", [*ATTACK_TYPES, "format-8 snapshot"])
    def test_every_partition_key_is_a_triple(self, source, monkeypatch):
        if source in ATTACK_TYPES:
            outcome = run_scenario(source, n_users=6, n_victims=2, seed=5)
            warp, repair = outcome.warp, outcome.repair
        else:
            warp = WarpSystem.load(fixtures.FORMAT8_SNAPSHOT)
            WikiApp(warp.ttdb, warp.scripts, warp.server).register_code()

            def repair():
                fixtures.repair_counters(warp)

        gate = warp.server.gate
        controllers = []
        make_controller = warp._controller

        def recording_controller():
            controllers.append(make_controller())
            return controllers[-1]

        monkeypatch.setattr(warp, "_controller", recording_controller)
        repair()
        (controller,) = controllers

        produced = {
            "written_partitions": [
                key
                for run in warp.graph.runs.values()
                for query in run.queries
                for key in query.written_partitions
            ],
            "covered_keys": [
                key for group in controller._groups for key in group.covered_keys
            ],
            "owned_keys": list(gate.owned_keys),
            "ModifiedPartitions": list(controller.mods.snapshot_keys()),
        }
        assert produced["written_partitions"] and produced["ModifiedPartitions"]
        for name, keys in produced.items():
            for key in keys:
                assert isinstance(key, tuple), (name, key)
                shape = [len(key), type(key[0]), type(key[1])]
                assert shape == [3, str, str], (name, key)
