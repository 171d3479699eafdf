"""User-initiated repair semantics (paper §5.5).

A regular user may cancel their own past page visits, but the repair
aborts if it would create conflicts for *other* users — unless the undo
resolves a conflict already reported to that user, in which case cascading
is allowed.  Administrators may always proceed.
"""

import pytest

from repro.repair.api import CancelVisitSpec
from repro.store.wal import RecordWal
from repro.workload.scenarios import WIKI, WikiDeployment


@pytest.fixture
def deployment():
    d = WikiDeployment(n_users=3)
    for user in d.users:
        d.login(user)
    return d


class TestOwnActionUndo:
    def test_user_can_undo_their_own_isolated_edit(self, deployment):
        user = deployment.users[0]
        deployment.append_to_page(user, f"{user}_notes", "\nregret this")
        assert "regret this" in deployment.wiki.page_text(f"{user}_notes")
        # The edit-form visit is the one whose events produced the save.
        browser = deployment.browser(user)
        form_visit_id = browser.current.parent_visit
        result = deployment.warp.repair.submit(
            CancelVisitSpec(
                deployment.client_id(user),
                form_visit_id,
                initiated_by_admin=False,
            )
        ).result()
        assert result.ok and not result.aborted
        assert "regret this" not in deployment.wiki.page_text(f"{user}_notes")

    def test_undo_preserves_other_users_unrelated_work(self, deployment):
        user_a, user_b = deployment.users[0], deployment.users[1]
        deployment.append_to_page(user_a, f"{user_a}_notes", "\nmine")
        deployment.append_to_page(user_b, f"{user_b}_notes", "\ntheirs")
        browser_b = deployment.browser(user_b)
        form_visit_id = browser_b.current.parent_visit
        result = deployment.warp.repair.submit(
            CancelVisitSpec(
                deployment.client_id(user_b),
                form_visit_id,
                initiated_by_admin=False,
            )
        ).result()
        assert result.ok
        assert "mine" in deployment.wiki.page_text(f"{user_a}_notes")
        assert "theirs" not in deployment.wiki.page_text(f"{user_b}_notes")


class TestAbortOnCascade:
    def _entangle(self, deployment):
        """user0 edits a shared page; user1 then edits *that* content so
        that undoing user0's visit conflicts with user1's replay."""
        user_a, user_b = deployment.users[0], deployment.users[1]
        deployment.edit_page(user_a, "Projects", "CONTENT FROM A\nsecond line")
        browser_a = deployment.browser(user_a)
        visit_a = browser_a.current.parent_visit
        # user_b edits the first line A wrote — entangled with A's edit.
        browser_b = deployment.browser(user_b)
        visit = browser_b.open(f"{WIKI}/edit.php?title=Projects")
        current = visit.document.select("textarea").value
        browser_b.type_into("textarea", current.replace("CONTENT FROM A", "CONTENT FROM A (improved by B)"))
        browser_b.click("input[name=save]")
        return user_a, user_b, visit_a

    def test_user_undo_aborts_when_it_conflicts_others(self, deployment):
        user_a, user_b, visit_a = self._entangle(deployment)
        before = deployment.wiki.page_text("Projects")
        result = deployment.warp.repair.submit(
            CancelVisitSpec(
                deployment.client_id(user_a),
                visit_a,
                initiated_by_admin=False,
            )
        ).result()
        assert result.aborted
        # Nothing changed: the repair generation was discarded.
        assert deployment.wiki.page_text("Projects") == before
        assert not deployment.warp.conflicts.pending()

    def test_aborted_undo_marks_no_run_canceled(self, tmp_path, closing):
        """A repair's cancels are recorded on commit: an abort leaves
        neither a canceled run in the graph nor a cancel in the log, so
        a later repair still processes those runs' queries."""
        wal_path = str(tmp_path / "records.wal")
        deployment = WikiDeployment(n_users=3, wal_path=wal_path)
        closing(deployment.warp)
        for user in deployment.users:
            deployment.login(user)
        user_a, _user_b, visit_a = self._entangle(deployment)
        result = deployment.warp.repair.submit(
            CancelVisitSpec(deployment.client_id(user_a), visit_a, initiated_by_admin=False)
        ).result()
        assert result.aborted and result.stats.runs_canceled > 0
        assert not any(run.canceled for run in deployment.warp.graph.runs.values())
        deployment.warp.close()
        assert "cancel_run" not in {kind for kind, _ in RecordWal.entries(wal_path)}

    def test_admin_undo_proceeds_despite_conflicts(self, deployment):
        user_a, user_b, visit_a = self._entangle(deployment)
        result = deployment.warp.repair.submit(
            CancelVisitSpec(deployment.client_id(user_a), visit_a)
        ).result()
        assert result.ok and not result.aborted
        assert deployment.warp.conflicts.pending(deployment.client_id(user_b))

    def test_conflict_resolution_may_cascade(self, deployment):
        """§5.5's exception: resolving one's own reported conflict may
        propagate conflicts to others."""
        user_a, user_b, visit_a = self._entangle(deployment)
        deployment.warp.repair.submit(
            CancelVisitSpec(deployment.client_id(user_a), visit_a)
        ).result()
        conflicts = deployment.warp.conflicts.pending(deployment.client_id(user_b))
        assert conflicts
        result = deployment.warp.resolve_conflict_by_cancel(conflicts[0])
        assert result.ok
        assert not deployment.warp.conflicts.pending(deployment.client_id(user_b))


class TestConflictQueue:
    def test_one_conflict_per_visit(self):
        from repro.repair.conflicts import Conflict, ConflictQueue

        queue = ConflictQueue()
        queue.add(Conflict("c1", 1, "/a", "first"))
        queue.add(Conflict("c1", 1, "/a", "duplicate"))
        queue.add(Conflict("c1", 2, "/b", "other visit"))
        assert len(queue.pending("c1")) == 2

    def test_resolution_clears_pending(self):
        from repro.repair.conflicts import Conflict, ConflictQueue

        queue = ConflictQueue()
        conflict = Conflict("c1", 1, "/a", "x")
        queue.add(conflict)
        queue.resolve(conflict)
        assert queue.pending("c1") == []
        assert queue.pending_count("c1") == 0

    def test_clients_with_conflicts(self):
        from repro.repair.conflicts import Conflict, ConflictQueue

        queue = ConflictQueue()
        queue.add(Conflict("c1", 1, "/a", "x"))
        queue.add(Conflict("c2", 1, "/a", "y"))
        assert queue.clients_with_conflicts() == {"c1", "c2"}
