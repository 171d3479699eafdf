"""The §8.4 comparison scenarios: four data-corruption bugs (Table 5).

Each scenario stages background activity in mini-Drupal or mini-Gallery2,
triggers one corruption bug, records the ground-truth corrupted rows, and
then offers two recovery paths:

* the Akkuş & Goel taint baseline (``taint_report``), which needs the
  administrator to identify the buggy request and optionally whitelist
  tables, and over-approximates (false positives);
* WARP retroactive patching (``warp_repair``), which needs only the patch
  and restores exactly the corrupted state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.apps.drupal.app import DrupalApp, make_node_edit, make_vote
from repro.apps.gallery.app import GalleryApp, make_perm_edit, make_resize
from repro.baselines.taint import TaintAnalysis, TaintReport
from repro.http.message import build_url
from repro.repair.api import PatchSpec
from repro.warp import WarpSystem

Row = Tuple[str, int]

BUGS = (
    "drupal-voting",
    "drupal-comments",
    "gallery-perms",
    "gallery-resize",
)

ORIGIN = "http://app.test"


@dataclass
class CorruptionOutcome:
    """Handle over one staged corruption scenario."""

    bug: str
    warp: WarpSystem
    app: object
    buggy_run_ids: List[int]
    corrupted: Set[Row]
    patch_file: str
    patch_exports: Dict
    whitelist: Tuple[str, ...] = ("accesslog",)
    #: Snapshot closures for post-repair verification.
    verify_restored: Optional[Callable[[], bool]] = None

    def taint_report(self, whitelisted: bool) -> TaintReport:
        whitelist = self.whitelist if whitelisted else ()
        analysis = TaintAnalysis(self.warp.graph, whitelist=whitelist)
        return analysis.analyze(self.buggy_run_ids, self.corrupted)

    def warp_repair(self):
        return self.warp.repair.submit(
            PatchSpec(self.patch_file, exports=self.patch_exports)
        ).result()


def run_corruption_scenario(
    bug: str, n_after: int = 20, seed: int = 0
) -> CorruptionOutcome:
    if bug.startswith("drupal"):
        return _drupal_scenario(bug, n_after, seed)
    if bug.startswith("gallery"):
        return _gallery_scenario(bug, n_after, seed)
    raise ValueError(f"unknown bug {bug!r}")


def _written_rows(run) -> Set[Row]:
    out: Set[Row] = set()
    for query in run.queries:
        if query.is_write:
            out |= set(query.written_row_ids)
    return out


# -- Drupal scenarios -------------------------------------------------------------


def _drupal_scenario(bug: str, n_after: int, seed: int) -> CorruptionOutcome:
    warp = WarpSystem(origin=ORIGIN, seed=seed)
    app = DrupalApp(warp.ttdb, warp.scripts, warp.server)
    app.install()
    for index in range(1, 4):
        app.seed_node(f"Node{index}", f"body of node {index}")

    browser = warp.client("background")
    # Background: votes and comments accumulate on Node1.
    for index in range(5):
        browser.open(
            build_url(
                ORIGIN,
                "/vote.php",
                {"title": "Node1", "voter": f"voter{index}", "value": str(index % 3 + 1)},
            )
        )
        browser.open(
            build_url(
                ORIGIN,
                "/comment.php",
                {"title": "Node1", "author": f"c{index}", "body": f"comment {index}"},
            )
        )

    votes_before = app.votes_for("Node1")
    comments_before = app.comments_for("Node1")

    if bug == "drupal-voting":
        trigger = browser.open(
            build_url(ORIGIN, "/vote.php", {"title": "Node1", "action": "recount"})
        )
        patch_file, patch_exports = "vote.php", make_vote(buggy=False)
        restored = lambda: app.votes_for("Node1") == votes_before
    else:
        trigger = browser.open(
            build_url(
                ORIGIN, "/node_edit.php", {"title": "Node1", "body": "edited body"}
            )
        )
        patch_file, patch_exports = "node_edit.php", make_node_edit(buggy=False)

        def restored() -> bool:
            # Comments restored; the intended body edit preserved.
            node = warp.ttdb.execute(
                "SELECT body FROM nodes WHERE title = 'Node1'"
            ).one()
            return (
                app.comments_for("Node1") == comments_before
                and node["body"] == "edited body"
            )

    buggy_run = warp.graph.run_for_request("background", trigger.visit_id, 1)
    # Ground truth for the baseline: the admin reverts everything the buggy
    # request wrote (corruption and intended effect alike).
    corrupted = _written_rows(buggy_run)

    # After the bug: users keep viewing Node1 (reads of corrupted rows).
    for index in range(n_after):
        viewer = warp.client(f"viewer{index}")
        viewer.open(
            build_url(ORIGIN, "/node.php", {"title": "Node1", "user": f"user{index}"})
        )

    return CorruptionOutcome(
        bug=bug,
        warp=warp,
        app=app,
        buggy_run_ids=[buggy_run.run_id],
        corrupted=corrupted,
        patch_file=patch_file,
        patch_exports=patch_exports,
        verify_restored=restored,
    )


# -- Gallery scenarios -------------------------------------------------------------


def _gallery_scenario(bug: str, n_after: int, seed: int) -> CorruptionOutcome:
    warp = WarpSystem(origin=ORIGIN, seed=seed)
    app = GalleryApp(warp.ttdb, warp.scripts, warp.server)
    app.install()
    n_items = 10
    for index in range(1, n_items + 1):
        app.seed_item(
            f"Photo{index}",
            album="Holiday",
            owner="owner",
            width=1000 + index,
            height=700 + index,
            viewers=("*", "mallory"),
        )

    browser = warp.client("background")
    for index in range(1, n_items + 1):
        browser.open(
            build_url(ORIGIN, "/item.php", {"name": f"Photo{index}", "user": "owner"})
        )

    if bug == "gallery-perms":
        trigger = browser.open(
            build_url(
                ORIGIN, "/perm_edit.php", {"name": "Photo1", "target": "mallory"}
            )
        )
        patch_file, patch_exports = "perm_edit.php", make_perm_edit(buggy=False)

        def restored() -> bool:
            rows = warp.ttdb.execute(
                "SELECT item_name, level FROM perms WHERE user_name = 'mallory'"
            ).rows or []
            by_item = {row["item_name"]: row["level"] for row in rows}
            if by_item.get("Photo1") != "none":
                return False
            return all(
                by_item.get(f"Photo{i}") == "view" for i in range(2, n_items + 1)
            )

    else:  # gallery-resize
        trigger = browser.open(
            build_url(
                ORIGIN,
                "/resize.php",
                {"name": "Photo1", "width": "64", "height": "48"},
            )
        )
        patch_file, patch_exports = "resize.php", make_resize(buggy=False)

        def restored() -> bool:
            item1 = app.item("Photo1")
            if item1["width"] != 64 or item1["height"] != 48:
                return False
            for index in range(2, n_items + 1):
                item = app.item(f"Photo{index}")
                if item["width"] != 1000 + index or item["height"] != 700 + index:
                    return False
            return True

    buggy_run = warp.graph.run_for_request("background", trigger.visit_id, 1)
    corrupted = _written_rows(buggy_run)

    # Post-bug activity: users browse the album (mallory among them for the
    # permissions bug — her denied views are what read the corrupted rows).
    for index in range(n_after):
        who = "mallory" if bug == "gallery-perms" and index % 2 == 0 else f"user{index}"
        viewer = warp.client(f"viewer{index}")
        viewer.open(
            build_url(
                ORIGIN,
                "/item.php",
                {"name": f"Photo{index % n_items + 1}", "user": who},
            )
        )

    return CorruptionOutcome(
        bug=bug,
        warp=warp,
        app=app,
        buggy_run_ids=[buggy_run.run_id],
        corrupted=corrupted,
        patch_file=patch_file,
        patch_exports=patch_exports,
        verify_restored=restored,
    )
