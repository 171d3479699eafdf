#!/usr/bin/env python3
"""Quickstart: deploy a WARP-protected wiki, attack it, repair it.

Walks the full WARP workflow from the paper's introduction:

1. stand up a wiki behind WARP (time-travel DB + logged server),
2. let legitimate users work,
3. let an attacker exploit a stored-XSS bug that hijacks a victim's
   browser into vandalising her page,
4. retroactively apply the security patch, and
5. watch WARP undo the attack while keeping everyone's real edits.

Run:  python examples/quickstart.py
"""

from repro.apps.wiki import WikiApp, patch_for
from repro.repair.api import PatchSpec
from repro.warp import WarpSystem

WIKI = "http://wiki.test"


def main() -> None:
    # -- 1. deploy ----------------------------------------------------------
    warp = WarpSystem(origin=WIKI)
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()
    wiki.seed_user("alice", "alice-pw")
    wiki.seed_user("attacker", "evil-pw")
    wiki.seed_page("alice_notes", "alice's research notes", owner="alice", public=False)
    print("deployed wiki with WARP recording enabled")

    # -- 2. legitimate activity ----------------------------------------------
    alice = warp.client("alice-laptop")
    alice.open(f"{WIKI}/login.php")
    alice.type_into("input[name=wpName]", "alice")
    alice.type_into("input[name=wpPassword]", "alice-pw")
    alice.submit("#loginform")
    print("alice logged in")

    # -- 3. the attack --------------------------------------------------------
    evil = warp.client("attacker-box")
    evil.open(f"{WIKI}/login.php")
    evil.type_into("input[name=wpName]", "attacker")
    evil.type_into("input[name=wpPassword]", "evil-pw")
    evil.submit("#loginform")
    evil.open(f"{WIKI}/special_block.php?ip=6.6.6.6")
    evil.type_into(
        "input[name=reason]",
        "<script>var u = doc_text('#username');"
        "http_post('/edit.php', {'title': u + '_notes', 'append': ' HACKED'});"
        "</script>",
    )
    evil.click("input[name=report]")
    print("attacker planted a stored-XSS payload on the block page")

    # Alice visits the infected page; the payload runs in *her* browser and
    # vandalises her page with her privileges.
    alice.open(f"{WIKI}/special_block.php?ip=6.6.6.6")
    print(f"after the attack, alice_notes = {wiki.page_text('alice_notes')!r}")

    # Alice keeps working, editing the now-vandalised page.
    visit = alice.open(f"{WIKI}/edit.php?title=alice_notes")
    current = visit.document.select("textarea").value
    alice.type_into("textarea", current + "\nmeeting notes from tuesday")
    alice.click("input[name=save]")
    print(f"after alice's edit,   alice_notes = {wiki.page_text('alice_notes')!r}")

    # -- 4. retroactive patching ----------------------------------------------
    patch = patch_for("stored-xss")
    print(f"\nadministrator retroactively applies {patch.cve}: {patch.fix}")
    result = warp.repair.submit(PatchSpec(patch.file, exports=patch.build())).result()

    # -- 5. verify ---------------------------------------------------------------
    repaired = wiki.page_text("alice_notes")
    print(f"\nafter repair,         alice_notes = {repaired!r}")
    print(f"repair ok: {result.ok}, conflicts: {len(result.conflicts)}")
    stats = result.stats
    print(
        f"re-executed {stats.visits_reexecuted} page visits, "
        f"{stats.runs_reexecuted} app runs, {stats.queries_reexecuted} queries "
        f"out of {stats.total_visits}/{stats.total_runs}/{stats.total_queries} recorded"
    )
    assert "HACKED" not in repaired, "attack must be undone"
    assert "meeting notes from tuesday" in repaired, "alice's edit must survive"
    print("\nattack undone, legitimate edit preserved — WARP works.")


if __name__ == "__main__":
    main()
