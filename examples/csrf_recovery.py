#!/usr/bin/env python3
"""Login-CSRF recovery: re-attributing hijacked edits (paper §8.2).

A victim logged into the wiki visits a malicious site that silently logs
her browser out and back in under the *attacker's* account (login CSRF,
CVE-2010-1150 class).  Her subsequent edits are recorded under the
attacker's name.  Retroactively patching login.php with the
challenge-token fix makes the forged login fail during replay; WARP then
re-executes her edits under her own restored session, and queues her real
browser's stale cookie for invalidation.

This exercises the subtlest machinery in the paper: DOM-level replay of
her original login regenerates the form submission *with the new hidden
token*, so her legitimate login still succeeds under the patched code.

Run:  python examples/csrf_recovery.py
"""

from repro.apps.wiki import WikiApp, patch_for
from repro.http.message import HttpResponse
from repro.repair.api import PatchSpec
from repro.warp import WarpSystem

WIKI = "http://wiki.test"
EVIL = "http://evil.test"


def main() -> None:
    warp = WarpSystem(origin=WIKI)
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()
    wiki.seed_user("victim", "victim-pw")
    wiki.seed_user("attacker", "attacker-pw")
    wiki.seed_page("TeamPlan", "q3 roadmap", owner="victim", public=True)

    # The attacker's site: one script tag that force-logs the visitor into
    # the attacker's account (the vulnerable login has no CSRF token).
    warp.register_site(
        EVIL,
        lambda request: HttpResponse(
            body=(
                "<html><body><h1>Free kittens!</h1>"
                f"<script>http_post('{WIKI}/login.php',"
                " {'wpName': 'attacker', 'wpPassword': 'attacker-pw'});"
                "</script></body></html>"
            )
        ),
    )

    victim = warp.client("victim-browser")
    victim.open(f"{WIKI}/login.php")
    victim.type_into("input[name=wpName]", "victim")
    victim.type_into("input[name=wpPassword]", "victim-pw")
    victim.submit("#loginform")
    own_session = victim.cookies_for(WIKI)["sess"]
    print(f"victim logged in (session {own_session[:8]}…)")

    victim.open(f"{EVIL}/kittens.html")
    hijacked = victim.cookies_for(WIKI)["sess"]
    print(f"victim visited {EVIL}; session silently swapped to {hijacked[:8]}…")
    assert hijacked != own_session

    # She keeps editing, believing she is herself.
    visit = victim.open(f"{WIKI}/edit.php?title=TeamPlan")
    current = visit.document.select("textarea").value
    victim.type_into("textarea", current + "\nship feature X by friday")
    victim.click("input[name=save]")
    print(
        f"edit recorded under: {wiki.page_editor('TeamPlan')!r} "
        "(should have been 'victim'!)"
    )
    assert wiki.page_editor("TeamPlan") == "attacker"

    # Retroactively patch login.php with the r64677-style login token.
    patch = patch_for("csrf")
    print(f"\nretroactively applying {patch.cve}: {patch.fix}")
    result = warp.repair.submit(PatchSpec(patch.file, exports=patch.build())).result()

    print(f"\nrepaired: {result.ok}, conflicts: {len(result.conflicts)}")
    print(f"TeamPlan text:   {wiki.page_text('TeamPlan')!r}")
    print(f"TeamPlan editor: {wiki.page_editor('TeamPlan')!r}")
    assert "ship feature X by friday" in wiki.page_text("TeamPlan")
    assert wiki.page_editor("TeamPlan") == "victim"
    assert not result.conflicts

    # Her real browser still holds the attacker's cookie; WARP queued it
    # for invalidation, so her next request gets it deleted (§5.3).
    assert "victim-browser" in warp.server.cookie_invalidation
    response = victim.open(f"{WIKI}/index.php?title=TeamPlan").response
    print(f"stale cookie deleted on next contact: "
          f"{response.set_cookies.get('sess', 'kept')}")
    print("\nhijacked edits re-attributed to the victim; forged login erased.")


if __name__ == "__main__":
    main()
