"""Seeded attack-scenario corpus for the detection-to-repair pipeline.

Each :class:`AttackScenario` is a point in a deterministic grid of
attack class × application shape × tenant shape.  :func:`stage` builds a
live WARP deployment with detection enabled, runs benign traffic, mounts
the attack, and emits machine-checkable ground truth: which visits are
the attacker's, what the corrupted state looks like, and what the
expected-clean final state is.  :func:`repair_via_incidents` then drives
recovery purely through the front-line pipeline — the incidents the
detector opened, their blast-radius previews, and ``POST
/warp/admin/incidents/<id>/repair`` — and the ``verify_*`` helpers check
the deployment recovered *exactly*.

Attack classes (≥6, per the SQL-injection taxonomy plus the paper's
session/ACL chains):

``tautology``       ``' OR 'x'='x`` through the §8.5 injection sink —
                    an information leak, no state corruption.
``union``           ``UNION SELECT`` exfiltration attempt; the mini-SQL
                    dialect rejects it (HTTP 500) but the visit is still
                    recorded, flagged, and cancellable.
``piggyback``       stacked-statement payload appending a marker to
                    every wiki page (the paper's §8.5 attack shape).
``second_order``    stored injection: the payload is *planted* through
                    an ordinary parameter of ``export.php`` and detonates
                    later when a benign visit reads it back into a raw
                    query.  Detection fires at planting time; cancelling
                    the planting visit re-executes the benign trigger
                    cleanly.
``session_theft``   a foreign browser replays a victim's session cookie
                    and defaces their private page.
``csrf_login``      a lure site silently re-logs the victim in as the
                    attacker (CVE-2010-1150 class); the victim's later
                    edits land under the attacker's account.
``acl_escalation``  chain: steal the admin session, self-grant access,
                    exploit the grant.  Cancelling the grant visit makes
                    the exploit re-execute as forbidden.

Determinism: :func:`generate_corpus` draws every scenario parameter from
one ``random.Random(seed)``, so the same seed always yields the same
scenario list (checked by CI's ``detect-corpus`` job).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.drupal.app import DrupalApp
from repro.apps.gallery.app import GalleryApp
from repro.apps.wiki import WikiApp
from repro.appserver.context import htmlspecialchars
from repro.http.message import HttpRequest, HttpResponse, build_url
from repro.repair.jobs import TERMINAL_STATUSES
from repro.warp import WarpSystem

WIKI = "http://wiki.test"
ATTACKER = "http://attacker.test"

ATTACK_CLASSES = (
    "tautology",
    "union",
    "piggyback",
    "second_order",
    "session_theft",
    "csrf_login",
    "acl_escalation",
)

#: The classes the BENCH_detect recall floor (≥0.9) applies to.
INJECTION_CLASSES = ("tautology", "union", "piggyback", "second_order")

APP_SHAPES = ("wiki", "wiki+forum", "wiki+gallery")
TENANT_SHAPES = ("small", "medium", "tenants")

#: Per class, at least one of these reasons must appear on the incidents
#: covering the attack visits.
EXPECTED_REASONS = {
    "tautology": ("injection:tautology",),
    "union": ("injection:union",),
    "piggyback": ("injection:piggyback",),
    "second_order": ("injection:piggyback",),
    "session_theft": ("session:theft",),
    "csrf_login": ("session:csrf-login",),
    "acl_escalation": ("acl:self-grant",),
}

#: Classes whose attack leaves the scenario marker in database state
#: (so recovery can be checked as marker-absence on top of probe equality).
_MARKER_CLASSES = ("piggyback", "second_order", "session_theft", "acl_escalation")


# ---------------------------------------------------------------------------
# scenario grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttackScenario:
    """One corpus entry — everything needed to restage it exactly."""

    name: str
    attack_class: str
    app_shape: str
    tenant_shape: str
    seed: int
    marker: str

    def describe(self) -> dict:
        return {
            "name": self.name,
            "attack_class": self.attack_class,
            "app_shape": self.app_shape,
            "tenant_shape": self.tenant_shape,
            "seed": self.seed,
            "marker": self.marker,
        }


def generate_corpus(
    seed: int = 0,
    classes: Tuple[str, ...] = ATTACK_CLASSES,
    app_shapes: Tuple[str, ...] = APP_SHAPES,
) -> List[AttackScenario]:
    """The deterministic scenario grid: every class on every app shape,
    tenant shape and per-scenario seeds drawn from one seeded stream."""
    rng = Random(seed)
    scenarios = []
    for attack_class in classes:
        if attack_class not in ATTACK_CLASSES:
            raise ValueError(f"unknown attack class {attack_class!r}")
        for app_shape in app_shapes:
            tenant_shape = rng.choice(TENANT_SHAPES)
            scenario_seed = rng.randrange(1 << 16)
            marker = f"mark{rng.randrange(1 << 20):05x}"
            scenarios.append(
                AttackScenario(
                    name=(
                        f"{attack_class}-{app_shape}-{tenant_shape}"
                        f"-s{scenario_seed}"
                    ),
                    attack_class=attack_class,
                    app_shape=app_shape,
                    tenant_shape=tenant_shape,
                    seed=scenario_seed,
                    marker=marker,
                )
            )
    return scenarios


def describe_corpus(seed: int = 0) -> List[dict]:
    """JSON-safe corpus description (the CI determinism check compares
    two independent calls of this)."""
    return [scenario.describe() for scenario in generate_corpus(seed)]


# ---------------------------------------------------------------------------
# the second-order sink
# ---------------------------------------------------------------------------

EXPORT_SCRIPT = "export.php"
EXPORT_ROUTE = "/export.php"
EXPORT_FILTER_KEY = "export:lang-filter"


def make_export():
    """``export.php``: stores a language filter (POST) and later splices
    it *unescaped* into a raw query (GET) — the second-order stored
    injection sink.  The planting POST carries the payload through an
    ordinary parameter, which is where the front-line detector sees it."""

    def handle(ctx) -> None:
        if ctx.request.method == "POST":
            ctx.query(
                "DELETE FROM objectcache WHERE cache_key = ?",
                (EXPORT_FILTER_KEY,),
            )
            ctx.query(
                "INSERT INTO objectcache (cache_key, value) VALUES (?, ?)",
                (EXPORT_FILTER_KEY, ctx.param("filter", "en")),
            )
            ctx.echo("<html><body><p id='saved'>Export filter saved.</p></body></html>")
            return
        row = ctx.query_one(
            "SELECT value FROM objectcache WHERE cache_key = ?",
            (EXPORT_FILTER_KEY,),
        )
        filt = row["value"] if row else "en"
        # Vulnerable on purpose: the *stored* value is concatenated raw.
        results = ctx.query_raw(
            "SELECT value FROM i18n WHERE lang = '" + filt + "'"
        )
        ctx.echo("<html><body><ul id='export'>")
        for item in results[0] if results else []:
            ctx.echo(f"<li>{htmlspecialchars(item['value'])}</li>")
        ctx.echo("</ul></body></html>")

    return {"handle": handle}


def install_export_surface(warp: WarpSystem) -> None:
    """Register the second-order sink (code only — call again after
    ``WarpSystem.load``, like every app's ``register_code``)."""
    warp.scripts.register(EXPORT_SCRIPT, make_export())
    warp.server.route(EXPORT_ROUTE, EXPORT_SCRIPT)


# ---------------------------------------------------------------------------
# ground truth + staged deployment
# ---------------------------------------------------------------------------


@dataclass
class GroundTruth:
    """Machine-checkable facts a staged scenario emits."""

    attacker_client: str
    #: Every (client_id, visit_id) the detector must have an incident for.
    attack_visits: List[Tuple[str, int]]
    marker: str
    #: True when the marker must be present in the corrupted state and
    #: absent after exact recovery.
    marker_in_state: bool
    expected_reasons: Tuple[str, ...]
    #: probe label -> expected value after exact recovery.
    clean: Dict[str, object] = field(default_factory=dict)
    #: probe label -> observed value right after the attack landed.
    corrupt: Dict[str, object] = field(default_factory=dict)
    #: class-specific attack-landed evidence flags; all must be truthy.
    evidence: Dict[str, object] = field(default_factory=dict)


class StagedAttack:
    """A live, attacked deployment plus its ground truth."""

    def __init__(
        self,
        scenario: AttackScenario,
        warp: WarpSystem,
        wiki: WikiApp,
        forum: Optional[DrupalApp],
        gallery: Optional[GalleryApp],
        users: List[str],
    ) -> None:
        self.scenario = scenario
        self.warp = warp
        self.wiki = wiki
        self.forum = forum
        self.gallery = gallery
        self.users = users
        self.marker = scenario.marker
        self.probes: Dict[str, Callable[[], object]] = {}
        self.truth: Optional[GroundTruth] = None
        self._browsers: Dict[str, object] = {}

    # -- browser plumbing ----------------------------------------------------

    def browser(self, user: str):
        key = f"{user}-browser"
        if key not in self._browsers:
            self._browsers[key] = self.warp.client(key)
        return self._browsers[key]

    def client_id(self, user: str) -> str:
        return f"{user}-browser"

    def login(self, user: str):
        browser = self.browser(user)
        browser.open(f"{WIKI}/login.php")
        browser.type_into("input[name=wpName]", user)
        browser.type_into("input[name=wpPassword]", f"pw-{user}")
        browser.submit("#loginform")
        return browser

    def read(self, user: str, title: str) -> None:
        self.browser(user).open(f"{WIKI}/index.php?title={title}")

    def edit(self, user: str, title: str, text: str):
        browser = self.browser(user)
        browser.open(f"{WIKI}/edit.php?title={title}")
        browser.type_into("textarea", text)
        return browser.click("input[name=save]")

    def append(self, user: str, title: str, extra: str):
        browser = self.browser(user)
        visit = browser.open(f"{WIKI}/edit.php?title={title}")
        textarea = visit.document.select("textarea")
        current = textarea.value if textarea is not None else ""
        browser.type_into("textarea", current + extra)
        return browser.click("input[name=save]")

    # -- state probes --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {label: probe() for label, probe in self.probes.items()}

    # -- incident views ------------------------------------------------------

    def incidents(self) -> List[dict]:
        return self.warp.incidents.list() if self.warp.incidents else []

    def _incident_keys(self) -> Dict[Tuple[str, str], dict]:
        keyed = {}
        for entry in self.incidents():
            key = (str(entry.get("client_id")), str(entry.get("visit_id")))
            keyed[key] = entry
        return keyed

    # -- verification --------------------------------------------------------

    def verify_detected(self) -> List[str]:
        """The detector opened an incident for every attack visit, with
        at least one of the class's expected reasons among them."""
        truth = self.truth
        errors = []
        keyed = self._incident_keys()
        reasons: set = set()
        for client_id, visit_id in truth.attack_visits:
            entry = keyed.get((str(client_id), str(visit_id)))
            if entry is None:
                errors.append(
                    f"no incident for attack visit ({client_id}, {visit_id})"
                )
            else:
                reasons.update(entry.get("reasons", ()))
        if not any(want in reasons for want in truth.expected_reasons):
            errors.append(
                f"none of {truth.expected_reasons} among reasons {sorted(reasons)}"
            )
        return errors

    def verify_attacked(self) -> List[str]:
        """The attack actually landed (corrupt state / evidence flags)."""
        truth = self.truth
        errors = []
        if truth.marker_in_state and truth.marker not in json.dumps(
            truth.corrupt, default=str
        ):
            errors.append(f"marker {truth.marker!r} missing from corrupt state")
        for flag, value in truth.evidence.items():
            if not value:
                errors.append(f"attack evidence {flag!r} is falsy: {value!r}")
        return errors

    def verify_recovered(self) -> List[str]:
        """The deployment is back to the expected-clean final state."""
        truth = self.truth
        errors = []
        now = self.snapshot()
        for label, want in truth.clean.items():
            got = now.get(label)
            if got != want:
                errors.append(f"{label}: expected {want!r}, got {got!r}")
        if truth.marker_in_state and truth.marker in json.dumps(now, default=str):
            errors.append(f"marker {truth.marker!r} still present after repair")
        return errors


# ---------------------------------------------------------------------------
# staging
# ---------------------------------------------------------------------------


def _users_for(tenant_shape: str) -> List[str]:
    if tenant_shape == "small":
        return ["user1", "user2"]
    if tenant_shape == "medium":
        return [f"user{i}" for i in range(1, 5)]
    if tenant_shape == "tenants":
        return [f"t{t}_user{i}" for t in range(2) for i in range(1, 3)]
    raise ValueError(f"unknown tenant shape {tenant_shape!r}")


def _tenant_page(user: str) -> str:
    return f"tenant{user[1]}_wiki"


def stage(scenario: AttackScenario, **warp_kwargs) -> StagedAttack:
    """Build the deployment, run benign traffic, mount the attack, and
    fill in the ground truth.  Returns the live staged deployment."""
    warp = WarpSystem(origin=WIKI, seed=scenario.seed, **warp_kwargs)
    warp.enable_detection()
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    wiki.install()

    forum = gallery = None
    if scenario.app_shape == "wiki+forum":
        forum = DrupalApp(warp.ttdb, warp.scripts, warp.server)
        forum.install(buggy_vote=False, buggy_edit=False)
        forum.seed_node("News", "forum news", author="admin")
    elif scenario.app_shape == "wiki+gallery":
        gallery = GalleryApp(warp.ttdb, warp.scripts, warp.server)
        gallery.install(buggy_perms=False, buggy_resize=False)
        gallery.seed_item("sunset", "album1", "admin")
    if scenario.attack_class == "second_order":
        install_export_surface(warp)

    users = _users_for(scenario.tenant_shape)
    staged = StagedAttack(scenario, warp, wiki, forum, gallery, users)

    # Seed accounts and pages.
    wiki.seed_user("admin", "pw-admin", admin=True)
    wiki.seed_user("attacker", "pw-attacker")
    pages = ["Main_Page", "Projects", "Secret"]
    for user in users:
        wiki.seed_user(user, f"pw-{user}")
        wiki.seed_page(
            f"{user}_notes", f"notes of {user}", owner=user, public=False
        )
        pages.append(f"{user}_notes")
    wiki.seed_page("Main_Page", "welcome to the wiki", owner="admin")
    wiki.seed_page("Projects", "project index", owner="admin")
    wiki.seed_page("Secret", "restricted plans", owner="admin", public=False)
    if scenario.tenant_shape == "tenants":
        for tenant in range(2):
            title = f"tenant{tenant}_wiki"
            wiki.seed_page(title, f"wiki of tenant {tenant}", owner="admin")
            pages.append(title)

    # Probes over everything the attacks may touch.
    for title in pages:
        staged.probes[f"page:{title}"] = (
            lambda t=title: wiki.page_text(t)
        )
    staged.probes["editor:Projects"] = lambda: wiki.page_editor("Projects")
    staged.probes["acl:Secret"] = lambda: wiki.acl_users("Secret")
    if forum is not None:
        staged.probes["forum:comments"] = lambda: [
            row["body"] for row in forum.comments_for("News")
        ]
        staged.probes["forum:votes"] = lambda: sorted(
            (row["voter"], row["value"]) for row in forum.votes_for("News")
        )
    if gallery is not None:
        staged.probes["gallery:sunset"] = lambda: (
            lambda row: (row["width"], row["height"], row["view_count"])
            if row
            else None
        )(gallery.item("sunset"))

    _benign_traffic(staged)
    pre = staged.snapshot()

    stager = _STAGERS[scenario.attack_class]
    attack_visits, clean_overrides, evidence = stager(staged, pre)

    staged.truth = GroundTruth(
        attacker_client=attack_visits[0][0] if attack_visits else "",
        attack_visits=attack_visits,
        marker=scenario.marker,
        marker_in_state=scenario.attack_class in _MARKER_CLASSES,
        expected_reasons=EXPECTED_REASONS[scenario.attack_class],
        clean={**pre, **clean_overrides},
        corrupt=staged.snapshot(),
        evidence=evidence,
    )
    return staged


def _benign_traffic(staged: StagedAttack) -> None:
    """Legitimate activity the attack must be disentangled from."""
    for user in staged.users:
        staged.login(user)
        staged.read(user, "Main_Page")
    if staged.scenario.tenant_shape == "tenants":
        for user in staged.users:
            staged.append(user, _tenant_page(user), f"\npre-{user}")
    else:
        user = staged.users[0]
        staged.append(user, f"{user}_notes", f"\npre-{user}")
    if staged.forum is not None:
        user = staged.users[-1]
        browser = staged.browser(user)
        browser.open(
            f"{WIKI}/comment.php",
            method="POST",
            params={"title": "News", "author": user, "body": f"benign-{user}"},
        )
        browser.open(
            f"{WIKI}/vote.php",
            method="POST",
            params={"title": "News", "voter": user, "value": "1"},
        )
    if staged.gallery is not None:
        user = staged.users[-1]
        staged.browser(user).open(
            build_url(WIKI, "/item.php", {"name": "sunset", "user": user})
        )


# -- per-class attack stagers -----------------------------------------------
# Each returns (attack_visits, clean_overrides, evidence).

TAUTOLOGY_PAYLOAD = "xx' OR 'x'='x"
UNION_PAYLOAD = "xx' UNION SELECT password FROM users --"


def _piggyback_payload(marker: str) -> str:
    return f"en'; UPDATE pagecontent SET old_text = old_text || '{marker}'; --"


def _stage_tautology(staged: StagedAttack, pre: Dict[str, object]):
    attacker = staged.login("attacker")
    visit = attacker.open(
        build_url(WIKI, "/special_maintenance.php", {"thelang": TAUTOLOGY_PAYLOAD})
    )
    body = visit.response.body if visit.response else ""
    # The tautology matches every i18n row — the seeded 'English' value
    # leaking into the listing is the attack-landed proof.
    evidence = {"leaked_i18n": "English" in body}
    return [(staged.client_id("attacker"), visit.visit_id)], {}, evidence


def _stage_union(staged: StagedAttack, pre: Dict[str, object]):
    attacker = staged.login("attacker")
    visit = attacker.open(
        build_url(WIKI, "/special_maintenance.php", {"thelang": UNION_PAYLOAD})
    )
    status = visit.response.status if visit.response else 0
    # The dialect rejects UNION, so the probe is the server-side error;
    # the visit is still recorded and cancellable.
    evidence = {"rejected_with_500": status == 500}
    return [(staged.client_id("attacker"), visit.visit_id)], {}, evidence


def _stage_piggyback(staged: StagedAttack, pre: Dict[str, object]):
    attacker = staged.login("attacker")
    visit = attacker.open(
        build_url(
            WIKI,
            "/special_maintenance.php",
            {"thelang": _piggyback_payload(staged.marker)},
        )
    )
    # Post-attack entanglement: a victim keeps editing their (now
    # corrupted) page; exact recovery must keep this edit, lose the marker.
    victim = staged.users[0]
    extra = f"entangled-{victim}"
    staged.append(victim, f"{victim}_notes", "\n" + extra)
    clean = {
        f"page:{victim}_notes": f"{pre[f'page:{victim}_notes']}\n{extra}"
    }
    return [(staged.client_id("attacker"), visit.visit_id)], clean, {}


def _stage_second_order(staged: StagedAttack, pre: Dict[str, object]):
    attacker = staged.login("attacker")
    plant = attacker.open(
        f"{WIKI}{EXPORT_ROUTE}",
        method="POST",
        params={"filter": _piggyback_payload(staged.marker)},
    )
    # A benign visit triggers the stored payload later.
    victim = staged.users[0]
    trigger = staged.browser(victim).open(f"{WIKI}{EXPORT_ROUTE}")
    evidence = {"trigger_ok": trigger.response.status == 200}
    return [(staged.client_id("attacker"), plant.visit_id)], {}, evidence


def _stage_session_theft(staged: StagedAttack, pre: Dict[str, object]):
    victim = staged.users[0]
    evil = staged.warp.client("evil-browser")
    evil.load_jar(staged.browser(victim).jar_snapshot())
    page = f"{victim}_notes"
    form_visit = evil.open(f"{WIKI}/edit.php?title={page}")
    evil.type_into("textarea", f"stolen-{staged.marker}")
    save_visit = evil.click("input[name=save]")
    # The victim keeps working on top of the defacement.
    extra = f"after-{victim}"
    staged.append(victim, page, "\n" + extra)
    clean = {f"page:{page}": f"{pre[f'page:{page}']}\n{extra}"}
    visits = [("evil-browser", form_visit.visit_id)]
    if save_visit is not None and save_visit.visit_id != form_visit.visit_id:
        visits.append(("evil-browser", save_visit.visit_id))
    return visits, clean, {}


def _stage_csrf_login(staged: StagedAttack, pre: Dict[str, object]):
    victim = staged.users[0]

    def lure_site(request) -> HttpResponse:
        body = (
            "<html><body><h1>Win a prize!</h1>"
            "<script>"
            f"http_post('{WIKI}/login.php',"
            " {'wpName': 'attacker', 'wpPassword': 'pw-attacker'});"
            "</script></body></html>"
        )
        return HttpResponse(body=body)

    staged.warp.register_site(ATTACKER, lure_site)
    lure = staged.browser(victim).open(f"{ATTACKER}/lure.html")
    # The victim edits on, silently bound to the attacker's account.
    extra = f"csrf-after-{victim}"
    staged.append(victim, "Projects", "\n" + extra)
    # Cancelling the forged login rolls back everything made under the
    # attacker's authority, including this edit (the §8.2 patch-based
    # repair would instead re-attribute it; that path has its own
    # tier-1 coverage).  Expected-clean is therefore the pre-attack
    # state, with the victim queued for cookie invalidation.
    evidence = {"edit_misattributed": staged.wiki.page_editor("Projects") == "attacker"}
    return [(staged.client_id(victim), lure.visit_id)], {}, evidence


def _stage_acl_escalation(staged: StagedAttack, pre: Dict[str, object]):
    attacker = staged.login("attacker")
    admin = staged.login("admin")
    # The admin browses once after logging in, so the detector's session
    # rule binds the admin token to the admin's own browser — the later
    # presentation from the attacker's browser is then provably foreign.
    admin.open(f"{WIKI}/index.php?title=Main_Page")
    own_jar = attacker.jar_snapshot()
    attacker.load_jar(admin.jar_snapshot())
    form_visit = attacker.open(f"{WIKI}/acl.php")
    attacker.type_into("input[name=title]", "Secret")
    attacker.type_into("input[name=user]", "attacker")
    grant_visit = attacker.click("input[name=apply]")
    attacker.load_jar(own_jar)
    # Exploit the stolen grant with the attacker's own session.
    staged.edit("attacker", "Secret", f"pwned-{staged.marker}")
    visits = [(staged.client_id("attacker"), form_visit.visit_id)]
    if grant_visit is not None and grant_visit.visit_id != form_visit.visit_id:
        visits.append((staged.client_id("attacker"), grant_visit.visit_id))
    evidence = {
        "grant_landed": "attacker" in staged.wiki.acl_users("Secret"),
    }
    return visits, {}, evidence


_STAGERS = {
    "tautology": _stage_tautology,
    "union": _stage_union,
    "piggyback": _stage_piggyback,
    "second_order": _stage_second_order,
    "session_theft": _stage_session_theft,
    "csrf_login": _stage_csrf_login,
    "acl_escalation": _stage_acl_escalation,
}


# ---------------------------------------------------------------------------
# the recovery drive: incident -> preview -> repair job
# ---------------------------------------------------------------------------


def _admin(warp: WarpSystem, method: str, path: str, **params) -> HttpResponse:
    return warp.server.handle(HttpRequest(method, path, params=params))


def repair_via_incidents(
    staged: StagedAttack, settle_tries: int = 1000
) -> Dict[str, dict]:
    """Recover purely through the admin pipeline: refresh previews, then
    ``POST /warp/admin/incidents/<id>/repair`` for every open incident
    (in order), waiting for each job before submitting the next."""
    warp = staged.warp
    listing = json.loads(
        _admin(warp, "GET", "/warp/admin/incidents", refresh="1", force="1").body
    )
    results: Dict[str, dict] = {}
    for entry in listing["incidents"]:
        if entry["status"] != "open":
            continue
        incident_id = entry["incident_id"]
        response = _admin(
            warp, "POST", f"/warp/admin/incidents/{incident_id}/repair"
        )
        if response.status != 202:
            results[incident_id] = {
                "error": f"repair refused: {response.status} {response.body}"
            }
            continue
        job_id = json.loads(response.body)["job_id"]
        job_status = "timeout"
        for _ in range(settle_tries):
            doc = json.loads(
                _admin(warp, "GET", f"/warp/admin/repair/{job_id}").body
            )
            if doc["status"] in TERMINAL_STATUSES:
                job_status = doc["status"]
                break
            time.sleep(0.01)
        final = json.loads(
            _admin(warp, "GET", f"/warp/admin/incidents/{incident_id}").body
        )
        results[incident_id] = {
            "job_id": job_id,
            "job_status": job_status,
            "incident_status": final["status"],
            "preview": entry.get("preview"),
        }
    return results


def run_scenario_end_to_end(
    scenario: AttackScenario, **warp_kwargs
) -> Dict[str, object]:
    """Stage, verify detection and corruption, repair through the
    incident pipeline, verify exact recovery.  Returns a report dict
    whose ``errors`` list is empty on full success."""
    staged = stage(scenario, **warp_kwargs)
    errors: List[str] = []
    errors += [f"detect: {e}" for e in staged.verify_detected()]
    errors += [f"attack: {e}" for e in staged.verify_attacked()]
    repairs = repair_via_incidents(staged)
    for incident_id, outcome in repairs.items():
        if outcome.get("error"):
            errors.append(f"repair {incident_id}: {outcome['error']}")
        elif outcome.get("job_status") != "done":
            errors.append(
                f"repair {incident_id}: job ended {outcome.get('job_status')}"
            )
        elif outcome.get("incident_status") != "resolved":
            errors.append(
                f"repair {incident_id}: incident left "
                f"{outcome.get('incident_status')}"
            )
    errors += [f"recover: {e}" for e in staged.verify_recovered()]
    report = {
        "scenario": scenario.describe(),
        "incidents": len(staged.incidents()),
        "repairs": repairs,
        "errors": errors,
    }
    return report
