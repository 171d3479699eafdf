"""The six attack scenarios of the paper's evaluation (§8.2, Table 2/3).

Each scenario purposely creates significant interaction between the
attacker's changes and legitimate users — victims edit attacked pages,
non-victims read and edit pages the attack may have touched — to stress
WARP's disentangling, exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.wiki import WikiApp, patch_for
from repro.browser.browser import Browser
from repro.http.message import HttpResponse, build_url
from repro.repair.api import CancelClientSpec, CancelVisitSpec, PatchSpec
from repro.repair.replay import ReplayConfig
from repro.warp import WarpSystem

WIKI = "http://wiki.test"
ATTACKER = "http://attacker.test"

ATTACK_TYPES = (
    "reflected-xss",
    "stored-xss",
    "csrf",
    "clickjacking",
    "sql-injection",
    "acl-error",
)

#: The text the XSS payloads append to the victim's notes page.
XSS_APPEND = "\nxss-attack-line"

#: jsmini payload: find out who is logged in, append to their notes page.
XSS_PAYLOAD = (
    "var u = doc_text('#username');"
    "if (len(u) > 0) {"
    f" http_post('{WIKI}/edit.php', {{'title': u + '_notes', 'append': '{XSS_APPEND[1:]}'}});"
    "}"
)


class WikiDeployment:
    """A WARP-protected wiki with N seeded users and their pages."""

    def __init__(
        self,
        n_users: int = 10,
        seed: int = 0,
        enabled: bool = True,
        replay_config: Optional[ReplayConfig] = None,
        **warp_kwargs,
    ) -> None:
        self.warp = WarpSystem(
            origin=WIKI,
            seed=seed,
            enabled=enabled,
            replay_config=replay_config,
            **warp_kwargs,
        )
        #: "No WARP" deployments also drop the client-side extension.
        self.default_extension = enabled
        self.wiki = WikiApp(self.warp.ttdb, self.warp.scripts, self.warp.server)
        self.wiki.install()
        self.n_users = n_users
        self.users = [f"user{i}" for i in range(1, n_users + 1)]
        self.browsers: Dict[str, Browser] = {}

        self.wiki.seed_user("admin", "pw-admin", admin=True)
        self.wiki.seed_user("attacker", "pw-attacker")
        for name in self.users:
            self.wiki.seed_user(name, f"pw-{name}")
            # Private notes page, only the owner may edit.
            self.wiki.seed_page(
                f"{name}_notes",
                f"notes of {name}\nline two",
                owner=name,
                public=False,
            )
        self.wiki.seed_page("Main_Page", "welcome to the wiki", owner="admin")
        self.wiki.seed_page("Projects", "project index\nalpha\nbeta", owner="admin")

    # -- browser/user plumbing ---------------------------------------------------

    def browser(
        self,
        user: str,
        extension: Optional[bool] = None,
        upload: bool = True,
    ) -> Browser:
        key = f"{user}-browser"
        if key not in self.browsers:
            use_ext = self.default_extension if extension is None else extension
            self.browsers[key] = self.warp.client(
                key, extension=use_ext, upload=upload
            )
        return self.browsers[key]

    def client_id(self, user: str) -> str:
        return f"{user}-browser"

    def login(self, user: str, password: Optional[str] = None) -> Browser:
        browser = self.browser(user)
        browser.open(f"{WIKI}/login.php")
        browser.type_into("input[name=wpName]", user)
        browser.type_into("input[name=wpPassword]", password or f"pw-{user}")
        browser.submit("#loginform")
        return browser

    def read_page(self, user: str, title: str) -> None:
        self.browser(user).open(f"{WIKI}/index.php?title={title}")

    def edit_page(self, user: str, title: str, text: str) -> None:
        browser = self.browser(user)
        browser.open(f"{WIKI}/edit.php?title={title}")
        browser.type_into("textarea", text)
        browser.click("input[name=save]")

    def append_to_page(self, user: str, title: str, extra: str) -> None:
        """Edit via the form, preserving existing content (types the full
        new value like a real user whose textarea was prefilled)."""
        browser = self.browser(user)
        visit = browser.open(f"{WIKI}/edit.php?title={title}")
        textarea = visit.document.select("textarea")
        current = textarea.value if textarea is not None else ""
        browser.type_into("textarea", current + extra)
        browser.click("input[name=save]")

    def patch(self, attack_type: str):
        spec = patch_for(attack_type)
        return self.warp.repair.submit(
            PatchSpec(spec.file, exports=spec.build())
        ).result()


@dataclass
class ScenarioOutcome:
    """Everything a test or benchmark needs after staging a scenario."""

    deployment: WikiDeployment
    attack_type: str
    victims: List[str]
    bystanders: List[str]
    #: user -> the extra text they legitimately appended post-attack.
    legit_appends: Dict[str, str] = field(default_factory=dict)
    #: For the ACL scenario: the admin's offending visit id.
    acl_grant_visit: Optional[int] = None
    admin_client: Optional[str] = None
    #: Wall-clock seconds the original (staged) execution took — the
    #: "original execution time" column of Tables 7/8.
    original_exec_seconds: float = 0.0

    @property
    def warp(self):
        return self.deployment.warp

    @property
    def wiki(self):
        return self.deployment.wiki

    def repair(self):
        if self.attack_type == "acl-error":
            return self.warp.repair.submit(
                CancelVisitSpec(self.admin_client, self.acl_grant_visit)
            ).result()
        return self.deployment.patch(self.attack_type)


def run_scenario(
    attack_type: str,
    n_users: int = 10,
    n_victims: int = 3,
    victims_at: str = "end",
    seed: int = 0,
    replay_config: Optional[ReplayConfig] = None,
    victim_upload: bool = True,
    **warp_kwargs,
) -> ScenarioOutcome:
    """Stage one §8.2 scenario and return the outcome handle (unrepaired).
    ``warp_kwargs`` go to the deployment's :class:`WarpSystem` (e.g.
    ``wal_path``/``durability`` to stage the scenario over a WAL)."""
    import time as _time

    if attack_type not in ATTACK_TYPES:
        raise ValueError(f"unknown attack type {attack_type!r}")
    started = _time.perf_counter()
    deployment = WikiDeployment(
        n_users=n_users, seed=seed, replay_config=replay_config, **warp_kwargs
    )
    if attack_type == "acl-error":
        outcome = _run_acl_scenario(deployment, n_users)
        outcome.original_exec_seconds = _time.perf_counter() - started
        return outcome

    victims = deployment.users[:n_victims]
    bystanders = deployment.users[n_victims:]
    outcome = ScenarioOutcome(
        deployment=deployment,
        attack_type=attack_type,
        victims=victims,
        bystanders=bystanders,
    )

    # Phase 1: everyone logs in and browses a little.
    for user in deployment.users:
        if not victim_upload and user in victims:
            deployment.browser(user, upload=False)
        deployment.login(user)
        deployment.read_page(user, "Main_Page")

    # Phase 2: the attack is planted.
    _plant_attack(deployment, attack_type)

    if victims_at == "start":
        _spring_attack(deployment, attack_type, victims)

    # Phase 3: background activity from bystanders.
    for index, user in enumerate(bystanders):
        deployment.read_page(user, "Projects")
        if index % 2 == 0:
            deployment.append_to_page(user, f"{user}_notes", f"\nbystander-{user}")
            outcome.legit_appends[user] = f"bystander-{user}"

    if victims_at != "start":
        _spring_attack(deployment, attack_type, victims)

    # Phase 4: victims keep working on their (now attacked) pages, and some
    # bystanders touch shared pages.  CSRF victims are silently logged in
    # as the attacker, so their private pages would reject them — their
    # post-attack activity is the Projects edits staged above.
    if attack_type == "csrf":
        for user in victims:
            outcome.legit_appends[user] = f"csrf-edit-{user}"
    elif attack_type != "clickjacking":
        for user in victims:
            deployment.append_to_page(user, f"{user}_notes", f"\nvictim-{user}")
            outcome.legit_appends[user] = f"victim-{user}"
    for user in bystanders[:2]:
        deployment.read_page(user, "Main_Page")

    outcome.original_exec_seconds = _time.perf_counter() - started
    return outcome


@dataclass
class MultiTenantOutcome:
    """Handle for a staged multi-tenant attack (unrepaired)."""

    deployment: WikiDeployment
    n_tenants: int
    attacked: List[int]
    #: tenant index -> that tenant's users.
    tenant_users: Dict[int, List[str]]
    #: user -> the legit text they appended after the attack.
    legit_appends: Dict[str, str] = field(default_factory=dict)
    attacker_client: str = ""
    original_exec_seconds: float = 0.0

    @property
    def warp(self):
        return self.deployment.warp

    @property
    def wiki(self):
        return self.deployment.wiki

    def tenant_page(self, tenant: int) -> str:
        return f"tenant{tenant}_wiki"

    def repair(self):
        """Undo every action of the attacker's browser (paper §2)."""
        return self.warp.repair.submit(
            CancelClientSpec(self.attacker_client)
        ).result()

    def repair_by_patch(self):
        """Re-register edit.php unchanged as a retroactive 'patch': every
        edit run re-executes (and compares equal), which exercises one
        repair group per tenant."""
        from repro.apps.wiki.pages import make_edit

        return self.warp.repair.submit(
            PatchSpec("edit.php", exports=make_edit())
        ).result()


def run_multi_tenant_scenario(
    n_tenants: int = 4,
    users_per_tenant: int = 2,
    attacked_tenants: int = 1,
    edits_per_user: int = 1,
    seed: int = 0,
    **warp_kwargs,
) -> MultiTenantOutcome:
    """Stage a multi-tenant wiki whose tenants never touch each other's
    partitions, then an attack on ``attacked_tenants`` of them.

    Each tenant's users log in and edit only their tenant's page, so the
    action history graph splits into one taint component per tenant — the
    workload the dependency-clustered repair scheduler is built for: the
    attack's repair cost must track the attacked tenants' footprint, not
    ``n_tenants``.  Tenant activity deliberately avoids ``index.php``
    (its MediaWiki-style ``SELECT COUNT(*)`` sitestats query reads ALL
    partitions of ``pagecontent``, which would soundly merge every tenant
    into one component).

    The attacker logs in once and defaces the first ``attacked_tenants``
    tenants' pages through ``edit.php``; every attacked tenant's users
    keep editing afterwards, entangling their work with the attack.
    """
    import time as _time

    started = _time.perf_counter()
    deployment = WikiDeployment(n_users=0, seed=seed, **warp_kwargs)
    outcome = MultiTenantOutcome(
        deployment=deployment,
        n_tenants=n_tenants,
        attacked=list(range(attacked_tenants)),
        tenant_users={},
        attacker_client=deployment.client_id("attacker"),
    )

    for tenant in range(n_tenants):
        users = [f"t{tenant}_user{i}" for i in range(users_per_tenant)]
        outcome.tenant_users[tenant] = users
        for user in users:
            deployment.wiki.seed_user(user, f"pw-{user}")

    # Phase 1: each tenant's first user creates the tenant page; everyone
    # logs in and makes pre-attack edits.
    for tenant in range(n_tenants):
        page = outcome.tenant_page(tenant)
        users = outcome.tenant_users[tenant]
        for user in users:
            deployment.login(user)
        deployment.edit_page(users[0], page, f"wiki of tenant {tenant}")
        for round_no in range(edits_per_user):
            for user in users:
                deployment.append_to_page(user, page, f"\npre-{user}-{round_no}")

    # Phase 2: the attacker defaces the attacked tenants' pages.
    deployment.login("attacker")
    for tenant in outcome.attacked:
        deployment.append_to_page(
            "attacker", outcome.tenant_page(tenant), f"\nDEFACED-t{tenant}"
        )

    # Phase 3: post-attack legitimate edits on every tenant (the attacked
    # tenants' users now work on top of the defaced content).
    for tenant in range(n_tenants):
        page = outcome.tenant_page(tenant)
        for user in outcome.tenant_users[tenant]:
            extra = f"post-{user}"
            deployment.append_to_page(user, page, f"\n{extra}")
            outcome.legit_appends[user] = extra

    outcome.original_exec_seconds = _time.perf_counter() - started
    return outcome


def _plant_attack(deployment: WikiDeployment, attack_type: str) -> None:
    warp = deployment.warp
    if attack_type == "stored-xss":
        attacker = deployment.login("attacker")
        # Submit a block report whose reason carries the script payload.
        attacker.open(f"{WIKI}/special_block.php?ip=6.6.6.6")
        attacker.type_into(
            "input[name=reason]", f"<script>{XSS_PAYLOAD}</script>"
        )
        attacker.click("input[name=report]")
    elif attack_type == "reflected-xss":
        pass  # the crafted URL is sprung directly on the victims
    elif attack_type == "csrf":
        warp.register_site(ATTACKER, _csrf_site)
    elif attack_type == "clickjacking":
        warp.register_site(ATTACKER, _clickjack_site)
    elif attack_type == "sql-injection":
        deployment.login("attacker")  # the injection itself fires with the victims


def _spring_attack(deployment: WikiDeployment, attack_type: str, victims) -> None:
    if attack_type == "sql-injection":
        # The attack's position in the timeline is the victims' position:
        # the §8.5 payload appends 'attack' to every page.
        attacker = deployment.browser("attacker")
        inject = (
            "en'; UPDATE pagecontent SET old_text = old_text || 'attack'; --"
        )
        attacker.open(build_url(WIKI, "/special_maintenance.php", {"thelang": inject}))
    for victim in victims:
        browser = deployment.browser(victim)
        if attack_type == "stored-xss":
            browser.open(f"{WIKI}/special_block.php?ip=6.6.6.6")
        elif attack_type == "reflected-xss":
            url = build_url(
                WIKI,
                "/config/index.php",
                {"wgDBname": f"<script>{XSS_PAYLOAD}</script>"},
            )
            browser.open(url)
        elif attack_type == "csrf":
            browser.open(f"{ATTACKER}/lure.html")
            # The victim keeps editing, believing she is herself; the edits
            # land under the attacker's account.
            deployment.append_to_page(victim, "Projects", f"\ncsrf-edit-{victim}")
        elif attack_type == "clickjacking":
            outer = browser.open(f"{ATTACKER}/game.html")
            framed = browser.framed_visit(outer)
            if framed is not None and not framed.blocked:
                browser.type_into("textarea", "clickjacked spam", visit=framed)
                browser.click("input[name=save]", visit=framed)
        elif attack_type == "sql-injection":
            # Nothing for the victim to trigger: the injection already ran.
            browser.open(f"{WIKI}/index.php?title={victim}_notes")


def _run_acl_scenario(deployment: WikiDeployment, n_users: int) -> ScenarioOutcome:
    """Administrator mistake: grant, exploit, then admin-initiated undo."""
    mallory = deployment.users[0]
    bystanders = deployment.users[1:]
    deployment.wiki.seed_page("Secret", "restricted plans", owner="admin", public=False)

    for user in deployment.users:
        deployment.login(user)
        deployment.read_page(user, "Main_Page")

    # Background activity happens first; the mistake comes near the end of
    # the timeline (like the victims in the other Table 7/8 scenarios).
    legit = {}
    for index, user in enumerate(bystanders):
        deployment.read_page(user, "Projects")
        if index % 2 == 0:
            deployment.append_to_page(user, f"{user}_notes", f"\nbystander-{user}")
            legit[user] = f"bystander-{user}"

    admin = deployment.login("admin")
    admin.open(f"{WIKI}/acl.php")
    admin.type_into("input[name=title]", "Secret")
    admin.type_into("input[name=user]", mallory)
    grant_result = admin.click("input[name=apply]")

    # Mallory uses her new privileges.
    deployment.edit_page(mallory, "Secret", "mallory took over this page")

    return ScenarioOutcome(
        deployment=deployment,
        attack_type="acl-error",
        victims=[mallory],
        bystanders=list(bystanders),
        legit_appends=legit,
        acl_grant_visit=grant_result.visit_id,
        admin_client=deployment.client_id("admin"),
    )


# -- attacker sites --------------------------------------------------------------


def _csrf_site(request) -> HttpResponse:
    """The lure page: silently re-logs the victim in as the attacker."""
    body = (
        "<html><body><h1>Win a prize!</h1>"
        "<script>"
        f"http_post('{WIKI}/login.php',"
        " {'wpName': 'attacker', 'wpPassword': 'pw-attacker'});"
        "</script></body></html>"
    )
    return HttpResponse(body=body)


def _clickjack_site(request) -> HttpResponse:
    """Loads the wiki's edit page in an (invisible) iframe."""
    body = (
        "<html><body><h1>Fun game</h1>"
        f"<iframe src='{WIKI}/edit.php?title=Projects' style='opacity:0'></iframe>"
        "</body></html>"
    )
    return HttpResponse(body=body)
