"""Application factory for the ``shard2`` workload's worker processes.

``repro.shard.bootstrap:wiki_tenants`` gives each tenant one page; the
workload wants several pages per tenant so that the attack (a few pages
per tenant) is narrower than the tenant.  ``ShardCluster`` fixes the
factory arguments to tenants / users / shared users, so the page count is
a constant here.
"""

from repro.apps.wiki.app import WikiApp

PAGES_PER_TENANT = 8


def tenant_pages(tenant: int):
    return [f"tenant{tenant}_p{index}" for index in range(PAGES_PER_TENANT)]


def tenant_user(tenant: int) -> str:
    return f"t{tenant}_user1"


def wiki_tenant_pages(warp, fresh: bool, args: dict) -> WikiApp:
    """The ``factory(warp, fresh, args)`` contract of repro.shard.worker."""
    wiki = WikiApp(warp.ttdb, warp.scripts, warp.server)
    if not fresh:
        wiki.register_code()
        return wiki
    wiki.install()
    for tenant in args.get("tenants") or []:
        user = tenant_user(int(tenant))
        wiki.seed_user(user, f"pw-{user}")
        for page in tenant_pages(int(tenant)):
            wiki.seed_page(page, f"{page} of tenant {tenant}\n", user, public=True)
    for user in args.get("shared_users") or []:
        wiki.seed_user(user, f"pw-{user}")
    return wiki
