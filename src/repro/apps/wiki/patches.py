"""Security patches for the wiki (paper Table 2).

Each patch is a rebuilt exports table for one script file; applying it via
``warp.repair.submit(PatchSpec(file, exports=...))`` registers the new version
and triggers re-execution of every run that loaded the old one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.apps.wiki import auth, special
from repro.apps.wiki.common import make_common


@dataclass(frozen=True)
class WikiPatch:
    """One row of Table 2."""

    attack_type: str
    cve: str
    file: str
    description: str
    fix: str
    build: Callable[[], Dict[str, Callable]]


PATCHES = (
    WikiPatch(
        attack_type="reflected-xss",
        cve="CVE-2009-0737",
        file="config/index.php",
        description=(
            "The user options (wgDB*) in the live web-based installer are "
            "not HTML-escaped."
        ),
        fix="Sanitize all user options with htmlspecialchars() (r46889).",
        build=lambda: special.make_config_index(escape_options=True),
    ),
    WikiPatch(
        attack_type="stored-xss",
        cve="CVE-2009-4589",
        file="special_block.php",
        description=(
            "The name of the contribution link (Special:Block?ip) is not "
            "HTML-escaped."
        ),
        fix="Sanitize the ip parameter content with htmlspecialchars() (r52521).",
        build=lambda: special.make_special_block(escape_reason=True),
    ),
    WikiPatch(
        attack_type="csrf",
        cve="CVE-2010-1150",
        file="login.php",
        description=(
            "HTML/API login interfaces do not properly handle an unintended "
            "login attempt (login CSRF)."
        ),
        fix=(
            "Include a random challenge token in a hidden form field for "
            "every login attempt (r64677)."
        ),
        build=lambda: auth.make_login(csrf_protected=True),
    ),
    WikiPatch(
        attack_type="clickjacking",
        cve="CVE-2011-0003",
        file="common.php",
        description="A malicious website can embed the wiki within an iframe.",
        fix="Add X-Frame-Options: DENY to HTTP headers (r79566).",
        build=lambda: make_common(send_frame_options=True),
    ),
    WikiPatch(
        attack_type="sql-injection",
        cve="CVE-2004-2186",
        file="special_maintenance.php",
        description=(
            "The language identifier, thelang, is not properly sanitized in "
            "SpecialMaintenance.php."
        ),
        fix="Sanitize the thelang parameter with wfStrencode().",
        build=lambda: special.make_maintenance(escape_lang=True),
    ),
)


def patch_for(attack_type: str) -> WikiPatch:
    for patch in PATCHES:
        if patch.attack_type == attack_type:
            return patch
    raise KeyError(f"no patch for attack type {attack_type!r}")
