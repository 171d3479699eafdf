"""Browser re-execution effectiveness experiment (paper §8.3, Table 4).

Three flavours of XSS payload — read-only (benign), append-only, and
overwrite — crossed with three client configurations: no WARP extension,
extension without three-way text merge, and the full extension.  The
measurement is how many of the eight victims end up with a user-visible
conflict after retroactively patching the XSS vulnerability.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.repair.replay import ReplayConfig
from repro.workload.scenarios import WIKI, WikiDeployment

ATTACK_ACTIONS = ("read-only", "append-only", "overwrite")
CONFIGS = ("no-extension", "no-merge", "full")

_PAYLOADS = {
    "read-only": f"http_get('{WIKI}/index.php?title=Main_Page');",
    "append-only": (
        "var u = doc_text('#username');"
        "if (len(u) > 0) {"
        f" http_post('{WIKI}/edit.php',"
        " {'title': u + '_notes', 'append': 'xss-append-text'});"
        "}"
    ),
    "overwrite": (
        "var u = doc_text('#username');"
        "if (len(u) > 0) {"
        f" http_post('{WIKI}/edit.php',"
        " {'title': u + '_notes', 'wpTextbox': 'CORRUPTED BY XSS'});"
        "}"
    ),
}


@dataclass
class EffectivenessResult:
    attack_action: str
    config: str
    victims_with_conflicts: int
    n_victims: int


def run_effectiveness(
    attack_action: str, config: str, n_victims: int = 8, seed: int = 0
) -> EffectivenessResult:
    """Stage the §8.3 experiment for one (attack, configuration) cell."""
    if attack_action not in ATTACK_ACTIONS:
        raise ValueError(f"unknown attack action {attack_action!r}")
    if config not in CONFIGS:
        raise ValueError(f"unknown config {config!r}")

    replay_config = ReplayConfig(text_merge=(config != "no-merge"))
    deployment = WikiDeployment(
        n_users=n_victims, seed=seed, replay_config=replay_config
    )
    victims = deployment.users

    # The attacker plants the stored XSS payload on the block page.
    attacker = deployment.login("attacker")
    attacker.open(f"{WIKI}/special_block.php?ip=6.6.6.6")
    attacker.type_into(
        "input[name=reason]", f"<script>{_PAYLOADS[attack_action]}</script>"
    )
    attacker.click("input[name=report]")

    # Each victim: log in, trigger the attack, edit their page, log out.
    # The edit touches the *first line of whatever the victim saw*: after
    # an overwrite attack that line is the attacker's text, which is what
    # makes replay meaningless and forces a conflict (§8.3).
    upload = config != "no-extension"
    for victim in victims:
        deployment.browser(victim, upload=upload)
        deployment.login(victim)
        deployment.browser(victim).open(f"{WIKI}/special_block.php?ip=6.6.6.6")
        _edit_first_line(deployment, victim, f"{victim}_notes", f"edit-{victim}")
        deployment.browser(victim).open(f"{WIKI}/logout.php")

    result = deployment.patch("stored-xss")
    conflicted = {c.client_id for c in result.conflicts}
    victims_hit = sum(
        1 for victim in victims if deployment.client_id(victim) in conflicted
    )
    return EffectivenessResult(
        attack_action=attack_action,
        config=config,
        victims_with_conflicts=victims_hit,
        n_victims=len(victims),
    )


def _edit_first_line(deployment: WikiDeployment, user: str, title: str, note: str) -> None:
    browser = deployment.browser(user)
    visit = browser.open(f"{WIKI}/edit.php?title={title}")
    textarea = visit.document.select("textarea")
    current = textarea.value if textarea is not None else ""
    lines = current.split("\n")
    lines[0] = f"{lines[0]} ({note})"
    browser.type_into("textarea", "\n".join(lines))
    browser.click("input[name=save]")

