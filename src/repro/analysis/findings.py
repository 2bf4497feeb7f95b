"""Findings and inline suppressions for the contract linter.

A :class:`Finding` is one rule violation at a source location.  Its
identity for baseline purposes is ``(rule, path, message)`` — line
numbers drift with every edit, so the committed baseline never stores
them; two findings with the same triple in one file consume two baseline
entries.

Inline suppressions use the repo-specific marker

    # repro: noqa[RULE-ID]
    # repro: noqa[RULE-ID, OTHER-ID]
    # repro: noqa

on the *flagged line*.  The bare form suppresses every rule on that line
and exists for migration emergencies; committed code is expected to name
the rule so the justification is greppable.  The plain flake8 ``# noqa``
is deliberately **not** honoured — the contract rules guard determinism
and picklability invariants, and silencing them must be an explicit,
repo-auditable act.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Sequence

#: Sentinel in a suppression set: every rule is suppressed on that line.
SUPPRESS_ALL = "*"

_NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s-]+)\])?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at ``path:line``.

    ``path`` is the module path relative to the scanned source root
    (posix separators, e.g. ``repro/store/workqueue.py``) so findings
    are stable across checkouts.  ``detail`` carries rule-specific
    structured context (the hygiene wrapper test keys on it) and is
    excluded from baseline identity.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    detail: Dict[str, str] = field(default_factory=dict, compare=False, hash=False)

    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def baseline_key(self) -> tuple:
        return (self.rule, self.path, self.message)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def scan_suppressions(lines: Sequence[str]) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the rule IDs suppressed on them.

    A line maps to ``frozenset({SUPPRESS_ALL})`` for the bare marker and
    to the named IDs otherwise.  Lines without a marker are absent.
    """
    table: Dict[int, FrozenSet[str]] = {}
    for number, text in enumerate(lines, start=1):
        if "repro:" not in text:  # cheap pre-filter; the regex is the authority
            continue
        match = _NOQA_PATTERN.search(text)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[number] = frozenset({SUPPRESS_ALL})
        else:
            names = frozenset(
                part.strip().upper() for part in rules.split(",") if part.strip()
            )
            table[number] = names if names else frozenset({SUPPRESS_ALL})
    return table


def is_suppressed(
    finding: Finding, suppressions: Dict[int, FrozenSet[str]]
) -> bool:
    """Whether an inline marker on the finding's line covers its rule."""
    names = suppressions.get(finding.line)
    if names is None:
        return False
    return SUPPRESS_ALL in names or finding.rule.upper() in names
