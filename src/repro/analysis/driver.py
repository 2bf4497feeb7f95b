"""Linter driver: file walking, suppression, baseline, CLI contract.

The driver owns everything around the rules: discovering ``src/repro``
modules, parsing them once, running every registered rule, honouring
``# repro: noqa[RULE-ID]`` markers, comparing what is left against the
committed baseline, and rendering text or JSON reports.

Exit-code contract (mirrors ``benchmarks/check_regression.py`` so
external CI can shell out to either without parsing output):

* ``0`` — clean: no non-baselined findings and no stale baseline entries;
* ``1`` — contract findings (or a dishonest baseline: stale entries);
* ``2`` — internal error: unparsable source, malformed baseline, bad
  arguments.  Never reported as "clean" or "findings".
"""

from __future__ import annotations

import argparse
import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Type

from repro.analysis import baseline as baseline_mod
from repro.analysis import determinism as _determinism  # repro: noqa[IMP001] registers rules
from repro.analysis import hygiene as _hygiene  # repro: noqa[IMP001] registers rules
from repro.analysis import sql as _sql  # repro: noqa[IMP001] registers rules
from repro.analysis import storage as _storage  # repro: noqa[IMP001] registers rules
from repro.analysis.baseline import BaselineComparison, BaselineError
from repro.analysis.findings import Finding, is_suppressed, scan_suppressions
from repro.analysis.rules import RULES, ModuleContext, Rule, all_rules


class LintInternalError(RuntimeError):
    """A failure of the linter itself (exit code 2), not a finding."""


@dataclass
class LintReport:
    """Outcome of one linting pass (before baseline comparison)."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files: int = 0

    def extend(self, other: "LintReport") -> None:
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.files += other.files


def source_root() -> Path:
    """The ``src`` directory this installed package lives under."""
    return Path(__file__).resolve().parents[2]


def default_baseline_path() -> Path:
    """The committed baseline at the repo root (may not exist)."""
    return source_root().parent / "LINT_BASELINE.json"


def _instantiate(rules: Optional[Sequence[Type[Rule]]]) -> List[Rule]:
    classes = list(rules) if rules is not None else all_rules()
    return [rule_class() for rule_class in classes]


def lint_source(
    text: str,
    rel_path: str,
    rules: Optional[Sequence[Type[Rule]]] = None,
) -> LintReport:
    """Lint one module's source text under a (possibly fake) path.

    ``rel_path`` is the path the module claims relative to the source
    root (``repro/engine/engine.py``); path-scoped rules key on it, so
    fixture tests can place a snippet "inside" any module they like.
    """
    try:
        tree = ast.parse(text, filename=rel_path)
    except SyntaxError as error:
        raise LintInternalError(f"cannot parse {rel_path}: {error}") from error
    lines = tuple(text.splitlines())
    ctx = ModuleContext(path=rel_path, tree=tree, lines=lines)
    suppressions = scan_suppressions(lines)
    report = LintReport(files=1)
    for rule in _instantiate(rules):
        for finding in rule.check(ctx):
            if is_suppressed(finding, suppressions):
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    report.suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


def lint_paths(
    paths: Iterable[Path],
    relative_to: Path,
    rules: Optional[Sequence[Type[Rule]]] = None,
) -> LintReport:
    """Lint concrete files, reporting paths relative to *relative_to*."""
    report = LintReport()
    for path in sorted(paths):
        rel_path = path.resolve().relative_to(relative_to.resolve()).as_posix()
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            raise LintInternalError(f"cannot read {path}: {error}") from error
        report.extend(lint_source(text, rel_path, rules))
    return report


def lint_tree(
    root: Optional[Path] = None,
    rules: Optional[Sequence[Type[Rule]]] = None,
) -> LintReport:
    """Lint every ``*.py`` under the ``repro`` package (the tier-1 pass)."""
    base = root if root is not None else source_root()
    package = base / "repro"
    if not package.is_dir():
        raise LintInternalError(f"no repro package under {base}")
    return lint_paths(package.rglob("*.py"), relative_to=base, rules=rules)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def report_json(
    report: LintReport, comparison: BaselineComparison
) -> Dict[str, object]:
    """Machine-readable result (the ``repro lint --json`` shape)."""
    return {
        "files": report.files,
        "rules": sorted(RULES),
        "findings": [finding.to_json() for finding in comparison.new_findings],
        "baselined": len(comparison.matched),
        "stale_baseline": [entry.to_json() for entry in comparison.stale_entries],
        "suppressed": len(report.suppressed),
        "clean": comparison.clean,
    }


def report_text(report: LintReport, comparison: BaselineComparison) -> str:
    lines: List[str] = []
    for finding in comparison.new_findings:
        lines.append(finding.render())
    for entry in comparison.stale_entries:
        lines.append(
            f"stale baseline entry: {entry.rule} {entry.path} — the finding "
            f"no longer exists; remove it ({entry.message!r})"
        )
    summary = (
        f"{report.files} files, {len(comparison.new_findings)} findings, "
        f"{len(comparison.matched)} baselined, "
        f"{len(comparison.stale_entries)} stale baseline entries, "
        f"{len(report.suppressed)} noqa-suppressed"
    )
    lines.append(("FAIL: " if not comparison.clean else "OK: ") + summary)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI (exposed as ``repro lint`` and ``python -m repro.analysis``)
# ----------------------------------------------------------------------
def build_arg_parser(prog: str = "repro lint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Contract linter: AST rules enforcing the repo's determinism, "
            "picklability and hygiene invariants over src/repro."
        ),
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline file of grandfathered findings "
        "(default: LINT_BASELINE.json at the repo root, when present)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to the current findings (skeleton "
        "justifications; review before committing) and exit 0",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE-ID",
        default=None,
        help="print a rule's catalogue entry (invariant, motivation, fix) "
        "and exit; use 'all' for the whole catalogue",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help="source root containing the repro package (default: the "
        "installed package's own src directory)",
    )
    return parser


def _explain(rule_id: str) -> str:
    if rule_id.lower() == "all":
        return "\n\n".join(rule.explain() for rule in all_rules())
    rule = RULES.get(rule_id.upper())
    if rule is None:
        raise LintInternalError(
            f"unknown rule {rule_id!r}; known rules: {', '.join(sorted(RULES))}"
        )
    return rule.explain()


def run(argv: Optional[Sequence[str]] = None, prog: str = "repro lint") -> int:
    """Entry point implementing the 0/1/2 exit-code contract."""
    parser = build_arg_parser(prog=prog)
    try:
        args = parser.parse_args(list(argv) if argv is not None else [])
    except SystemExit as error:  # argparse exits 2 on bad args already
        return 2 if error.code not in (0, None) else 0
    try:
        if args.explain is not None:
            print(_explain(args.explain))
            return 0
        root = Path(args.root) if args.root is not None else None
        report = lint_tree(root=root)
        if args.baseline is not None:
            baseline_path = Path(args.baseline)
        else:
            baseline_path = default_baseline_path()
        if args.update_baseline:
            baseline_mod.write_baseline(report.findings, baseline_path)
            print(
                f"baseline rewritten: {len(report.findings)} entries at "
                f"{baseline_path} (fill in the justifications)"
            )
            return 0
        entries = baseline_mod.load_baseline(baseline_path)
        comparison = baseline_mod.compare(report.findings, entries)
        if args.json:
            print(json.dumps(report_json(report, comparison), indent=2, sort_keys=True))
        else:
            print(report_text(report, comparison))
        return 0 if comparison.clean else 1
    except BrokenPipeError:  # downstream consumer (head, CI tee) went away
        return 0
    except (LintInternalError, BaselineError) as error:
        print(f"lint internal error: {error}")
        return 2
    except Exception as error:  # the contract reserves 2 for our own failures
        print(f"lint internal error: {type(error).__name__}: {error}")
        return 2
