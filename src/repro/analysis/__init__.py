"""Contract linter: AST static analysis enforcing the repo's invariants.

Seven PRs of growth accumulated load-bearing conventions — deterministic
folds independent of the hash seed, picklable payloads crossing the
process boundary, every ``REPRO_*`` knob routed through the typed registry, no
silent exception swallows — that were previously enforced only by
runtime tests exercising specific paths.  This package checks the whole
*class* of each past bug at the source level:

* :mod:`repro.analysis.rules` — rule base class, stable-ID registry and
  shared AST helpers;
* :mod:`repro.analysis.hygiene` — ENV001 (env-knob routing), POOL001
  (no process pools), EXC001 (silent swallows), DEF001 (mutable
  defaults), PRN001 (bare prints);
* :mod:`repro.analysis.determinism` — ITER001 (unordered iteration in
  the deterministic folds), TIME001 (wall-clock/entropy isolation),
  PKL001 (payload picklability), FPR001 (fingerprint purity);
* :mod:`repro.analysis.findings` — findings and ``# repro: noqa[ID]``
  suppressions;
* :mod:`repro.analysis.baseline` — grandfathered findings with mandatory
  justifications; stale entries fail the run;
* :mod:`repro.analysis.driver` — tree walking, reports, and the
  ``repro lint`` / ``python -m repro.analysis`` entry point with the
  check_regression-style exit-code contract (0 clean / 1 findings /
  2 internal error).

See ``src/repro/analysis/README.md`` for the rule catalogue.
"""

from repro.analysis.baseline import (
    BaselineComparison,
    BaselineEntry,
    BaselineError,
    compare,
    load_baseline,
    write_baseline,
)
from repro.analysis.driver import (
    LintInternalError,
    LintReport,
    default_baseline_path,
    lint_source,
    lint_tree,
    run,
    source_root,
)
from repro.analysis.findings import Finding, is_suppressed, scan_suppressions
from repro.analysis.rules import RULES, ModuleContext, Rule, all_rules, register

__all__ = [
    "BaselineComparison",
    "BaselineEntry",
    "BaselineError",
    "Finding",
    "LintInternalError",
    "LintReport",
    "ModuleContext",
    "RULES",
    "Rule",
    "all_rules",
    "compare",
    "default_baseline_path",
    "is_suppressed",
    "lint_source",
    "lint_tree",
    "load_baseline",
    "register",
    "run",
    "scan_suppressions",
    "source_root",
    "write_baseline",
]
