"""Hygiene rules: env-knob routing, pool access, silent swallows, defaults, prints, imports.

These six rules guard conventions that every PR so far has had to
re-establish by review: environment access goes through the typed knob
registry, process pools are reached only through the one scheduler,
broad exception handlers record what they swallowed, function defaults
are immutable, nothing but the CLI writes to stdout, and every
module-level import is used.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import (
    ModuleContext,
    Rule,
    import_aliases,
    is_broad_exception_type,
    register,
    resolve_qualified,
)


@register
class EnvRegistryRule(Rule):
    """ENV001: all ``REPRO_*`` knob reads go through ``repro.obs.env``."""

    rule_id = "ENV001"
    name = "env-registry"
    summary = (
        "os.environ / os.getenv access outside the typed knob registry "
        "(repro/obs/env.py) and the fault-plan reader (repro/store/faults.py)"
    )
    invariant = (
        "every environment variable the library consults is declared in "
        "repro.obs.env with a type, a default and warn-once parsing, so "
        "`repro env` lists all of them and a typo'd knob warns instead of "
        "silently meaning something else"
    )
    motivation = (
        "pre-PR 6 the pool knobs were parsed ad hoc at their call sites with "
        "silent `except ValueError: pass` fallbacks; PR 7 centralised them "
        "after `REPRO_PARALLEL_TASKS=yes` was found to be silently ignored"
    )
    fix = (
        "declare the knob in repro/obs/env.py and read it through the "
        "registry's typed accessor"
    )

    #: Modules allowed to touch the process environment directly.
    allowed_paths: Tuple[str, ...] = (
        "repro/obs/env.py",
        "repro/store/faults.py",
    )

    _ENV_ATTRS = frozenset({"environ", "environb", "getenv", "getenvb", "putenv"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.path in self.allowed_paths:
            return
        aliases = import_aliases(ctx.tree)
        reported: Set[Tuple[int, int]] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            qualified = resolve_qualified(node, aliases)
            if qualified is None:
                continue
            parts = qualified.split(".")
            if parts[0] != "os" or len(parts) < 2 or parts[1] not in self._ENV_ATTRS:
                continue
            # ``os.environ.get`` resolves both as itself and as its inner
            # ``os.environ`` chain; report the site once, at the base name.
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            site = (base.lineno, base.col_offset)
            if site in reported:
                continue
            reported.add(site)
            yield ctx.finding(
                self,
                node,
                f"direct environment access (os.{parts[1]}) outside the "
                "repro.obs.env knob registry",
            )


@register
class PoolSchedulerRule(Rule):
    """POOL001: only the one pool scheduler touches the pool machinery."""

    rule_id = "POOL001"
    name = "one-pool-scheduler"
    summary = (
        "concurrent.futures / multiprocessing imported, or the shared pool "
        "taken via shared_pool/discard_shared_pool, outside the pool "
        "scheduler (repro/store/workqueue.py)"
    )
    invariant = (
        "every pooled item — a chain or an engine task — is "
        "submitted, awaited, retried and recovered in-process by "
        "repro.store.workqueue, so there is one failure taxonomy, one "
        "result envelope and one set of pool_* counters"
    )
    motivation = (
        "the pooled callers each grew their own "
        "submit/timeout/retry/fallback copy, and the copies drifted: a "
        "failed chain recomputed every chain"
    )
    fix = (
        "describe the work as a repro.store.workqueue item: dispatch it "
        "through a PoolScheduler and collect it with PoolScheduler.resolve"
    )

    #: The one module allowed to touch the pool machinery.
    allowed_paths: Tuple[str, ...] = ("repro/store/workqueue.py",)

    _POOL_MODULES = frozenset({"concurrent", "multiprocessing"})
    #: Scheduler internals that hand out (or tear down) the raw pool.
    _POOL_ACCESSORS = frozenset({"shared_pool", "discard_shared_pool"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.path in self.allowed_paths:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None
                )
                if called in self._POOL_ACCESSORS:
                    yield ctx.finding(
                        self,
                        node,
                        f"{called}() called outside the pool scheduler "
                        "(repro/store/workqueue.py)",
                    )
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in self._POOL_MODULES:
                    continue
                yield ctx.finding(
                    self,
                    node,
                    f"{name} imported outside the pool scheduler "
                    "(repro/store/workqueue.py)",
                )


@register
class SilentSwallowRule(Rule):
    """EXC001: broad except handlers must not silently discard."""

    rule_id = "EXC001"
    name = "silent-swallow"
    summary = (
        "bare/Exception/BaseException handler whose body is only "
        "pass / `...` / continue — nothing recorded, nothing re-raised"
    )
    invariant = (
        "every broad handler leaves a trace: a metrics counter, a span "
        "event, a stats bump or a narrowed exception type — failures in "
        "pool workers and candidate enumerations stay observable"
    )
    motivation = (
        "the PR 6 pool hardening found worker deaths vanishing into "
        "`except Exception: pass` sites; the PR 7 hygiene test banned that "
        "exact body, and this rule generalises it to the other no-op bodies"
    )
    fix = (
        "narrow the exception type to what the guarded call actually raises, "
        "or record the swallow (metrics counter / stats bump) before discarding"
    )

    _BODY_KINDS = {ast.Pass: "pass", ast.Continue: "continue"}

    def _trivial_kind(self, statement: ast.stmt) -> str:
        """'' if the statement does real work, else its no-op kind."""
        kind = self._BODY_KINDS.get(type(statement))
        if kind is not None:
            return kind
        if (
            isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant)
            and statement.value.value is Ellipsis
        ):
            return "..."
        return ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not is_broad_exception_type(node.type):
                continue
            kinds = [self._trivial_kind(statement) for statement in node.body]
            if not all(kinds):
                continue
            body = "; ".join(kinds)
            yield ctx.finding(
                self,
                node,
                f"broad exception handler silently swallows (body is only "
                f"`{body}`)",
                body_kind=kinds[0] if len(kinds) == 1 else body,
            )


@register
class MutableDefaultRule(Rule):
    """DEF001: no mutable default arguments in ``src/``."""

    rule_id = "DEF001"
    name = "mutable-default"
    summary = "list/dict/set (literal, comprehension or constructor) as a parameter default"
    invariant = (
        "defaults are evaluated once per process; a mutable default shared "
        "across calls is cross-request state the engine's memo and the pool "
        "workers must never observe"
    )
    motivation = (
        "the decision layer memoizes on canonical fingerprints and serves "
        "copies of mutable state (PR 5); a mutable default is the same "
        "poisoning hazard one layer earlier, invisible to those copies"
    )
    fix = "default to None (or an immutable empty tuple/frozenset) and materialise inside the function"

    _MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    _MUTABLE_BUILTINS = frozenset({"list", "dict", "set", "bytearray"})

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, self._MUTABLE_LITERALS):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_BUILTINS
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            arguments = node.args
            defaults = list(arguments.defaults) + [
                default for default in arguments.kw_defaults if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    label = getattr(node, "name", "<lambda>")
                    yield ctx.finding(
                        self,
                        default,
                        f"mutable default argument in {label}()",
                    )


@register
class BarePrintRule(Rule):
    """PRN001: ``print`` belongs to the CLI alone."""

    rule_id = "PRN001"
    name = "bare-print"
    summary = "print() call in src/ outside repro/cli.py"
    invariant = (
        "library code reports through return values, stats dicts and the "
        "obs metrics/trace layer; stdout belongs to the CLI so pool workers "
        "and future servers never interleave garbage into user output"
    )
    motivation = (
        "debugging prints left in pooled worker paths interleave "
        "nondeterministically across processes and corrupt `repro lint "
        "--json`-style machine-readable output"
    )
    fix = (
        "return the value, bump a metrics counter, or annotate the current "
        "span; if it is genuinely user output, it belongs in repro/cli.py"
    )

    #: Modules whose job is user-facing output (the CLI proper and the
    #: linter's own report/exit-code surface).
    allowed_paths: Tuple[str, ...] = (
        "repro/cli.py",
        "repro/analysis/driver.py",
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.path in self.allowed_paths:
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield ctx.finding(
                    self, node, "bare print() outside the CLI"
                )


@register
class UnusedImportRule(Rule):
    """IMP001: every module-level import is used by its module."""

    rule_id = "IMP001"
    name = "unused-import"
    summary = "module-level import the module never reads (__init__.py re-exports excepted)"
    invariant = "a module's imports are exactly its dependencies, so readers and renames see them"
    motivation = (
        "refactors left imports behind: automata/emptiness.py carried five "
        "unused names, and src/repro over a hundred"
    )
    fix = "delete it; an import kept for a side effect carries a noqa[IMP001] saying which"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.path.endswith("__init__.py"):
            return
        used: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    # A quoted annotation such as ``"weakref.ref"`` reads names too.
                    try:
                        quoted = ast.parse(part.value, mode="eval")
                    except SyntaxError:
                        continue  # a string literal, not a forward reference
                    used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
        for node in ctx.tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                if local != "*" and local not in used:
                    yield ctx.finding(self, alias, f"unused import {local!r}")
