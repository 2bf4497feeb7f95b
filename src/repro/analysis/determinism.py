"""Determinism and picklability rules.

Four rules guarding the properties the parallel layers are built on: the
deterministic fold (results independent of pool placement), wall-clock
isolation (verdicts never depend on when they ran), payload
picklability (work items cross the process boundary) and fingerprint
purity (memo keys survive process restarts).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import (
    ModuleContext,
    Rule,
    import_aliases,
    register,
    resolve_qualified,
)


def _is_set_expression(node: ast.AST) -> bool:
    """Whether *node* statically evaluates to an unordered set.

    Set literals, set comprehensions, ``set(...)``/``frozenset(...)``
    constructor calls and the set-algebra methods (``union``,
    ``intersection``, ``difference``, ``symmetric_difference``) are the
    forms that appear in the fold paths; anything wrapped in
    ``sorted(...)`` is no longer a set expression and passes.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return True
    return False


@register
class NondeterministicIterationRule(Rule):
    """ITER001: no unordered iteration inside the deterministic folds."""

    rule_id = "ITER001"
    name = "nondet-set-iteration"
    summary = (
        "iterating a set/frozenset expression into an ordered result "
        "(for loop, list/tuple/enumerate, ordered comprehension) or a "
        "keyed min/max tie-break over one, inside the emptiness/workqueue/"
        "engine fold paths"
    )
    invariant = (
        "the parallel folds return the first witness in canonical DFS "
        "order regardless of pool placement; set iteration order varies "
        "with the string hash seed, so an unordered fold makes the verdict "
        "depend on PYTHONHASHSEED and on which worker answered first"
    )
    motivation = (
        "the PR 1 hash-seed nondeterminism fix in scenarios.py was exactly "
        "this class: a set iterated into an ordered probe list produced "
        "different synthetic workloads per interpreter launch"
    )
    fix = (
        "wrap the set in sorted(...) with a total key before it meets an "
        "ordered fold, or keep the aggregation genuinely order-insensitive "
        "and suppress with a justifying noqa"
    )

    #: The deterministic-fold modules this rule patrols.
    target_paths: Tuple[str, ...] = (
        "repro/automata/emptiness.py",
        "repro/store/workqueue.py",
        "repro/engine/engine.py",
    )

    _ORDERED_CONSUMERS = frozenset({"list", "tuple", "enumerate"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.path not in self.target_paths:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expression(
                node.iter
            ):
                yield ctx.finding(
                    self,
                    node.iter,
                    "for-loop over an unordered set expression in a "
                    "deterministic fold path (wrap in sorted())",
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for generator in node.generators:
                    if _is_set_expression(generator.iter):
                        yield ctx.finding(
                            self,
                            generator.iter,
                            "ordered comprehension drains an unordered set "
                            "expression in a deterministic fold path "
                            "(wrap in sorted())",
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if (
                    node.func.id in self._ORDERED_CONSUMERS
                    and node.args
                    and _is_set_expression(node.args[0])
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"{node.func.id}() materialises an unordered set "
                        "expression into an ordered result in a "
                        "deterministic fold path (wrap in sorted())",
                    )
                elif (
                    node.func.id in ("min", "max")
                    and node.args
                    and _is_set_expression(node.args[0])
                    and any(keyword.arg == "key" for keyword in node.keywords)
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"{node.func.id}(..., key=...) over an unordered set "
                        "breaks ties by iteration order in a deterministic "
                        "fold path (sort the candidates first)",
                    )


@register
class WallClockRule(Rule):
    """TIME001: wall-clock and entropy stay out of deterministic code."""

    rule_id = "TIME001"
    name = "wall-clock"
    summary = (
        "time.time/monotonic/perf_counter, datetime.now/utcnow/today or "
        "module-level random.* outside repro/obs/, repro/core/budget.py "
        "and repro/store/faults.py"
    )
    invariant = (
        "verdicts and fingerprints are pure functions of their inputs; the "
        "only clocks live in the budget layer (deadline enforcement), the "
        "obs layer (latency measurement) and the fault injector — a clock "
        "or RNG anywhere else makes a result unreproducible"
    )
    motivation = (
        "the anytime layer (PR 6) was only provable because every "
        "time-dependent decision flows through BudgetClock with an "
        "injectable clock; seeded random.Random(seed) instances (workload "
        "generators) stay legal — only the ambient module-level RNG is banned"
    )
    fix = (
        "thread a Budget/BudgetClock (deadlines), accept an injectable "
        "clock= parameter, use random.Random(seed), or record latency via "
        "repro.obs; a justified measurement site carries noqa[TIME001] "
        "naming why wall time cannot affect the verdict"
    )

    #: Modules whose whole job is clocks, entropy or latency.
    allowed_prefixes: Tuple[str, ...] = ("repro/obs/",)
    allowed_paths: Tuple[str, ...] = (
        "repro/core/budget.py",
        "repro/store/faults.py",
    )

    _BANNED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )
    #: The one picklable, seedable entry point into the random module.
    _RANDOM_ALLOWED = frozenset({"random.Random", "random.SystemRandom"})

    def _is_banned(self, qualified: str) -> bool:
        if qualified in self._BANNED:
            return True
        if qualified.startswith("random."):
            return qualified not in self._RANDOM_ALLOWED
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.path in self.allowed_paths or any(
            ctx.path.startswith(prefix) for prefix in self.allowed_prefixes
        ):
            return
        aliases = import_aliases(ctx.tree)
        flagged: set = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute) and not isinstance(node, ast.Name):
                continue
            # Only the outermost attribute chain: time.perf_counter's inner
            # Name node must not double-report.
            qualified = resolve_qualified(node, aliases)
            if qualified is None or not self._is_banned(qualified):
                continue
            key = (node.lineno, node.col_offset, qualified)
            inner = node
            while isinstance(inner, ast.Attribute):
                inner = inner.value
            flagged_key = (inner.lineno, inner.col_offset)
            if flagged_key in flagged:
                continue
            flagged.add(flagged_key)
            yield ctx.finding(
                self,
                node,
                f"wall-clock/entropy reference ({qualified}) in "
                "deterministic code",
            )


@register
class PayloadPicklabilityRule(Rule):
    """PKL001: pool-crossing payload classes hold picklable state only."""

    rule_id = "PKL001"
    name = "payload-picklability"
    summary = (
        "a registered pool-crossing payload class (ResumeFrontier, "
        "ReductionTask/Result, SpanRecord, chain checkpoints/outcomes, "
        "the Shipped result envelope) stores a "
        "lambda, generator expression, threading lock or open file handle"
    )
    invariant = (
        "chain outcomes, resume frontiers, result envelopes and spans cross "
        "the process boundary by pickle; a field that cannot pickle turns "
        "every pooled run into a payload-error fallback (and a fork-start "
        "pool hides it until the first spawn-start platform)"
    )
    motivation = (
        "the PR 6 failure taxonomy exists because unpicklable payloads "
        "used to surface as generic worker deaths; catching the field at "
        "commit time beats diagnosing it from a pool_payload_errors counter"
    )
    fix = (
        "store data, not behaviour: module-level function references "
        "instead of lambdas, materialised tuples instead of generators, "
        "and re-acquire locks/handles on the worker side"
    )

    #: Payload classes per module: the pool-crossing pickle surface.
    payload_classes: Dict[str, FrozenSet[str]] = {
        "repro/automata/emptiness.py": frozenset(
            {
                "ChainCheckpoint",
                "ResumeFrontier",
                "ChainOutcome",
            }
        ),
        "repro/engine/reduction.py": frozenset({"ReductionTask", "ReductionResult"}),
        "repro/obs/trace.py": frozenset({"SpanRecord"}),
        "repro/store/workqueue.py": frozenset({"Shipped"}),
    }

    _LOCK_FACTORIES = frozenset(
        {
            "threading.Lock",
            "threading.RLock",
            "threading.Condition",
            "threading.Event",
            "threading.Semaphore",
            "threading.BoundedSemaphore",
            "multiprocessing.Lock",
            "multiprocessing.RLock",
            "_thread.allocate_lock",
        }
    )

    def _unpicklable_kind(
        self, node: Optional[ast.AST], aliases: Dict[str, str]
    ) -> str:
        """'' when the value pickles; otherwise what it is."""
        if node is None:
            return ""
        if isinstance(node, ast.Lambda):
            return "a lambda"
        if isinstance(node, ast.GeneratorExp):
            return "a generator expression"
        if isinstance(node, ast.Call):
            qualified = resolve_qualified(node.func, aliases)
            if qualified in self._LOCK_FACTORIES:
                return f"a {qualified} lock object"
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                return "an open file handle"
            if qualified == "io.open":
                return "an open file handle"
            # dataclasses.field(default=..., default_factory=...): inspect
            # what the field would actually put on the instance.
            callee = node.func
            if (isinstance(callee, ast.Name) and callee.id == "field") or (
                qualified == "dataclasses.field"
            ):
                for keyword in node.keywords:
                    if keyword.arg == "default":
                        return self._unpicklable_kind(keyword.value, aliases)
                    if keyword.arg == "default_factory":
                        factory = keyword.value
                        if isinstance(factory, ast.Lambda):
                            return self._unpicklable_kind(factory.body, aliases)
                        factory_name = resolve_qualified(factory, aliases)
                        if factory_name in self._LOCK_FACTORIES:
                            return f"a {factory_name} lock object"
        return ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        registered = self.payload_classes.get(ctx.path)
        if not registered:
            return
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or node.name not in registered:
                continue
            for statement in node.body:
                value: Optional[ast.AST] = None
                if isinstance(statement, ast.AnnAssign):
                    value = statement.value
                elif isinstance(statement, ast.Assign):
                    value = statement.value
                kind = self._unpicklable_kind(value, aliases)
                if kind:
                    yield ctx.finding(
                        self,
                        statement,
                        f"pool-crossing payload class {node.name} holds "
                        f"{kind} (cannot cross the process boundary)",
                    )
            # Instance attributes assigned in methods (self.x = lambda ...).
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for inner in ast.walk(method):
                    if not isinstance(inner, ast.Assign):
                        continue
                    targets_self = any(
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        for target in inner.targets
                    )
                    if not targets_self:
                        continue
                    kind = self._unpicklable_kind(inner.value, aliases)
                    if kind:
                        yield ctx.finding(
                            self,
                            inner,
                            f"pool-crossing payload class {node.name} holds "
                            f"{kind} (cannot cross the process boundary)",
                        )


@register
class FingerprintPurityRule(Rule):
    """FPR001: fingerprint functions never key on ``id()``."""

    rule_id = "FPR001"
    name = "fingerprint-purity"
    summary = (
        "an id() call inside a fingerprint/canonical-key function of the "
        "store or engine (Snapshot.fingerprint, task try_key/fingerprint "
        "and their helpers)"
    )
    invariant = (
        "fingerprints are content addresses: equal content yields equal "
        "keys across processes and runs, which is what lets the memo "
        "cross the pool boundary and (per the ROADMAP) spill to disk; "
        "id() is a per-process address and poisons all of that"
    )
    motivation = (
        "scope-local caches keyed on id() are legal (the emptiness "
        "sentence cache pins its objects for the search's lifetime), but "
        "the PR 5 memo layer must never be — a shared verdict cache keyed "
        "on addresses returns wrong verdicts after any restart"
    )
    fix = (
        "key on the content fingerprint (Snapshot.fingerprint(), canonical "
        "tuples) or return None to mark the task uncacheable"
    )

    #: Modules whose key-shaped functions feed the persistent memo tier.
    target_paths: Tuple[str, ...] = (
        "repro/store/snapshot.py",
        "repro/store/hamt.py",
        "repro/engine/reduction.py",
        "repro/engine/engine.py",
    )
    _KEY_FUNCTION_MARKERS = ("fingerprint", "key")

    def _is_key_function(self, name: str) -> bool:
        lowered = name.lower()
        return any(marker in lowered for marker in self._KEY_FUNCTION_MARKERS)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.path not in self.target_paths:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._is_key_function(node.name):
                continue
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "id"
                ):
                    yield ctx.finding(
                        self,
                        inner,
                        f"id() inside fingerprint function {node.name}() — "
                        "per-process addresses must not reach memo keys",
                    )
