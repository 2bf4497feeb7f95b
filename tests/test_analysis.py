"""Tests for the contract linter (:mod:`repro.analysis`).

Three layers:

* **tier-1 pass** — the full rule set over the real ``src/`` tree must
  be clean against the committed ``LINT_BASELINE.json`` (and the
  baseline itself must be valid and honest: no stale entries);
* **fixture suites per rule** — each rule has at least one positive
  snippet, one clean negative, and a ``# repro: noqa[ID]`` suppression
  case, exercised through :func:`repro.analysis.lint_source` with fake
  module paths so path-scoped rules engage;
* **framework mechanics** — suppression parsing, baseline
  add/match/stale behaviour, and the driver's 0/1/2 exit-code contract.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    BaselineEntry,
    BaselineError,
    compare,
    default_baseline_path,
    lint_source,
    lint_tree,
    load_baseline,
    write_baseline,
)
from repro.analysis.driver import run as lint_run

REPO_ROOT = Path(__file__).resolve().parent.parent

EXPECTED_RULE_IDS = {
    "ENV001",
    "POOL001",
    "EXC001",
    "ITER001",
    "TIME001",
    "PKL001",
    "DEF001",
    "FPR001",
    "PRN001",
    "IO001",
    "SQL002",
    "IMP001",
}


def findings_of(text: str, path: str):
    return lint_source(textwrap.dedent(text), path)


def rule_ids(report) -> list:
    return [finding.rule for finding in report.findings]


# ----------------------------------------------------------------------
# Tier-1: the real tree against the committed baseline
# ----------------------------------------------------------------------
class TestTierOnePass:
    def test_registry_is_the_documented_rule_set(self):
        assert set(RULES) == EXPECTED_RULE_IDS

    def test_src_tree_clean_against_committed_baseline(self):
        report = lint_tree()
        entries = load_baseline(default_baseline_path())
        comparison = compare(report.findings, entries)
        assert not comparison.new_findings, (
            "contract findings in src/ not covered by LINT_BASELINE.json "
            "(fix them, or baseline them with a justification):\n"
            + "\n".join(f.render() for f in comparison.new_findings)
        )
        assert not comparison.stale_entries, (
            "stale LINT_BASELINE.json entries (the finding was fixed — "
            "remove the tolerance):\n"
            + "\n".join(e.rule + " " + e.path for e in comparison.stale_entries)
        )

    def test_committed_baseline_is_valid(self):
        # Must parse under the strict loader (justifications mandatory).
        load_baseline(default_baseline_path())

    def test_grandfathered_noqa_sites_are_load_bearing(self):
        """Stripping any committed noqa marker must surface a finding.

        This is the acceptance property: a grandfathered site is only
        grandfathered *because* of its marker.  We re-lint every file
        that has suppressed findings with the markers removed and check
        each suppressed finding comes back live.
        """
        report = lint_tree()
        assert report.suppressed, (
            "expected at least one justified noqa site in src/ "
            "(the latency-measurement clocks)"
        )
        by_file = {}
        for finding in report.suppressed:
            by_file.setdefault(finding.path, []).append(finding)
        src_root = REPO_ROOT / "src"
        for rel_path, suppressed in by_file.items():
            text = (src_root / rel_path).read_text(encoding="utf-8")
            stripped = "\n".join(
                line.split("# repro: noqa")[0].rstrip()
                if "# repro: noqa" in line
                else line
                for line in text.splitlines()
            )
            live = lint_source(stripped, rel_path)
            live_keys = {(f.rule, f.line) for f in live.findings}
            for finding in suppressed:
                assert (finding.rule, finding.line) in live_keys, (
                    f"noqa at {finding.location()} suppresses nothing "
                    "(stale marker?)"
                )


# ----------------------------------------------------------------------
# ENV001 — env access outside the knob registry
# ----------------------------------------------------------------------
class TestEnvRegistryRule:
    def test_environ_read_flagged(self):
        report = findings_of(
            """
            import os
            FLAG = os.environ.get("REPRO_TRACE")
            """,
            "repro/store/workqueue.py",
        )
        assert rule_ids(report) == ["ENV001"]
        assert "os.environ" in report.findings[0].message

    def test_getenv_flagged_once_per_site(self):
        report = findings_of(
            """
            import os
            A = os.getenv("REPRO_TRACE")
            B = os.environ["REPRO_TRACE"]
            """,
            "repro/engine/engine.py",
        )
        assert rule_ids(report) == ["ENV001", "ENV001"]

    def test_from_import_alias_flagged(self):
        report = findings_of(
            """
            from os import environ as env_table
            VALUE = env_table.get("REPRO_POOL_RETRIES")
            """,
            "repro/core/solver.py",
        )
        assert rule_ids(report) == ["ENV001"]

    def test_registry_and_faults_modules_are_allowed(self):
        snippet = """
            import os
            RAW = os.environ.get("REPRO_FAULT_INJECT", "")
            """
        for allowed in ("repro/obs/env.py", "repro/store/faults.py"):
            assert findings_of(snippet, allowed).findings == []

    def test_unrelated_os_usage_clean(self):
        report = findings_of(
            """
            import os
            HERE = os.path.dirname(__file__)
            CPUS = os.sched_getaffinity(0)
            """,
            "repro/store/workqueue.py",
        )
        assert report.findings == []

    def test_noqa_suppression_honoured(self):
        report = findings_of(
            """
            import os
            RAW = os.environ.get("HOME")  # repro: noqa[ENV001]
            """,
            "repro/io/reports.py",
        )
        assert report.findings == []
        assert rule_ids_suppressed(report) == ["ENV001"]


def rule_ids_suppressed(report) -> list:
    return [finding.rule for finding in report.suppressed]


# ----------------------------------------------------------------------
# POOL001 — pool machinery only in the scheduler
# ----------------------------------------------------------------------
class TestPoolSchedulerRule:
    @pytest.mark.parametrize(
        "statement",
        [
            "from concurrent.futures import TimeoutError as FuturesTimeout",
            "import concurrent.futures",
            "from concurrent import futures",
            "import multiprocessing",
            "from multiprocessing.pool import Pool",
        ],
    )
    def test_pool_imports_flagged(self, statement):
        report = findings_of(
            f"""
            def drain(futures):
                {statement}
                return futures
            """,
            "repro/engine/engine.py",
        )
        assert rule_ids(report) == ["POOL001"]
        assert "outside the pool scheduler" in report.findings[0].message

    @pytest.mark.parametrize(
        "call",
        [
            "workqueue.shared_pool(2).submit(fn)",
            "shared_pool(2).submit(fn)",
            "workqueue.discard_shared_pool()",
        ],
    )
    def test_raw_pool_access_flagged(self, call):
        report = findings_of(
            f"""
            from repro.store import workqueue
            from repro.store.workqueue import shared_pool

            def bypass(fn):
                return {call}

            MODULES = (workqueue, shared_pool)
            """,
            "repro/engine/engine.py",
        )
        assert rule_ids(report) == ["POOL001"]
        assert "called outside the pool scheduler" in report.findings[0].message

    def test_scheduler_module_allowed(self):
        report = findings_of(
            """
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            POOL = (multiprocessing.get_context, ProcessPoolExecutor)
            """,
            "repro/store/workqueue.py",
        )
        assert report.findings == []

    def test_scheduler_api_clean(self):
        report = findings_of(
            """
            import os
            from repro.store import workqueue

            def fan_out(items):
                scheduler = workqueue.PoolScheduler(2)
                return [scheduler.dispatch("task", os.getpid) for _ in items]
            """,
            "repro/engine/engine.py",
        )
        assert report.findings == []

    def test_noqa_suppression_honoured(self):
        report = findings_of(
            """
            import multiprocessing  # repro: noqa[POOL001]

            CONTEXT = multiprocessing.get_context
            """,
            "repro/engine/engine.py",
        )
        assert report.findings == []
        assert rule_ids_suppressed(report) == ["POOL001"]


# ----------------------------------------------------------------------
# EXC001 — silent broad-except swallows
# ----------------------------------------------------------------------
class TestSilentSwallowRule:
    @pytest.mark.parametrize(
        "body, kind",
        [("pass", "pass"), ("...", "..."), ("continue", "continue")],
    )
    def test_trivial_bodies_flagged(self, body, kind):
        loop_wrap = body == "continue"
        inner = f"""
            try:
                risky()
            except Exception:
                {body}
        """
        code = (
            "def f():\n    for _ in range(3):\n" + textwrap.indent(textwrap.dedent(inner), "        ")
            if loop_wrap
            else "def f():\n" + textwrap.indent(textwrap.dedent(inner), "    ")
        )
        report = lint_source(code, "repro/datalog/evaluation.py")
        assert rule_ids(report) == ["EXC001"]
        assert report.findings[0].detail["body_kind"] == kind

    def test_bare_except_flagged(self):
        report = findings_of(
            """
            def f():
                try:
                    risky()
                except:
                    pass
            """,
            "repro/core/solver.py",
        )
        assert rule_ids(report) == ["EXC001"]

    def test_tuple_containing_exception_flagged(self):
        report = findings_of(
            """
            def f():
                try:
                    risky()
                except (ValueError, Exception):
                    pass
            """,
            "repro/core/solver.py",
        )
        assert rule_ids(report) == ["EXC001"]

    def test_recording_handler_clean(self):
        report = findings_of(
            """
            def f(stats):
                try:
                    risky()
                except Exception:
                    stats["swallowed"] += 1
            """,
            "repro/core/solver.py",
        )
        assert report.findings == []

    def test_narrowed_type_clean(self):
        report = findings_of(
            """
            def f():
                try:
                    risky()
                except ValueError:
                    pass
            """,
            "repro/core/solver.py",
        )
        assert report.findings == []

    def test_noqa_suppression_honoured(self):
        report = findings_of(
            """
            def f():
                try:
                    risky()
                except Exception:  # repro: noqa[EXC001]
                    ...
            """,
            "repro/core/solver.py",
        )
        assert report.findings == []
        assert rule_ids_suppressed(report) == ["EXC001"]


# ----------------------------------------------------------------------
# ITER001 — unordered iteration in the deterministic fold paths
# ----------------------------------------------------------------------
class TestNondeterministicIterationRule:
    FOLD_PATH = "repro/store/workqueue.py"

    def test_for_over_set_call_flagged(self):
        report = findings_of(
            """
            def fold(items):
                out = []
                for item in set(items):
                    out.append(item)
                return out
            """,
            self.FOLD_PATH,
        )
        assert rule_ids(report) == ["ITER001"]

    def test_for_over_set_literal_flagged(self):
        report = findings_of(
            """
            def fold(a, b):
                for item in {a, b}:
                    handle(item)
            """,
            self.FOLD_PATH,
        )
        assert rule_ids(report) == ["ITER001"]

    def test_list_of_set_method_flagged(self):
        report = findings_of(
            """
            def fold(seen, new):
                return list(seen.intersection(new))
            """,
            self.FOLD_PATH,
        )
        assert rule_ids(report) == ["ITER001"]

    def test_ordered_comprehension_over_setcomp_flagged(self):
        report = findings_of(
            """
            def fold(items):
                return [x for x in {i.key for i in items}]
            """,
            self.FOLD_PATH,
        )
        assert rule_ids(report) == ["ITER001"]

    def test_keyed_min_over_set_flagged(self):
        report = findings_of(
            """
            def pick(candidates):
                return min(set(candidates), key=lambda c: c.cost)
            """,
            self.FOLD_PATH,
        )
        assert rule_ids(report) == ["ITER001"]

    def test_sorted_wrapping_clean(self):
        report = findings_of(
            """
            def fold(items, seen, new):
                out = []
                for item in sorted(set(items)):
                    out.append(item)
                out.extend(sorted(seen.intersection(new)))
                return min(sorted(set(items)), key=lambda c: c.cost)
            """,
            self.FOLD_PATH,
        )
        assert report.findings == []

    def test_unkeyed_min_over_set_clean(self):
        # min() of a value set is order-insensitive without a key.
        report = findings_of(
            """
            def pick(candidates):
                return min(set(candidates))
            """,
            self.FOLD_PATH,
        )
        assert report.findings == []

    def test_outside_fold_paths_not_scoped(self):
        report = findings_of(
            """
            def helper(items):
                return [x for x in set(items)]
            """,
            "repro/workloads/generators.py",
        )
        assert report.findings == []

    def test_noqa_suppression_honoured(self):
        report = findings_of(
            """
            def fold(counters):
                total = 0
                for value in set(counters):  # repro: noqa[ITER001] sum is commutative
                    total += value
                return total
            """,
            self.FOLD_PATH,
        )
        assert report.findings == []
        assert rule_ids_suppressed(report) == ["ITER001"]


# ----------------------------------------------------------------------
# TIME001 — wall-clock / entropy isolation
# ----------------------------------------------------------------------
class TestWallClockRule:
    def test_time_time_flagged(self):
        report = findings_of(
            """
            import time
            def stamp():
                return time.time()
            """,
            "repro/engine/engine.py",
        )
        assert rule_ids(report) == ["TIME001"]
        assert "time.time" in report.findings[0].message

    def test_from_import_flagged(self):
        report = findings_of(
            """
            from time import perf_counter
            def stamp():
                return perf_counter()
            """,
            "repro/automata/emptiness.py",
        )
        assert rule_ids(report) == ["TIME001"]

    def test_bare_reference_as_default_flagged(self):
        # Passing the clock function itself pins wall-clock behaviour.
        report = findings_of(
            """
            import time
            def run(clock=time.monotonic):
                return clock()
            """,
            "repro/core/solver.py",
        )
        assert rule_ids(report) == ["TIME001"]

    def test_datetime_now_flagged(self):
        report = findings_of(
            """
            from datetime import datetime
            def stamp():
                return datetime.now()
            """,
            "repro/io/reports.py",
        )
        assert rule_ids(report) == ["TIME001"]

    def test_module_level_random_flagged(self):
        report = findings_of(
            """
            import random
            def jitter():
                return random.random()
            """,
            "repro/store/workqueue.py",
        )
        assert rule_ids(report) == ["TIME001"]

    def test_seeded_random_instance_clean(self):
        report = findings_of(
            """
            import random
            def make_rng(seed):
                return random.Random(seed)
            """,
            "repro/workloads/generators.py",
        )
        assert report.findings == []

    def test_allowed_modules_clean(self):
        snippet = """
            import time
            def now():
                return time.monotonic()
            """
        for allowed in (
            "repro/core/budget.py",
            "repro/store/faults.py",
            "repro/obs/trace.py",
        ):
            assert findings_of(snippet, allowed).findings == []

    def test_time_sleep_clean(self):
        # Backoff sleeps change latency, never verdicts.
        report = findings_of(
            """
            import time
            def backoff(attempt):
                time.sleep(0.01 * attempt)
            """,
            "repro/store/workqueue.py",
        )
        assert report.findings == []

    def test_noqa_suppression_honoured(self):
        report = findings_of(
            """
            import time
            def profile():
                return time.perf_counter()  # repro: noqa[TIME001] latency only
            """,
            "repro/engine/engine.py",
        )
        assert report.findings == []
        assert rule_ids_suppressed(report) == ["TIME001"]


# ----------------------------------------------------------------------
# PKL001 — payload picklability
# ----------------------------------------------------------------------
class TestPayloadPicklabilityRule:
    PAYLOAD_PATH = "repro/automata/emptiness.py"

    def test_lambda_field_default_flagged(self):
        report = findings_of(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class ChainCheckpoint:
                path: tuple
                scorer = lambda self: 0
            """,
            self.PAYLOAD_PATH,
        )
        assert rule_ids(report) == ["PKL001"]
        assert "lambda" in report.findings[0].message

    def test_lock_field_flagged(self):
        report = findings_of(
            """
            import threading
            from dataclasses import dataclass

            @dataclass
            class ResumeFrontier:
                guard = threading.Lock()
            """,
            self.PAYLOAD_PATH,
        )
        assert rule_ids(report) == ["PKL001"]
        assert "lock" in report.findings[0].message

    def test_generator_assigned_in_init_flagged(self):
        report = findings_of(
            """
            class ChainOutcome:
                def __init__(self, items):
                    self.pending = (item for item in items)
            """,
            self.PAYLOAD_PATH,
        )
        assert rule_ids(report) == ["PKL001"]

    def test_open_handle_via_field_default_factory_flagged(self):
        report = findings_of(
            """
            from dataclasses import dataclass, field

            @dataclass
            class ChainOutcome:
                log = field(default_factory=lambda: open("/tmp/x", "w"))
            """,
            self.PAYLOAD_PATH,
        )
        assert rule_ids(report) == ["PKL001"]
        assert "file handle" in report.findings[0].message

    def test_result_envelope_is_a_payload_class(self):
        report = findings_of(
            """
            import dataclasses

            @dataclasses.dataclass(frozen=True)
            class Shipped:
                value: object
                hook = lambda self: 0
            """,
            "repro/store/workqueue.py",
        )
        assert rule_ids(report) == ["PKL001"]

    def test_plain_data_fields_clean(self):
        report = findings_of(
            """
            from dataclasses import dataclass, field
            from typing import Dict, Tuple

            @dataclass(frozen=True)
            class ChainCheckpoint:
                path: Tuple[int, ...]
                depth_limit: int = 0
                stats: Dict[str, int] = field(default_factory=dict)
            """,
            self.PAYLOAD_PATH,
        )
        assert report.findings == []

    def test_non_payload_class_not_scoped(self):
        report = findings_of(
            """
            class ScratchHelper:
                fn = lambda self: 0
            """,
            self.PAYLOAD_PATH,
        )
        assert report.findings == []

    def test_other_module_not_scoped(self):
        report = findings_of(
            """
            class ChainCheckpoint:
                fn = lambda self: 0
            """,
            "repro/workloads/generators.py",
        )
        assert report.findings == []

    def test_noqa_suppression_honoured(self):
        report = findings_of(
            """
            class SpanRecord:
                def __init__(self):
                    self.finalizer = lambda: None  # repro: noqa[PKL001]
            """,
            "repro/obs/trace.py",
        )
        assert report.findings == []
        assert rule_ids_suppressed(report) == ["PKL001"]


# ----------------------------------------------------------------------
# DEF001 — mutable default arguments
# ----------------------------------------------------------------------
class TestMutableDefaultRule:
    @pytest.mark.parametrize(
        "default", ["[]", "{}", "set()", "dict()", "list()", "[x for x in ()]"]
    )
    def test_mutable_defaults_flagged(self, default):
        report = findings_of(
            f"""
            def f(a, b={default}):
                return a, b
            """,
            "repro/core/solver.py",
        )
        assert rule_ids(report) == ["DEF001"]

    def test_keyword_only_default_flagged(self):
        report = findings_of(
            """
            def f(a, *, registry={}):
                return registry
            """,
            "repro/core/solver.py",
        )
        assert rule_ids(report) == ["DEF001"]

    def test_immutable_defaults_clean(self):
        report = findings_of(
            """
            def f(a=(), b=frozenset(), c=None, d="x", e=0):
                return a, b, c, d, e
            """,
            "repro/core/solver.py",
        )
        assert report.findings == []

    def test_noqa_suppression_honoured(self):
        report = findings_of(
            """
            def f(a, cache={}):  # repro: noqa[DEF001]
                return cache
            """,
            "repro/core/solver.py",
        )
        assert report.findings == []
        assert rule_ids_suppressed(report) == ["DEF001"]


# ----------------------------------------------------------------------
# FPR001 — fingerprint purity
# ----------------------------------------------------------------------
class TestFingerprintPurityRule:
    def test_id_in_fingerprint_function_flagged(self):
        report = findings_of(
            """
            class Snapshot:
                def fingerprint(self):
                    return (id(self), self.generation)
            """,
            "repro/store/snapshot.py",
        )
        assert rule_ids(report) == ["FPR001"]

    def test_id_in_key_helper_flagged(self):
        report = findings_of(
            """
            def try_key(payload):
                return ("task", id(payload))
            """,
            "repro/engine/reduction.py",
        )
        assert rule_ids(report) == ["FPR001"]

    def test_id_outside_key_functions_clean(self):
        # Scope-local caches keyed on id() are legal.
        report = findings_of(
            """
            def memo_lookup(cache, rule):
                return cache.get(id(rule))
            """,
            "repro/engine/engine.py",
        )
        assert report.findings == []

    def test_other_modules_not_scoped(self):
        report = findings_of(
            """
            def cache_key(sentence):
                return id(sentence)
            """,
            "repro/automata/emptiness.py",
        )
        assert report.findings == []

    def test_content_keys_clean(self):
        report = findings_of(
            """
            def fingerprint(snapshot):
                return ("snap", snapshot.content_hash())
            """,
            "repro/store/snapshot.py",
        )
        assert report.findings == []

    def test_noqa_suppression_honoured(self):
        report = findings_of(
            """
            def fingerprint(snapshot):
                return id(snapshot)  # repro: noqa[FPR001]
            """,
            "repro/store/snapshot.py",
        )
        assert report.findings == []
        assert rule_ids_suppressed(report) == ["FPR001"]


# ----------------------------------------------------------------------
# IMP001 — unused module-level imports
# ----------------------------------------------------------------------
class TestUnusedImportRule:
    def test_unused_names_flagged(self):
        report = findings_of(
            """
            import itertools
            import os.path
            from typing import Dict, List
            from repro.queries.ucq import UnionOfConjunctiveQueries as UCQ

            def f(values: List[int]) -> int:
                return len(values)
            """,
            "repro/automata/emptiness.py",
        )
        assert rule_ids(report) == ["IMP001"] * 4
        assert [finding.message for finding in report.findings] == [
            "unused import 'itertools'",
            "unused import 'os'",
            "unused import 'Dict'",
            "unused import 'UCQ'",
        ]
        # Each name is reported on its own line of a parenthesised import.
        report = findings_of(
            """
            from typing import (
                Dict,
                List,
            )

            VALUES: List[int] = []
            """,
            "repro/core/transition.py",
        )
        assert [(finding.line, finding.message) for finding in report.findings] == [
            (3, "unused import 'Dict'")
        ]

    def test_used_names_clean(self):
        report = findings_of(
            """
            from __future__ import annotations

            import os.path
            import weakref
            from collections import OrderedDict
            from typing import Optional
            from repro.queries.terms import Constant

            def f(value: Optional["OrderedDict[str, int]"]) -> "weakref.ref":
                return isinstance(value, Constant) and os.path.sep
            """,
            "repro/queries/evaluation.py",
        )
        assert report.findings == []

    def test_package_init_reexports_not_scoped(self):
        snippet = """
            from repro.queries.terms import Constant, Variable
            """
        assert findings_of(snippet, "repro/queries/__init__.py").findings == []
        assert rule_ids(findings_of(snippet, "repro/queries/atoms.py")) == ["IMP001"] * 2

    def test_noqa_suppression_honoured(self):
        report = findings_of(
            """
            from repro.analysis import hygiene as _hygiene  # repro: noqa[IMP001] registers rules
            """,
            "repro/analysis/driver.py",
        )
        assert report.findings == []
        assert rule_ids_suppressed(report) == ["IMP001"]


# ----------------------------------------------------------------------
# PRN001 — bare prints
# ----------------------------------------------------------------------
class TestBarePrintRule:
    def test_print_flagged(self):
        report = findings_of(
            """
            def debug(value):
                print("got", value)
            """,
            "repro/store/workqueue.py",
        )
        assert rule_ids(report) == ["PRN001"]

    def test_cli_and_lint_driver_allowed(self):
        snippet = """
            def emit(value):
                print(value)
            """
        for allowed in ("repro/cli.py", "repro/analysis/driver.py"):
            assert findings_of(snippet, allowed).findings == []

    def test_docstring_mention_clean(self):
        report = findings_of(
            '''
            def f():
                """Example::

                    print(f())
                """
                return 1
            ''',
            "repro/core/solver.py",
        )
        assert report.findings == []

    def test_noqa_suppression_honoured(self):
        report = findings_of(
            """
            def emit(value):
                print(value)  # repro: noqa[PRN001]
            """,
            "repro/io/reports.py",
        )
        assert report.findings == []
        assert rule_ids_suppressed(report) == ["PRN001"]


# ----------------------------------------------------------------------
# SQL002 — SQL text outside the codegen chokepoint / interpolated SQL
# ----------------------------------------------------------------------
class TestSqlChokepointRule:
    CODEGEN = "repro/store/sqlcodegen.py"

    def test_sql_text_outside_codegen_flagged(self):
        report = findings_of(
            """
            def fetch(conn, name):
                return conn.execute("SELECT c0 FROM t WHERE c0 = ?", (name,))
            """,
            "repro/store/sqlstore.py",
        )
        assert rule_ids(report) == ["SQL002"]

    def test_fstring_sql_outside_codegen_flagged(self):
        report = findings_of(
            """
            def drop(conn, table):
                conn.execute(f"DROP TABLE {table}")
            """,
            "repro/engine/engine.py",
        )
        assert rule_ids(report) == ["SQL002"]

    def test_docstring_sql_clean(self):
        report = findings_of(
            '''
            def layout():
                """SELECT statements are compiled in sqlcodegen; see there."""
                return None
            ''',
            "repro/store/sqlstore.py",
        )
        assert report.findings == []

    def test_lowercase_prose_clean(self):
        report = findings_of(
            """
            MESSAGE = "select a backend with REPRO_STORE_BACKEND"
            HINT = "update the baseline before committing"
            """,
            "repro/obs/env.py",
        )
        assert report.findings == []

    def test_join_assembly_inside_codegen_clean(self):
        report = findings_of(
            """
            def select_sql(table):
                return " ".join(["SELECT c0 FROM", table, "WHERE c0 = ?"])
            """,
            self.CODEGEN,
        )
        assert report.findings == []

    def test_fstring_sql_inside_codegen_flagged(self):
        report = findings_of(
            """
            def select_sql(table):
                return f"SELECT c0 FROM {table}"
            """,
            self.CODEGEN,
        )
        assert rule_ids(report) == ["SQL002"]

    def test_concat_and_format_sql_inside_codegen_flagged(self):
        report = findings_of(
            """
            def bad(table, value):
                a = "SELECT c0 FROM " + table
                b = "DELETE FROM %s" % table
                c = "UPDATE {} SET c0 = 1".format(table)
                return a, b, c
            """,
            self.CODEGEN,
        )
        assert rule_ids(report) == ["SQL002", "SQL002", "SQL002"]

    def test_non_sql_concat_inside_codegen_clean(self):
        report = findings_of(
            """
            def quote_ident(name):
                return '"' + name.replace('"', '""') + '"'
            """,
            self.CODEGEN,
        )
        assert report.findings == []

    def test_noqa_suppression_honoured(self):
        report = findings_of(
            """
            def fetch(conn):
                return conn.execute("SELECT 1")  # repro: noqa[SQL002]
            """,
            "repro/store/verdict_cache.py",
        )
        assert report.findings == []
        assert rule_ids_suppressed(report) == ["SQL002"]


# ----------------------------------------------------------------------
# Suppression semantics
# ----------------------------------------------------------------------
class TestSuppressions:
    SNIPPET = """
        import os
        RAW = os.environ.get("HOME"){marker}
        """

    def _with(self, marker: str):
        return findings_of(self.SNIPPET.format(marker=marker), "repro/io/reports.py")

    def test_wrong_rule_id_does_not_suppress(self):
        report = self._with("  # repro: noqa[TIME001]")
        assert rule_ids(report) == ["ENV001"]

    def test_bare_marker_suppresses_everything(self):
        report = self._with("  # repro: noqa")
        assert report.findings == []

    def test_multiple_ids_parse(self):
        report = self._with("  # repro: noqa[TIME001, ENV001]")
        assert report.findings == []

    def test_plain_flake8_noqa_is_ignored(self):
        report = self._with("  # noqa")
        assert rule_ids(report) == ["ENV001"]


# ----------------------------------------------------------------------
# Baseline mechanics
# ----------------------------------------------------------------------
class TestBaseline:
    def _finding_report(self):
        return findings_of(
            """
            import os
            A = os.environ.get("X")
            B = os.environ.get("Y")
            """,
            "repro/io/reports.py",
        )

    def test_matching_entries_absorb_findings(self):
        report = self._finding_report()
        entries = [
            BaselineEntry(f.rule, f.path, f.message, "grandfathered in test")
            for f in report.findings
        ]
        comparison = compare(report.findings, entries)
        assert comparison.clean
        assert len(comparison.matched) == 2

    def test_unbaselined_finding_is_new(self):
        report = self._finding_report()
        entries = [
            BaselineEntry(
                report.findings[0].rule,
                report.findings[0].path,
                report.findings[0].message,
                "one of two",
            )
        ]
        comparison = compare(report.findings, entries)
        # Same (rule, path, message) twice: one entry absorbs one finding.
        assert len(comparison.matched) == 1
        assert len(comparison.new_findings) == 1
        assert not comparison.stale_entries

    def test_stale_entry_detected(self):
        entries = [
            BaselineEntry("ENV001", "repro/gone.py", "direct environment access", "old")
        ]
        comparison = compare([], entries)
        assert not comparison.clean
        assert comparison.stale_entries == tuple(entries)

    def test_loader_requires_justification(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                [{"rule": "ENV001", "path": "repro/x.py", "message": "m"}]
            )
        )
        with pytest.raises(BaselineError, match="justification"):
            load_baseline(path)

    def test_loader_rejects_non_list(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"rule": "ENV001"}')
        with pytest.raises(BaselineError, match="JSON list"):
            load_baseline(path)

    def test_missing_file_is_empty_baseline(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == []

    def test_write_then_load_round_trip(self, tmp_path):
        report = self._finding_report()
        path = tmp_path / "baseline.json"
        write_baseline(report.findings, path)
        entries = load_baseline(path)
        assert compare(report.findings, entries).clean


# ----------------------------------------------------------------------
# Driver exit-code contract (0 clean / 1 findings / 2 internal error)
# ----------------------------------------------------------------------
class TestDriverContract:
    def _make_tree(self, tmp_path: Path, source: str) -> Path:
        package = tmp_path / "srcroot" / "repro"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "module.py").write_text(textwrap.dedent(source))
        return tmp_path / "srcroot"

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        root = self._make_tree(tmp_path, "VALUE = 1\n")
        code = lint_run(
            ["--root", str(root), "--baseline", str(tmp_path / "none.json")]
        )
        assert code == 0
        assert "OK:" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        root = self._make_tree(
            tmp_path,
            """
            import os
            RAW = os.environ.get("X")
            """,
        )
        code = lint_run(
            ["--root", str(root), "--baseline", str(tmp_path / "none.json")]
        )
        assert code == 1
        assert "ENV001" in capsys.readouterr().out

    def test_exit_one_on_stale_baseline(self, tmp_path, capsys):
        root = self._make_tree(tmp_path, "VALUE = 1\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                [
                    {
                        "rule": "ENV001",
                        "path": "repro/module.py",
                        "message": "gone",
                        "justification": "was fixed",
                    }
                ]
            )
        )
        code = lint_run(["--root", str(root), "--baseline", str(baseline)])
        assert code == 1
        assert "stale" in capsys.readouterr().out

    def test_exit_two_on_unparsable_source(self, tmp_path, capsys):
        root = self._make_tree(tmp_path, "def broken(:\n")
        code = lint_run(
            ["--root", str(root), "--baseline", str(tmp_path / "none.json")]
        )
        assert code == 2
        assert "internal error" in capsys.readouterr().out

    def test_exit_two_on_malformed_baseline(self, tmp_path, capsys):
        root = self._make_tree(tmp_path, "VALUE = 1\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text("not json at all {")
        code = lint_run(["--root", str(root), "--baseline", str(baseline)])
        assert code == 2

    def test_exit_two_on_unknown_explain(self, capsys):
        assert lint_run(["--explain", "NOPE999"]) == 2

    def test_explain_prints_catalogue_entry(self, capsys):
        assert lint_run(["--explain", "ENV001"]) == 0
        out = capsys.readouterr().out
        assert "ENV001" in out
        assert "invariant" in out
        assert "motivation" in out

    def test_explain_all_covers_every_rule(self, capsys):
        assert lint_run(["--explain", "all"]) == 0
        out = capsys.readouterr().out
        for rule_id in EXPECTED_RULE_IDS:
            assert rule_id in out

    def test_update_baseline_writes_skeleton(self, tmp_path, capsys):
        root = self._make_tree(
            tmp_path,
            """
            import os
            RAW = os.environ.get("X")
            """,
        )
        baseline = tmp_path / "baseline.json"
        code = lint_run(
            ["--root", str(root), "--baseline", str(baseline), "--update-baseline"]
        )
        assert code == 0
        entries = load_baseline(baseline)
        assert len(entries) == 1
        assert entries[0].rule == "ENV001"
        # The skeleton is accepted and the follow-up run is clean.
        assert lint_run(["--root", str(root), "--baseline", str(baseline)]) == 0
