"""Command-line interface to the library.

The CLI exposes the main entry points of the reproduction on the paper's
web-directory schema (or any named workload scenario):

``repro classify``
    Parse an AccLTL formula (see :mod:`repro.core.formula_parser` for the
    syntax) and report its fragment, the paper's complexity bound for that
    fragment and the decision procedure the solver would dispatch to.

``repro sat``
    Decide satisfiability of a formula and print the verdict, the procedure
    used and (for positive verdicts) a witnessing access path.

``repro translate``
    Rewrite a 0-ary AccLTL formula into the binding-positive fragment
    AccLTL+ (the Section 6 inclusion of Figure 2) and print the result in
    the same textual syntax.

``repro table1``
    Print the reproduction of the paper's Table 1 (complexity of
    satisfiability and expressible application classes per language).

``repro figure2``
    Print the Figure 2 language-inclusion diagram, either as text edges or
    as Graphviz DOT.

``repro lts``
    Explore a bounded fragment of the LTS induced by the schema (the shape
    of Figure 1) and print it as an ASCII tree or DOT.

``repro scenarios``
    List the named workload scenarios shipped with the library.

``repro matrix``
    Run a batched matrix workload (relevance of every candidate access,
    pairwise containment over a query set, or an answerability sweep)
    through the unified reduction engine (:mod:`repro.engine`) and report
    the verdicts together with the engine's dedup/memo statistics.
    ``--trace out.json`` records the run as nested spans (engine batch
    phases, emptiness chains) and writes a Chrome
    trace-event file loadable in ``chrome://tracing``.

``repro stats``
    Run a small matrix workload and dump the metrics registry snapshot
    (counters, histograms, live component views) as JSON — the
    serving-grade per-request statistics behind ``repro matrix``.

``repro env``
    List every ``REPRO_*`` environment knob the library reads: name,
    type, default, current value and whether it came from the
    environment or the default.

``repro cache``
    Inspect the persistent verdict store (``repro cache stats``), check
    every record's framing and checksum (``verify``; exit 0 clean,
    1 problems found, 2 store unreadable) or delete it (``clear``).
    The store path comes from ``--path`` or ``REPRO_MEMO_PERSIST_PATH``.

``repro lint``
    Run the contract linter (:mod:`repro.analysis`): AST rules enforcing
    the repo's determinism, picklability and hygiene invariants over
    ``src/repro``.  Exit codes follow the CI contract — 0 clean,
    1 findings (or stale baseline entries), 2 internal error.
    ``--explain RULE-ID`` prints a rule's invariant, motivation and fix.

``repro store``
    Manage persistent SQL-backed fact stores
    (:mod:`repro.store.sqlstore`): ``ingest`` streams a deterministic
    scaling workload (100k–10M facts) into an on-disk store, ``info``
    prints a store's schema and per-relation counts, and ``verify``
    recomputes the content fingerprint row by row against the recorded
    counters (exit 0 clean, 1 mismatch found, 2 store unreadable).

Run ``repro <command> --help`` for the options of each command.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.access.lts import explore
from repro.access.methods import AccessSchema
from repro.core.formula_parser import format_formula, parse_formula
from repro.core.fragments import COMPLEXITY, Fragment, inclusion_order
from repro.core.inclusions import zeroary_to_plus
from repro.core.solver import AccLTLSolver
from repro.core.vocabulary import AccessVocabulary
from repro.io.dot import inclusion_diagram_to_dot, lts_to_dot
from repro.io.reports import Table
from repro.relational.instance import Instance
from repro.workloads.directory import directory_access_schema, directory_hidden_instance
from repro.workloads.scenarios import Scenario, standard_scenarios

#: Table 1 of the paper: language, complexity, and application columns
#: (DjC = disjointness constraints, FD = functional dependencies,
#: DF = dataflow restrictions, AccOr = access-order restrictions).
TABLE1_ROWS = [
    ("AccLTL(FO∃+,≠_Acc)", Fragment.ACCLTL_FULL_INEQ, "Yes", "Yes", "Yes", "Yes"),
    ("AccLTL(FO∃+_Acc)", Fragment.ACCLTL_FULL, "Yes", "No", "Yes", "Yes"),
    ("AccLTL+", Fragment.ACCLTL_PLUS, "Yes", "No", "Yes", "Yes"),
    ("A-automata", None, "Yes", "No", "Yes", "Yes"),
    ("AccLTL(FO∃+_0-Acc)", Fragment.ACCLTL_ZEROARY, "Yes", "No", "No", "Yes"),
    ("AccLTL(FO∃+,≠_0-Acc)", Fragment.ACCLTL_ZEROARY_INEQ, "Yes", "Yes", "No", "Yes"),
    ("AccLTL(X)(FO∃+,≠_0-Acc)", Fragment.ACCLTL_X_ZEROARY, "Yes", "Yes", "No", "No"),
]


# ----------------------------------------------------------------------
# Scenario / schema selection
# ----------------------------------------------------------------------
def _scenario_by_name(name: str) -> Scenario:
    for scenario in standard_scenarios():
        if scenario.name == name:
            return scenario
    known = ", ".join(s.name for s in standard_scenarios())
    raise SystemExit(f"unknown scenario {name!r}; known scenarios: {known}")


def _select_schema(args: argparse.Namespace) -> AccessSchema:
    if getattr(args, "scenario", None):
        return _scenario_by_name(args.scenario).access_schema
    return directory_access_schema()


def _select_hidden(args: argparse.Namespace) -> Instance:
    if getattr(args, "scenario", None):
        return _scenario_by_name(args.scenario).hidden_instance
    return directory_hidden_instance(getattr(args, "size", "small"))


# ----------------------------------------------------------------------
# Subcommand implementations (each returns a process exit code)
# ----------------------------------------------------------------------
def cmd_classify(args: argparse.Namespace) -> int:
    schema = _select_schema(args)
    vocabulary = AccessVocabulary.of(schema)
    formula = parse_formula(args.formula, vocabulary)
    report = AccLTLSolver(schema).classify(formula)
    print(f"formula     : {formula}")
    print(f"fragment    : {report.fragment.value}")
    print(f"complexity  : {report.complexity}")
    print(f"decidable   : {report.decidable}")
    print(f"temporal ops: {', '.join(sorted(report.temporal_operators)) or '(none)'}")
    print(f"n-ary IsBind: {report.uses_nary_binding}"
          f"{' (with negative occurrences)' if report.nary_binding_negative and report.uses_nary_binding else ''}")
    print(f"inequalities: {report.uses_inequalities}")
    return 0


def cmd_sat(args: argparse.Namespace) -> int:
    schema = _select_schema(args)
    vocabulary = AccessVocabulary.of(schema)
    formula = parse_formula(args.formula, vocabulary)
    solver = AccLTLSolver(schema)
    result = solver.satisfiable(
        formula,
        grounded_only=args.grounded,
        max_paths=args.max_paths,
        bounded_path_length=args.bounded_length,
    )
    print(f"fragment   : {result.fragment.value}")
    print(f"procedure  : {result.procedure}")
    print(f"satisfiable: {result.satisfiable}")
    print(f"certain    : {result.certain}")
    if result.witness is not None:
        print("witness path:")
        for index, step in enumerate(result.witness):
            print(f"  {index + 1}. {step}")
    return 0 if result.satisfiable or result.certain else 1


def cmd_translate(args: argparse.Namespace) -> int:
    schema = _select_schema(args)
    vocabulary = AccessVocabulary.of(schema)
    formula = parse_formula(args.formula, vocabulary)
    solver = AccLTLSolver(schema)
    before = solver.classify(formula)
    translated = zeroary_to_plus(formula, vocabulary)
    after = solver.classify(translated)
    print(f"input fragment : {before.fragment.value}")
    print(f"output fragment: {after.fragment.value}")
    print(f"translated     : {format_formula(translated)}")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    table = Table(
        headers=("Language", "Complexity", "DjC", "FD", "DF", "AccOr"),
        title="Table 1: Complexity and application examples for path specifications",
    )
    for label, fragment, djc, fd, df, accor in TABLE1_ROWS:
        complexity = (
            COMPLEXITY[fragment] if fragment is not None else "2EXPTIME-complete"
        )
        table.add_row(label, complexity, djc, fd, df, accor)
    print(table.render())
    return 0


def cmd_figure2(args: argparse.Namespace) -> int:
    if args.dot:
        print(inclusion_diagram_to_dot())
        return 0
    print("Figure 2: inclusions between language classes (small ⊆ large)")
    for small, large in inclusion_order():
        print(f"  {small.value}  ⊆  {large.value}")
    print(f"  {Fragment.ACCLTL_PLUS.value}  ⊆  A-automata (up to language equivalence)")
    return 0


def cmd_lts(args: argparse.Namespace) -> int:
    schema = _select_schema(args)
    hidden = _select_hidden(args) if args.hidden else None
    lts = explore(
        schema,
        hidden_instance=hidden,
        max_depth=args.depth,
        max_response_size=args.response_size,
        grounded_only=args.grounded,
        max_nodes=args.max_nodes,
    )
    nodes, transitions = lts.size()
    print(f"explored LTS fragment: {nodes} nodes, {transitions} transitions")
    if args.dot:
        print(lts_to_dot(lts))
    else:
        print(lts.render_tree(max_depth=args.depth))
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    from repro.engine import DecisionEngine
    from repro.workloads.matrices import (
        instance_prefixes,
        probe_accesses,
        query_workload,
    )

    tracing = getattr(args, "trace", None) is not None
    if tracing:
        from repro.obs import trace

        trace.set_enabled(True)
        trace.reset()

    if getattr(args, "scenario", None):
        scenario = _scenario_by_name(args.scenario)
        schema = scenario.access_schema
        hidden = scenario.hidden_instance
        query_one, query_two = scenario.query_one, scenario.query_two
    else:
        from repro.workloads.directory import join_query, resident_names_query

        schema = directory_access_schema()
        hidden = directory_hidden_instance(getattr(args, "size", "small"))
        query_one, query_two = join_query(), resident_names_query()

    budget = None
    if getattr(args, "deadline", None) is not None:
        from repro.core.budget import Budget

        budget = Budget(deadline_s=args.deadline)
    engine = DecisionEngine()
    if args.kind == "relevance":
        accesses = probe_accesses(schema, hidden, limit=args.limit)
        if args.stream or budget is not None:
            from repro.workloads.matrices import stream_relevance_matrix

            streamed = stream_relevance_matrix(
                engine,
                schema,
                accesses,
                query_one,
                grounded=args.grounded,
                require_boolean_access=False,
                budget=budget,
            )
            results = streamed.values
            print(
                f"first verdict after {streamed.first_verdict_s * 1000:.1f} ms, "
                f"batch total {streamed.total_s * 1000:.1f} ms"
            )
        else:
            results = engine.relevance_matrix(
                schema,
                accesses,
                query_one,
                grounded=args.grounded,
                require_boolean_access=False,
            )
        relevant = sum(
            1 for result in results if result is not None and result.relevant
        )
        missed = sum(1 for result in results if result is None)
        print(f"relevance matrix: {len(accesses)} candidate accesses, "
              f"{relevant} long-term relevant"
              + (f", {missed} past the deadline" if missed else ""))
        if args.verbose:
            for access, result in zip(accesses, results):
                tag = "?" if result is None else ("+" if result.relevant else "-")
                print(f"  {tag} {access}")
    elif args.kind == "containment":
        queries = query_workload([query_one, query_two], resubmissions=args.resubmissions)
        matrix = engine.containment_matrix(schema, queries, budget=budget)
        print(f"containment matrix: {len(queries)}x{len(queries)} pairs")
        for row_index, row in enumerate(matrix):
            cells = " ".join(
                "?" if cell is None else ("⊑" if cell.contained else "⋢")
                for cell in row
            )
            print(f"  Q{row_index}: {cells}")
    else:  # answerability
        prefixes = instance_prefixes(hidden, steps=args.steps)
        verdicts = engine.answerability_sweep(
            schema,
            query_one,
            prefixes,
            initial_values=scenario_initial(args),
            budget=budget,
        )
        print(f"answerability sweep over {len(prefixes)} instance prefixes:")
        for prefix, verdict in zip(prefixes, verdicts):
            print(f"  |hidden|={prefix.size():4d}  answerable={verdict}")
    stats = engine.stats()
    print(
        f"engine: {stats['requests']} requests, {stats['computed']} computed, "
        f"{stats['batch_dedup_hits']} dedup hits, {stats['memo_hits']} memo hits "
        f"(cross-request hit rate {stats['cross_request_hit_rate']})"
    )
    summary = engine.last_batch_summary()
    if summary["requests"]:
        provenance = ", ".join(
            f"{count} {tag}" for tag, count in sorted(summary["by_provenance"].items())
        )
        print(
            f"last batch: {summary['requests']} results ({provenance}); "
            f"first verdict {summary['first_verdict_s'] * 1000:.1f} ms, "
            f"total {summary['total_s'] * 1000:.1f} ms"
        )
    if tracing:
        from repro.obs import export, trace

        spans = trace.take_spans()
        export.write_chrome_trace(spans, args.trace)
        flat = sum(1 for root in spans for _ in root.walk())
        print(f"trace: {flat} spans written to {args.trace} (Chrome trace-event format)")
    return 0


def scenario_initial(args: argparse.Namespace) -> tuple:
    """Initial known values for the answerability sweep (scenario's, if any)."""
    if getattr(args, "scenario", None):
        return tuple(_scenario_by_name(args.scenario).initial_values)
    return ("Smith",)


def cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.engine import DecisionEngine
    from repro.obs import metrics
    from repro.workloads.matrices import probe_accesses

    metrics.reset()
    schema = _select_schema(args)
    hidden = _select_hidden(args)
    if getattr(args, "scenario", None):
        query = _scenario_by_name(args.scenario).query_one
    else:
        from repro.workloads.directory import join_query

        query = join_query()
    engine = DecisionEngine()
    accesses = probe_accesses(schema, hidden, limit=args.limit)
    engine.relevance_matrix(
        schema, accesses, query, grounded=False, require_boolean_access=False
    )
    print(json.dumps(metrics.snapshot(), indent=2, sort_keys=True, default=str))
    return 0


def cmd_env(args: argparse.Namespace) -> int:
    from repro.obs import env as envknobs

    rows = [knob.current() for knob in envknobs.all_knobs()]
    if args.json:
        import json

        print(json.dumps(rows, indent=2, default=str))
        return 0
    name_width = max(len(str(row["name"])) for row in rows)
    value_width = max(len(str(row["value"])) for row in rows)
    print(f"{'knob':<{name_width}}  {'value':<{value_width}}  source  (kind, default)")
    for row in rows:
        print(
            f"{row['name']:<{name_width}}  {str(row['value']):<{value_width}}  "
            f"{row['source']:<7} ({row['kind']}, default {row['default']})"
        )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.driver import run as lint_run

    forwarded = []
    if args.json:
        forwarded.append("--json")
    if args.baseline is not None:
        forwarded.extend(["--baseline", args.baseline])
    if args.update_baseline:
        forwarded.append("--update-baseline")
    if args.explain is not None:
        forwarded.extend(["--explain", args.explain])
    if args.root is not None:
        forwarded.extend(["--root", args.root])
    return lint_run(forwarded, prog="repro lint")


def cmd_cache(args: argparse.Namespace) -> int:
    """``repro cache {stats,verify,clear}`` over the persistent verdict store.

    Exit codes (``verify``): 0 — every record of every segment verified
    clean; 1 — at least one corrupt/truncated/mis-versioned record or
    segment; 2 — the store could not be examined at all (no path
    configured, unreadable directory).
    """
    import json
    import os

    from repro.obs.env import MEMO_PERSIST_PATH_ENV, raw_string
    from repro.store.verdict_cache import clear_store, store_stats, verify_store

    path = args.path or raw_string(MEMO_PERSIST_PATH_ENV, "").strip()
    if not path:
        print(
            "no verdict store configured: pass --path or set "
            f"{MEMO_PERSIST_PATH_ENV}"
        )
        return 2
    if args.cache_command == "stats":
        if not os.path.isdir(path):
            print(f"no verdict store at {path!r}")
            return 2
        print(json.dumps(store_stats(path), indent=2, sort_keys=True))
        return 0
    if args.cache_command == "verify":
        if not os.path.isdir(path):
            print(f"no verdict store at {path!r}")
            return 2
        report = verify_store(path)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["ok"] else 1
    if args.cache_command == "clear":
        removed = clear_store(path)
        print(f"removed {removed} file(s) from {path!r}")
        return 0
    print("usage: repro cache {stats,verify,clear}")
    return 2


def cmd_store(args: argparse.Namespace) -> int:
    """``repro store {info,ingest,verify}`` over persistent SQL stores.

    Exit codes: 0 — success (``verify``: every check clean); 1 —
    ``verify`` found a counter/fingerprint/integrity mismatch; 2 — the
    store could not be opened (missing path, not a store, corrupt
    database header).
    """
    import json
    import sqlite3

    from repro.relational.schema import SchemaError
    from repro.store.sqlstore import SQLStoreInstance

    if args.store_command == "ingest":
        from repro.workloads import scaling

        if args.workload == "grid-reach":
            schema = scaling.grid_reach_schema()
            facts = scaling.grid_reach_facts(args.facts)
        else:
            schema = scaling.chain_join_schema()
            facts = scaling.chain_join_facts(args.facts)
        try:
            store = SQLStoreInstance(schema, args.path)
        except (SchemaError, sqlite3.Error) as error:
            print(f"cannot ingest into {args.path!r}: {error}")
            return 2
        try:
            added = store.add_facts(facts)
            store.snapshot()  # the durability point of the whole batch
            print(
                json.dumps(
                    {
                        "path": args.path,
                        "workload": args.workload,
                        "added": added,
                        "size": store.size(),
                        "relations": {
                            name: count
                            for name, count in store.relation_counts().items()
                            if count
                        },
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        finally:
            store.close()
        return 0

    try:
        store = SQLStoreInstance.open(args.path)
    except (FileNotFoundError, SchemaError, sqlite3.Error) as error:
        print(f"no SQL store at {args.path!r}: {error}")
        return 2
    try:
        if args.store_command == "info":
            from repro.obs.env import (
                DEFAULT_SQL_PUSHDOWN_MIN_ROWS,
                SQL_PUSHDOWN_MIN_ROWS_ENV,
                positive_int,
            )

            print(
                json.dumps(
                    {
                        "path": args.path,
                        "backend": "sqlite",
                        "schema": {
                            name: store.schema.arity(name)
                            for name in store.schema.names()
                        },
                        "size": store.size(),
                        "relations": {
                            name: count
                            for name, count in store.relation_counts().items()
                            if count
                        },
                        "pushdown_min_rows": positive_int(
                            SQL_PUSHDOWN_MIN_ROWS_ENV,
                            DEFAULT_SQL_PUSHDOWN_MIN_ROWS,
                        ),
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        report = store.verify()
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["ok"] else 1
    finally:
        store.close()


def cmd_scenarios(args: argparse.Namespace) -> int:
    for scenario in standard_scenarios():
        print(scenario.describe())
        if args.verbose:
            print(f"    Q1: {scenario.query_one}")
            print(f"    Q2: {scenario.query_two}")
            print(f"    probe access: {scenario.probe_access}")
    return 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Querying Schemas With Access Restrictions' "
            "(VLDB 2012): AccLTL fragments, A-automata and access-path analysis."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_scenario_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--scenario",
            help="name of a workload scenario (default: the web-directory schema)",
        )

    classify = subparsers.add_parser(
        "classify", help="classify an AccLTL formula into the Table 1 hierarchy"
    )
    classify.add_argument("formula", help="formula text, e.g. 'G [Mobile_pre(a,b,c,d)]'")
    add_scenario_option(classify)
    classify.set_defaults(func=cmd_classify)

    sat = subparsers.add_parser("sat", help="decide satisfiability of a formula")
    sat.add_argument("formula", help="formula text")
    sat.add_argument("--grounded", action="store_true", help="restrict to grounded paths")
    sat.add_argument("--max-paths", type=int, default=40000, help="search budget")
    sat.add_argument(
        "--bounded-length",
        type=int,
        default=4,
        help="path-length bound for the undecidable fragments' reference search",
    )
    add_scenario_option(sat)
    sat.set_defaults(func=cmd_sat)

    translate = subparsers.add_parser(
        "translate",
        help="rewrite a 0-ary formula into AccLTL+ (the Section 6 inclusion)",
    )
    translate.add_argument("formula", help="formula text in the 0-ary fragment")
    add_scenario_option(translate)
    translate.set_defaults(func=cmd_translate)

    table1 = subparsers.add_parser("table1", help="print the reproduced Table 1")
    table1.set_defaults(func=cmd_table1)

    figure2 = subparsers.add_parser(
        "figure2", help="print the Figure 2 inclusion diagram"
    )
    figure2.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    figure2.set_defaults(func=cmd_figure2)

    lts = subparsers.add_parser(
        "lts", help="explore a bounded fragment of the schema's LTS (Figure 1)"
    )
    lts.add_argument("--depth", type=int, default=2, help="maximal path length")
    lts.add_argument("--response-size", type=int, default=1, help="max synthesised response size")
    lts.add_argument("--grounded", action="store_true", help="grounded accesses only")
    lts.add_argument("--max-nodes", type=int, default=200, help="node cap")
    lts.add_argument(
        "--hidden",
        action="store_true",
        help="draw responses from the hidden instance instead of synthesising them",
    )
    lts.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    lts.add_argument("--size", default="small", help="hidden instance size (small/medium/large)")
    add_scenario_option(lts)
    lts.set_defaults(func=cmd_lts)

    scenarios = subparsers.add_parser("scenarios", help="list the named workload scenarios")
    scenarios.add_argument("--verbose", action="store_true", help="show queries and probe accesses")
    scenarios.set_defaults(func=cmd_scenarios)

    matrix = subparsers.add_parser(
        "matrix",
        help="run a batched matrix workload through the unified reduction engine",
    )
    matrix.add_argument(
        "kind",
        choices=("relevance", "containment", "answerability"),
        help="which decision procedure to run as a matrix workload",
    )
    matrix.add_argument("--limit", type=int, default=None, help="cap the candidate access list")
    matrix.add_argument("--grounded", action="store_true", help="grounded accesses only (relevance)")
    matrix.add_argument(
        "--resubmissions",
        type=int,
        default=2,
        help="structurally-equal copies of each query (containment; shows dedup)",
    )
    matrix.add_argument("--steps", type=int, default=4, help="sweep granularity (answerability)")
    matrix.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="batch budget in seconds: expired tasks report '?' instead of blocking",
    )
    matrix.add_argument(
        "--stream",
        action="store_true",
        help="consume results as they land and report first-verdict latency (relevance)",
    )
    matrix.add_argument("--verbose", action="store_true", help="per-request verdicts")
    matrix.add_argument("--size", default="small", help="hidden instance size (small/medium/large)")
    matrix.add_argument(
        "--trace",
        metavar="OUT.json",
        default=None,
        help="record the run as spans and write a chrome://tracing JSON file",
    )
    add_scenario_option(matrix)
    matrix.set_defaults(func=cmd_matrix)

    stats = subparsers.add_parser(
        "stats",
        help="run a small relevance workload and dump the metrics registry as JSON",
    )
    stats.add_argument("--limit", type=int, default=None, help="cap the candidate access list")
    stats.add_argument("--size", default="small", help="hidden instance size (small/medium/large)")
    add_scenario_option(stats)
    stats.set_defaults(func=cmd_stats)

    env = subparsers.add_parser(
        "env", help="list every REPRO_* environment knob, its value and source"
    )
    env.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    env.set_defaults(func=cmd_env)

    lint = subparsers.add_parser(
        "lint",
        help="run the contract linter over src/repro "
        "(exit 0 clean, 1 findings, 2 internal error)",
    )
    lint.add_argument("--json", action="store_true", help="emit a JSON report")
    lint.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline of grandfathered findings "
        "(default: LINT_BASELINE.json at the repo root)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to the current findings and exit 0",
    )
    lint.add_argument(
        "--explain",
        metavar="RULE-ID",
        default=None,
        help="print a rule's catalogue entry ('all' for the whole catalogue)",
    )
    lint.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help="source root containing the repro package",
    )
    lint.set_defaults(func=cmd_lint)

    cache = subparsers.add_parser(
        "cache",
        help="inspect, verify or clear the persistent verdict store "
        "(verify: exit 0 clean, 1 bad records, 2 no store)",
    )
    cache.add_argument(
        "cache_command",
        choices=("stats", "verify", "clear"),
        help="stats: segment/record counts; verify: re-checksum every "
        "record; clear: remove all segments",
    )
    cache.add_argument(
        "--path",
        default=None,
        help="store directory (default: the REPRO_MEMO_PERSIST_PATH knob)",
    )
    cache.set_defaults(func=cmd_cache)

    store = subparsers.add_parser(
        "store",
        help="manage persistent SQL-backed fact stores "
        "(verify: exit 0 clean, 1 mismatch, 2 no store)",
    )
    store.add_argument(
        "store_command",
        choices=("info", "ingest", "verify"),
        help="info: schema + per-relation counts; ingest: stream a "
        "scaling workload into the store; verify: recompute counters "
        "and fingerprint against the recorded metadata",
    )
    store.add_argument(
        "--path", required=True, help="SQLite database file of the store"
    )
    store.add_argument(
        "--workload",
        choices=("grid-reach", "chain-join"),
        default="grid-reach",
        help="which deterministic fact family to ingest (ingest only)",
    )
    store.add_argument(
        "--facts",
        type=int,
        default=100_000,
        help="number of facts to stream in (ingest only)",
    )
    store.set_defaults(func=cmd_store)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
