"""Tests for the Datalog substrate: programs, evaluation, expansions, containment."""

import gc
import weakref

import pytest

from repro.datalog.containment import (
    datalog_contained_in_ucq,
    expansion_canonical_databases,
    find_counterexample_database,
    nonrecursive_program_to_ucq,
)
from repro.datalog import evaluation as datalog_evaluation
from repro.datalog.evaluation import (
    FixedpointTruncated,
    _BODY_QUERY_CACHE,
    _body_query,
    accepts,
    evaluate_program,
    fixedpoint_generations,
    goal_facts,
)
from repro.datalog.expansion import count_expansions, expansions
from repro.datalog.program import DatalogError, DatalogProgram, Rule
from repro.queries.atoms import Atom, Equality, Inequality
from repro.queries.parser import parse_cq, parse_ucq
from repro.queries.terms import Constant, Variable
from repro.relational.instance import Instance
from repro.relational.schema import make_schema
from repro.store.snapshot import SnapshotInstance


def var(name):
    return Variable(name)


@pytest.fixture
def edge_schema():
    return make_schema({"Edge": 2})


@pytest.fixture
def tc_program(edge_schema):
    """Transitive closure of Edge with goal Path."""
    rules = [
        Rule(head=Atom("Path", (var("x"), var("y"))), body=(Atom("Edge", (var("x"), var("y"))),)),
        Rule(
            head=Atom("Path", (var("x"), var("z"))),
            body=(Atom("Edge", (var("x"), var("y"))), Atom("Path", (var("y"), var("z")))),
        ),
    ]
    return DatalogProgram(rules=rules, edb_schema=edge_schema, goal="Path")


@pytest.fixture
def chain_db(edge_schema):
    instance = Instance(edge_schema)
    instance.add_all("Edge", [("a", "b"), ("b", "c"), ("c", "d")])
    return instance


class TestProgramValidation:
    def test_unsafe_rule_rejected(self):
        with pytest.raises(DatalogError):
            Rule(head=Atom("P", (var("x"),)), body=())

    def test_edb_head_rejected(self, edge_schema):
        rule = Rule(head=Atom("Edge", (var("x"), var("y"))), body=(Atom("Edge", (var("x"), var("y"))),))
        with pytest.raises(DatalogError):
            DatalogProgram(rules=[rule], edb_schema=edge_schema, goal="Edge")

    def test_arity_mismatch_rejected(self, edge_schema):
        rules = [
            Rule(head=Atom("P", (var("x"),)), body=(Atom("Edge", (var("x"), var("y"))),)),
            Rule(head=Atom("P", (var("x"), var("y"))), body=(Atom("Edge", (var("x"), var("y"))),)),
        ]
        with pytest.raises(DatalogError):
            DatalogProgram(rules=rules, edb_schema=edge_schema, goal="P")

    def test_unknown_goal_rejected(self, edge_schema):
        rules = [Rule(head=Atom("P", (var("x"),)), body=(Atom("Edge", (var("x"), var("y"))),))]
        with pytest.raises(DatalogError):
            DatalogProgram(rules=rules, edb_schema=edge_schema, goal="Missing")

    def test_recursion_detection(self, tc_program, edge_schema):
        assert not tc_program.is_nonrecursive()
        nonrec = DatalogProgram(
            rules=[Rule(head=Atom("P", (var("x"),)), body=(Atom("Edge", (var("x"), var("y"))),))],
            edb_schema=edge_schema,
            goal="P",
        )
        assert nonrec.is_nonrecursive()
        assert nonrec.dependency_order() == ["P"]

    def test_idb_names_and_size(self, tc_program):
        assert tc_program.idb_names == frozenset({"Path"})
        assert tc_program.size() > 0


class TestEvaluation:
    def test_transitive_closure(self, tc_program, chain_db):
        result = goal_facts(tc_program, chain_db)
        assert ("a", "d") in result
        assert ("a", "b") in result
        assert len(result) == 6

    def test_naive_and_semi_naive_agree(self, tc_program, chain_db):
        semi = evaluate_program(tc_program, chain_db, semi_naive=True)
        naive = evaluate_program(tc_program, chain_db, semi_naive=False)
        assert semi.tuples("Path") == naive.tuples("Path")

    def test_accepts(self, tc_program, chain_db, edge_schema):
        assert accepts(tc_program, chain_db)
        assert not accepts(tc_program, Instance(edge_schema))

    def test_constants_in_rules(self, edge_schema, chain_db):
        rules = [
            Rule(
                head=Atom("FromA", (var("y"),)),
                body=(Atom("Edge", (Constant("a"), var("y"))),),
            )
        ]
        program = DatalogProgram(rules=rules, edb_schema=edge_schema, goal="FromA")
        assert goal_facts(program, chain_db) == frozenset({("b",)})

    def test_max_rounds_limits_fixedpoint(self, tc_program, chain_db):
        limited = evaluate_program(
            tc_program, chain_db, max_rounds=1, allow_truncation=True
        )
        assert len(limited.tuples("Path")) < 6

    def test_store_backed_by_default(self, tc_program, chain_db):
        fixedpoint = evaluate_program(tc_program, chain_db)
        assert isinstance(fixedpoint, SnapshotInstance)
        legacy = evaluate_program(tc_program, chain_db, store_backed=False)
        assert isinstance(legacy, Instance)
        assert fixedpoint.freeze() == legacy.freeze()

    def test_generation_log_requires_store(self, tc_program, chain_db):
        with pytest.raises(ValueError):
            evaluate_program(
                tc_program, chain_db, store_backed=False, generation_log=[]
            )

    def test_empty_body_rule_fires(self, edge_schema, chain_db):
        # No delta variant exists for an empty body; the full-join path
        # must still derive the constant fact.
        rules = [
            Rule(head=Atom("Seed", (Constant("k"),)), body=()),
            Rule(
                head=Atom("Both", (var("y"),)),
                body=(Atom("Seed", (var("y"),)),),
            ),
        ]
        program = DatalogProgram(rules=rules, edb_schema=edge_schema, goal="Both")
        assert goal_facts(program, chain_db) == frozenset({("k",)})

    def test_rules_with_comparisons(self, edge_schema, chain_db):
        rules = [
            Rule(
                head=Atom("Hop", (var("x"), var("z"))),
                body=(
                    Atom("Edge", (var("x"), var("y"))),
                    Atom("Edge", (var("y"), var("z"))),
                ),
                inequalities=(Inequality(var("x"), var("z")),),
            )
        ]
        program = DatalogProgram(rules=rules, edb_schema=edge_schema, goal="Hop")
        for store in (True, False):
            result = evaluate_program(program, chain_db, store_backed=store)
            assert result.tuples("Hop") == frozenset({("a", "c"), ("b", "d")})


class TestTruncationSurfaced:
    def test_truncated_run_raises_by_default(self, tc_program, chain_db):
        with pytest.raises(FixedpointTruncated) as excinfo:
            evaluate_program(tc_program, chain_db, max_rounds=1)
        # The exception carries the partial state for diagnostics.
        assert excinfo.value.rounds == 1
        assert len(excinfo.value.state.tuples("Path")) < 6

    def test_sufficient_budget_converges_without_raising(
        self, tc_program, chain_db
    ):
        # The chain needs 3 derivation rounds plus one empty round to
        # *verify* convergence; a budget of 4 therefore succeeds.
        full = evaluate_program(tc_program, chain_db, max_rounds=4)
        assert len(full.tuples("Path")) == 6

    def test_exact_round_budget_is_still_truncation(self, tc_program, chain_db):
        # Round 3 derives the last fact, so a 3-round budget never
        # observes an empty round: convergence is unverified and the run
        # must be reported truncated, not silently returned.
        with pytest.raises(FixedpointTruncated):
            evaluate_program(tc_program, chain_db, max_rounds=3)
        truncated = evaluate_program(
            tc_program, chain_db, max_rounds=3, allow_truncation=True
        )
        assert len(truncated.tuples("Path")) == 6

    def test_truncated_accepts_cannot_report_wrong_verdict(
        self, tc_program, chain_db
    ):
        # accepts/goal_facts run with no round budget, so they can never
        # silently build a verdict on a truncated fixedpoint.
        assert accepts(tc_program, chain_db)
        assert len(goal_facts(tc_program, chain_db)) == 6

    def test_fixedpoint_generations_surfaces_truncation(
        self, tc_program, chain_db
    ):
        with pytest.raises(FixedpointTruncated):
            fixedpoint_generations(tc_program, chain_db, max_rounds=1)
        partial = fixedpoint_generations(
            tc_program, chain_db, max_rounds=1, allow_truncation=True
        )
        assert len(partial) == 2  # the seed generation + one round

    def test_naive_mode_truncates_identically(self, tc_program, chain_db):
        with pytest.raises(FixedpointTruncated):
            evaluate_program(tc_program, chain_db, max_rounds=1, semi_naive=False)


class TestBodyQueryCache:
    def _rule(self, tag):
        return Rule(
            head=Atom("P", (var("x"),)),
            body=(Atom("Edge", (var("x"), Constant(tag))),),
        )

    def test_stale_identity_entry_is_rejected(self):
        # The id()-recycling scenario the ``cached[0] is rule`` guard
        # defends against: an entry keyed at this rule's id() but pinning
        # a *different* rule must never be served.
        r1 = self._rule("t1")
        r2 = self._rule("t2")
        q1 = _body_query(r1)
        _BODY_QUERY_CACHE[id(r2)] = (r1, q1)  # plant the stale entry
        try:
            q2 = _body_query(r2)
            assert q2 is not q1
            assert q2.atoms == r2.body
        finally:
            _BODY_QUERY_CACHE.pop(id(r1), None)
            _BODY_QUERY_CACHE.pop(id(r2), None)

    def test_entry_pins_rule_until_eviction(self, monkeypatch):
        # While an entry lives it holds a strong reference to its rule,
        # so the identity key *cannot* be recycled; only LRU eviction
        # unpins it — and then the entry is gone, so a new rule allocated
        # at the recycled id() compiles fresh instead of seeing stale
        # state.  This is the invariant that makes the id() keying sound.
        monkeypatch.setattr(datalog_evaluation, "_BODY_QUERY_CACHE_MAX", 4)
        _BODY_QUERY_CACHE.clear()
        pinned = self._rule("pinned")
        pinned_id = id(pinned)
        reference = weakref.ref(pinned)
        _body_query(pinned)
        del pinned
        gc.collect()
        assert reference() is not None, "live cache entry must pin its rule"
        # Force eviction of the pinned entry by filling the tiny cache.
        for index in range(8):
            _body_query(self._rule(f"filler{index}"))
        assert len(_BODY_QUERY_CACHE) <= 5
        gc.collect()
        assert reference() is None, "eviction must unpin the rule"
        # If the allocator recycled the evicted rule's id for a filler,
        # the entry at that key pins the *new* rule (the identity guard's
        # precondition) — never the dead one.
        entry = _BODY_QUERY_CACHE.get(pinned_id)
        if entry is not None:
            assert id(entry[0]) == pinned_id
        # A new rule (possibly allocated at the recycled id) gets a
        # fresh compilation keyed to itself.
        fresh = self._rule("fresh")
        query = _body_query(fresh)
        assert _BODY_QUERY_CACHE[id(fresh)][0] is fresh
        assert query.atoms == fresh.body
        _BODY_QUERY_CACHE.clear()


class TestExpansions:
    def test_nonrecursive_expansions_finite(self, edge_schema):
        rules = [
            Rule(head=Atom("P", (var("x"),)), body=(Atom("Edge", (var("x"), var("y"))),)),
            Rule(head=Atom("P", (var("x"),)), body=(Atom("Edge", (var("y"), var("x"))),)),
        ]
        program = DatalogProgram(rules=rules, edb_schema=edge_schema, goal="P")
        expansion_list = list(expansions(program, max_depth=3))
        assert len(expansion_list) == 2
        for expansion in expansion_list:
            assert expansion.relations() == frozenset({"Edge"})

    def test_recursive_expansion_count_grows_with_depth(self, tc_program):
        shallow = count_expansions(tc_program, max_depth=2)
        deep = count_expansions(tc_program, max_depth=4)
        assert deep > shallow >= 1

    def test_expansions_are_edb_only(self, tc_program):
        for expansion in expansions(tc_program, max_depth=4, max_expansions=10):
            assert expansion.relations() == frozenset({"Edge"})

    def test_nonrecursive_to_ucq(self, edge_schema):
        rules = [
            Rule(head=Atom("P", (var("x"),)), body=(Atom("Edge", (var("x"), var("y"))),)),
        ]
        program = DatalogProgram(rules=rules, edb_schema=edge_schema, goal="P")
        ucq = nonrecursive_program_to_ucq(program)
        assert len(ucq) == 1

    def test_nonrecursive_to_ucq_rejects_recursion(self, tc_program):
        with pytest.raises(ValueError):
            nonrecursive_program_to_ucq(tc_program)


class TestContainment:
    def test_program_contained_in_weaker_query(self, tc_program):
        # Every Path(x, y) tuple starts with an edge out of x and ends with
        # an edge into y.
        query = parse_cq("Q(x, y) :- Edge(x, z), Edge(w, y)")
        result = datalog_contained_in_ucq(tc_program, query, max_depth=4)
        assert result.contained

    def test_program_not_contained(self, tc_program):
        query = parse_cq("Q :- Edge(x, x)")
        result = datalog_contained_in_ucq(tc_program, query, max_depth=3)
        assert not result.contained
        assert result.counterexample is not None

    def test_nonrecursive_containment_exact(self, edge_schema):
        rules = [
            Rule(
                head=Atom("P", (var("x"), var("z"))),
                body=(Atom("Edge", (var("x"), var("y"))), Atom("Edge", (var("y"), var("z")))),
            )
        ]
        program = DatalogProgram(rules=rules, edb_schema=edge_schema, goal="P")
        contained = datalog_contained_in_ucq(
            program, parse_cq("Q(x, z) :- Edge(x, w), Edge(u, z)")
        )
        assert contained.contained
        assert contained.exhaustive
        not_contained = datalog_contained_in_ucq(program, parse_cq("Q(x, z) :- Edge(x, z)"))
        assert not not_contained.contained

    def test_sibling_unfoldings_do_not_share_a_depth_bound(self):
        """``Goal <- A(x),A(y),A(z),B(w)``, ``A <- E``, ``B <- F``: each
        IDB atom of the goal is one rule application deep, so the one
        expansion ``E(x),E(y),E(z),F(w)`` is found and refutes
        ``Q :- E(v),F(v)``.  A single depth counted across the whole proof
        ran out after the third ``A`` and reported contained and
        exhaustive after 0 expansions."""
        schema = make_schema({"E": 1, "F": 1})
        rules = [
            Rule(
                head=Atom("Goal", ()),
                body=tuple(Atom("A", (var(v),)) for v in "xyz")
                + (Atom("B", (var("w"),)),),
            ),
            Rule(head=Atom("A", (var("u"),)), body=(Atom("E", (var("u"),)),)),
            Rule(head=Atom("B", (var("u"),)), body=(Atom("F", (var("u"),)),)),
        ]
        program = DatalogProgram(rules=rules, edb_schema=schema, goal="Goal")
        result = datalog_contained_in_ucq(program, parse_cq("Q :- E(v), F(v)"))
        assert not result.contained
        assert result.expansions_checked == 1
        assert sorted(a.relation for a in result.counterexample.atoms) == [
            "E",
            "E",
            "E",
            "F",
        ]

    def test_containment_in_union(self, edge_schema):
        rules = [
            Rule(head=Atom("P", (var("x"),)), body=(Atom("Edge", (var("x"), var("y"))),)),
            Rule(head=Atom("P", (var("x"),)), body=(Atom("Edge", (var("y"), var("x"))),)),
        ]
        program = DatalogProgram(rules=rules, edb_schema=edge_schema, goal="P")
        union = parse_ucq("Q(x) :- Edge(x, y) ; Q(x) :- Edge(y, x)")
        assert datalog_contained_in_ucq(program, union).contained

    def test_recursive_containment_sound_on_true_instance(self, tc_program):
        query = parse_cq("Q(x, y) :- Edge(x, z), Edge(w, y)")
        result = datalog_contained_in_ucq(tc_program, query, max_depth=3)
        # Containment holds: every path leaves x by an edge and enters y by one.
        assert result.contained

    def test_counterexample_database_search(self, tc_program):
        query = parse_cq("Q :- Edge(x, x)")
        databases = expansion_canonical_databases(tc_program, max_depth=3)
        counterexample = find_counterexample_database(tc_program, query, databases)
        assert counterexample is not None
