"""Tests for the decision procedures and the dispatching solver."""

import pytest

from repro.access.methods import AccessMethod, AccessSchema
from repro.access.path import is_grounded, path_from_pairs
from repro.core import properties
from repro.core.bounded_check import (
    Bounds,
    bounded_satisfiability,
    fact_pool_from_sentences,
    formula_constants,
    formula_fact_pool,
    validity_counterexample,
)
from repro.core.formulas import (
    EmbeddedSentence,
    atom,
    eventually,
    globally,
    land,
    lnext,
    lnot,
)
from repro.core.fragments import Fragment
from repro.core.sat_accltl_plus import accltl_plus_satisfiable
from repro.core.sat_xonly import xonly_satisfiable
from repro.core.sat_zeroary import (
    FragmentError,
    abstraction_agrees,
    abstract_to_word,
    is_satisfiable_via_ltl_abstraction,
    lemma_4_13_bounds,
    translate_to_ltl,
    zeroary_satisfiable,
)
from repro.core.semantics import path_satisfies
from repro.core.solver import AccLTLSolver
from repro.core.vocabulary import AccessVocabulary, isbind_name, post_name
from repro.ltl.semantics import word_satisfies
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_cq
from repro.queries.terms import Constant, Variable
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.dependencies import FunctionalDependency
from repro.relational.schema import Relation, Schema
from repro.relational.types import BOOL
from repro.workloads.directory import join_query, resident_names_query


@pytest.fixture
def solver(directory):
    return AccLTLSolver(directory)


class TestBoundedCheck:
    def test_satisfiable_formula_has_witness(self, solver):
        formula = properties.relation_nonempty_post(solver.vocabulary, "Mobile")
        result = bounded_satisfiability(
            solver.vocabulary, formula, Bounds(max_path_length=1)
        )
        assert result.satisfiable
        assert result.witness is not None
        assert path_satisfies(solver.vocabulary, result.witness, formula)

    def test_unsatisfiable_contradiction(self, solver):
        nonempty = properties.relation_nonempty_post(solver.vocabulary, "Mobile")
        formula = land(nonempty, lnot(nonempty))
        result = bounded_satisfiability(
            solver.vocabulary, formula, Bounds(max_path_length=2)
        )
        assert not result.satisfiable
        assert result.exhausted

    def test_grounded_restriction_blocks_constant_guessing(self, solver, directory):
        smith = atom(parse_cq('Q :- IsBind__AcM1("Smith")'))
        result = bounded_satisfiability(
            solver.vocabulary,
            eventually(smith),
            Bounds(max_path_length=2),
            grounded_only=True,
        )
        assert not result.satisfiable

    def test_formula_constants_and_fact_pool(self, solver, directory):
        probe = directory.access("AcM1", ("Smith",))
        formula = properties.ltr_formula(solver.vocabulary, probe, join_query())
        assert "Smith" in formula_constants(formula)
        pool = formula_fact_pool(solver.vocabulary, formula)
        assert any(relation == "Mobile" for relation, _ in pool)
        assert any("Smith" in tup for _, tup in pool)

    def test_rejected_variant_does_not_hide_an_equal_well_typed_one(self):
        # ``1 == True`` but only ``True`` is a bool.  The binding of
        # ``IsBind_MR(1)`` is tried first and gives the ill-typed ``R(1)``;
        # its rejection must not keep the well-typed ``R(True)`` of
        # ``IsBind_MR(True)`` out of the pool.
        access_schema = AccessSchema(
            Schema([Relation("R", 1, (BOOL,))]),
            [AccessMethod("MR", "R", (0,))],
        )
        vocabulary = AccessVocabulary.of(access_schema)
        query = ConjunctiveQuery(
            (
                Atom(post_name("R"), (Variable("x"),)),
                Atom(isbind_name("MR"), (Constant(1),)),
                Atom(isbind_name("MR"), (Constant(True),)),
            )
        )
        sentence = EmbeddedSentence(UnionOfConjunctiveQueries((query,)))
        pool = fact_pool_from_sentences(vocabulary, [sentence])
        bool_facts = [
            tup for relation, tup in pool
            if relation == "R" and not isinstance(tup[0], str)
        ]
        assert bool_facts == [(True,)]
        assert type(bool_facts[0][0]) is bool

    def test_validity_counterexample(self, solver):
        # "Mobile is always empty before the access" is not valid.
        formula = globally(
            lnot(properties.relation_nonempty_pre(solver.vocabulary, "Mobile"))
        )
        result = validity_counterexample(
            solver.vocabulary, formula, Bounds(max_path_length=3)
        )
        assert result.satisfiable  # a counterexample path exists


class TestZeroaryProcedure:
    def test_rejects_nary_formulas(self, solver, directory):
        probe = directory.access("AcM1", ("Smith",))
        formula = properties.ltr_formula(solver.vocabulary, probe, join_query())
        with pytest.raises(FragmentError):
            zeroary_satisfiable(solver.vocabulary, formula)

    def test_ltr_zeroary_satisfiable(self, solver):
        formula = properties.ltr_formula_zeroary(solver.vocabulary, "AcM1", join_query())
        result = zeroary_satisfiable(solver.vocabulary, formula)
        assert result.satisfiable
        assert path_satisfies(solver.vocabulary, result.witness, formula)

    def test_access_order_with_impossible_order_unsat(self, solver):
        # AcM1 must come both strictly before and strictly after AcM2, and
        # both methods must eventually be used: unsatisfiable.
        order_one = properties.access_order_formula(solver.vocabulary, "AcM1", "AcM2")
        order_two = properties.access_order_formula(solver.vocabulary, "AcM2", "AcM1")
        used_one = eventually(properties.zeroary_binding_atom("AcM1"))
        used_two = eventually(properties.zeroary_binding_atom("AcM2"))
        formula = land(order_one, order_two, used_one, used_two)
        result = zeroary_satisfiable(solver.vocabulary, formula)
        assert not result.satisfiable
        assert result.exhausted

    def test_bounds_are_polynomial_in_formula(self, solver):
        formula = properties.ltr_formula_zeroary(solver.vocabulary, "AcM1", join_query())
        bounds = lemma_4_13_bounds(solver.vocabulary, formula)
        assert bounds.max_path_length <= formula.size()
        assert len(bounds.fact_pool) <= formula.size()

    def test_inequalities_allowed(self, solver):
        formula = properties.fd_formula(
            solver.vocabulary, FunctionalDependency("Mobile", (0,), 3)
        )
        result = zeroary_satisfiable(solver.vocabulary, formula)
        assert result.satisfiable


class TestLTLAbstraction:
    def test_abstraction_theorem_on_concrete_paths(self, solver, directory):
        formula = properties.ltr_formula_zeroary(solver.vocabulary, "AcM1", join_query())
        paths = [
            path_from_pairs(
                directory,
                [
                    (
                        "AcM2",
                        ("Parks Rd", "OX13QD"),
                        [("Parks Rd", "OX13QD", "Jones", 16)],
                    ),
                    ("AcM1", ("Smith",), [("Smith", "OX13QD", "Parks Rd", 5551212)]),
                ],
            ),
            path_from_pairs(directory, [("AcM1", ("Smith",), [])]),
        ]
        for path in paths:
            assert abstraction_agrees(solver.vocabulary, formula, path)

    def test_abstraction_word_matches_translated_formula(self, solver, directory):
        formula = properties.access_order_formula(solver.vocabulary, "AcM2", "AcM1")
        path = path_from_pairs(
            directory,
            [("AcM2", ("Parks Rd", "OX13QD"), []), ("AcM1", ("Smith",), [])],
        )
        word = abstract_to_word(solver.vocabulary, formula, path)
        assert word_satisfies(word, translate_to_ltl(formula))

    def test_satisfiability_via_abstraction_over_candidates(self, solver, directory):
        formula = properties.ltr_formula_zeroary(solver.vocabulary, "AcM1", join_query())
        candidates = [
            path_from_pairs(directory, [("AcM1", ("Smith",), [])]),
            path_from_pairs(
                directory,
                [
                    (
                        "AcM2",
                        ("Parks Rd", "OX13QD"),
                        [("Parks Rd", "OX13QD", "Jones", 16)],
                    ),
                    ("AcM1", ("Smith",), [("Smith", "OX13QD", "Parks Rd", 5551212)]),
                ],
            ),
        ]
        witness = is_satisfiable_via_ltl_abstraction(
            solver.vocabulary, formula, candidates
        )
        assert witness is not None
        assert path_satisfies(solver.vocabulary, witness, formula)


class TestXOnlyProcedure:
    def test_path_length_bound_is_next_depth(self, solver):
        mobile = properties.relation_nonempty_post(solver.vocabulary, "Mobile")
        formula = lnext(mobile)
        result = xonly_satisfiable(solver.vocabulary, formula)
        assert result.satisfiable
        assert result.path_length_bound == 2
        assert len(result.witness) == 2

    def test_rejects_until(self, solver):
        formula = eventually(properties.relation_nonempty_post(solver.vocabulary, "Mobile"))
        with pytest.raises(FragmentError):
            xonly_satisfiable(solver.vocabulary, formula)

    def test_xonly_ltr_small_path(self, solver):
        # X-only variant of relevance: the first access reveals Q.
        q_pre = properties.relation_nonempty_pre(solver.vocabulary, "Mobile")
        q_post = properties.relation_nonempty_post(solver.vocabulary, "Mobile")
        formula = land(lnot(q_pre), properties.zeroary_binding_atom("AcM1"), q_post)
        result = xonly_satisfiable(solver.vocabulary, formula)
        assert result.satisfiable
        assert len(result.witness) == 1


class TestAccLTLPlusPipeline:
    def test_ltr_satisfiable_with_validated_witness(self, solver, directory):
        probe = directory.access("AcM1", ("Smith",))
        formula = properties.ltr_formula(solver.vocabulary, probe, join_query())
        result = accltl_plus_satisfiable(solver.vocabulary, formula)
        assert result.satisfiable
        assert result.witness_validated

    def test_containment_counterexample_unsat_when_contained(self, solver):
        formula = properties.containment_counterexample_formula(
            solver.vocabulary, join_query(), resident_names_query()
        )
        result = accltl_plus_satisfiable(solver.vocabulary, formula)
        assert not result.satisfiable

    def test_rejects_inequalities(self, solver):
        formula = properties.fd_formula(
            solver.vocabulary, FunctionalDependency("Mobile", (0,), 3)
        )
        with pytest.raises(FragmentError):
            accltl_plus_satisfiable(solver.vocabulary, formula)

    def test_grounded_search_and_formula_reduction_agree(self, solver, directory):
        # On a tiny formula both routes to grounded satisfiability agree.
        smith = atom(parse_cq('Q :- IsBind__AcM1("Smith")'))
        formula = eventually(smith)
        by_search = accltl_plus_satisfiable(
            solver.vocabulary, formula, grounded_only=True
        )
        by_formula = accltl_plus_satisfiable(
            solver.vocabulary, formula, grounded_only=True, grounded_via_formula=True,
            max_paths=2000,
        )
        assert by_search.satisfiable == by_formula.satisfiable is False
        ungrounded = accltl_plus_satisfiable(solver.vocabulary, formula)
        assert ungrounded.satisfiable


class TestDispatchingSolver:
    def test_dispatch_matches_fragment(self, solver, directory):
        probe = directory.access("AcM1", ("Smith",))
        cases = {
            Fragment.ACCLTL_ZEROARY: properties.access_order_formula(
                solver.vocabulary, "AcM2", "AcM1"
            ),
            Fragment.ACCLTL_PLUS: properties.ltr_formula(
                solver.vocabulary, probe, join_query()
            ),
            Fragment.ACCLTL_ZEROARY_INEQ: properties.fd_formula(
                solver.vocabulary, FunctionalDependency("Mobile", (0,), 3)
            ),
        }
        for fragment, formula in cases.items():
            result = solver.satisfiable(formula)
            assert result.fragment == fragment
            assert result.satisfiable

    def test_undecidable_fragment_uses_bounded_search(self, solver):
        negative_binding = globally(lnot(atom(parse_cq("Q :- IsBind__AcM1(x)"))))
        result = solver.satisfiable(negative_binding, bounded_path_length=2)
        assert result.fragment == Fragment.ACCLTL_FULL
        assert "bounded" in result.procedure
        assert result.satisfiable  # a path that never uses AcM1 exists

    def test_validity_of_containment_formula(self, solver):
        formula = properties.containment_formula(
            solver.vocabulary, join_query(), resident_names_query()
        )
        result = solver.valid(formula)
        assert not result.satisfiable  # no counterexample: the formula is valid

    def test_witnesses_are_real_paths(self, solver):
        formula = properties.ltr_formula_zeroary(solver.vocabulary, "AcM1", join_query())
        result = solver.satisfiable(formula)
        assert result.satisfiable
        assert path_satisfies(solver.vocabulary, result.witness, formula)
