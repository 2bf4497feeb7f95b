"""The emptiness precheck over canonical transition structures.

:func:`~repro.core.refuter.transitions_refute_guard` proves a guard
unsatisfiable when every canonical structure of a transition (Lemma 4.10's
encoding: ``R_post = R_pre ∪ response``, the response agrees with the
binding, one method per step) is impossible or satisfies a negated
sentence.  The precheck prunes such guards, so a wrong ``True`` would turn
a non-empty language into an exhausted EMPTY.  These tests pin soundness
three ways:

* a guard-level oracle: on a tiny schema, random guards the check (or the
  Datalog containment it falls back to) refutes are evaluated with
  ``Guard.satisfied_by`` on every transition of a brute-forced set —
  configurations containing the initial instance, every access, every
  small response — and none may satisfy them;
* a differential test on generated scenarios: a precheck EMPTY never meets
  a witness of the search at ``max_paths=20000`` with the precheck off,
  nor one of the bounded checker;
* one case for each input the check declines or restricts: a negated
  inequality, a relation without access methods, an exact method.

Two of those automata have witnesses the search misses, reporting an
exhausted EMPTY with the precheck off; strict xfails pin both gaps, so a
fix of the search's pools shows up as an unexpected pass.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.access.methods import AccessSchema
from repro.access.path import path_from_pairs
from repro.automata.aautomaton import AAutomaton, ATransition, Guard
from repro.automata.emptiness import (
    automaton_emptiness,
    datalog_emptiness_precheck,
    guard_unsatisfiable_via_datalog,
    prune_unsatisfiable_guards,
)
from repro.automata.compile import compile_accltl_plus
from repro.automata.library import containment_automaton, ltr_automaton
from repro.automata.progressive import chain_restrictions
from repro.automata.run import accepts_path
from repro.core import properties
from repro.core.bounded_check import Bounds, bounded_satisfiability
from repro.core.formulas import EmbeddedSentence
from repro.core.refuter import transitions_refute_guard
from repro.core.solver import AccLTLSolver
from repro.core.transition import transition_structure
from repro.obs import trace
from repro.core.vocabulary import (
    AccessVocabulary,
    isbind0_name,
    isbind_name,
    post_name,
    pre_name,
)
from repro.queries.atoms import Atom, Equality, Inequality
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_cq
from repro.queries.terms import Constant, Variable
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.dependencies import DisjointnessConstraint
from repro.relational.instance import Instance
from repro.relational.schema import make_schema
from repro.workloads.directory import (
    ADDRESS,
    MOBILE,
    directory_access_schema,
    join_query,
    resident_names_query,
)
from repro.workloads.generators import WorkloadGenerator
from repro.workloads.scenarios import _synthetic_scenario, standard_scenarios

#: The oracle's value domain; guards use the constants ``"a"`` and ``"b"``.
DOMAIN = ("a", "b", "c")


def _vocabulary() -> AccessVocabulary:
    """``R/2`` (a lookup on position 0 and an exact membership test),
    ``S/1`` (a scan) and ``T/1``, which has no access method."""
    schema = AccessSchema(make_schema({"R": 2, "S": 1, "T": 1}))
    schema.add("AcR", "R", (0,))
    schema.add("AcRx", "R", (0, 1), exact=True)
    schema.add("AcS", "S", ())
    return AccessVocabulary.of(schema)


def _initial(vocabulary, facts=()) -> Instance:
    instance = vocabulary.access_schema.empty_instance()
    for relation, tup in facts:
        instance.add(relation, tup)
    return instance


def _sentence(text: str) -> EmbeddedSentence:
    return EmbeddedSentence(parse_cq(text))


def _exit_automaton(guard: Guard) -> AAutomaton:
    """Loop on every step, then one step under *guard* into acceptance."""
    return AAutomaton(
        states=["q0", "q1"],
        initial="q0",
        accepting=["q1"],
        transitions=[
            ATransition("q0", Guard(), "q0"),
            ATransition("q0", guard, "q1"),
        ],
    )


# ----------------------------------------------------------------------
# Guard-level oracle
# ----------------------------------------------------------------------
_VARIABLES = tuple(Variable(name) for name in "xyz")
_POSITIVE_ATOMS = (
    (pre_name("R"), 2),
    (post_name("R"), 2),
    (pre_name("S"), 1),
    (post_name("S"), 1),
    (pre_name("T"), 1),
    (post_name("T"), 1),
    (isbind_name("AcR"), 1),
    (isbind_name("AcRx"), 2),
    (isbind0_name("AcS"), 0),
    (isbind0_name("AcR"), 0),
)
#: Negated sentences may not mention n-ary binding predicates.
_NEGATED_ATOMS = _POSITIVE_ATOMS[:6] + (_POSITIVE_ATOMS[8],)


def _random_disjunct(rng, atoms, comparisons: bool) -> ConjunctiveQuery:
    body = []
    for _ in range(rng.randint(1, 3)):
        name, arity = rng.choice(atoms)
        body.append(
            Atom(
                name,
                tuple(
                    Constant(rng.choice("ab"))
                    if rng.random() < 0.25
                    else rng.choice(_VARIABLES)
                    for _ in range(arity)
                ),
            )
        )
    terms = sorted({t for atom in body for t in atom.terms}, key=str)
    equalities, inequalities = (), ()
    if comparisons and len(terms) > 1 and rng.random() < 0.3:
        comparison = rng.choice((Equality, Inequality))(*rng.sample(terms, 2))
        if isinstance(comparison, Equality):
            equalities = (comparison,)
        else:
            inequalities = (comparison,)
    return ConjunctiveQuery(
        atoms=tuple(body), equalities=equalities, inequalities=inequalities
    )


def _random_sentence(rng, atoms, comparisons: bool) -> EmbeddedSentence:
    disjuncts = tuple(
        _random_disjunct(rng, atoms, comparisons) for _ in range(rng.randint(1, 2))
    )
    return EmbeddedSentence(UnionOfConjunctiveQueries(disjuncts))


def _random_guard(rng) -> Guard:
    return Guard(
        positives=tuple(
            _random_sentence(rng, _POSITIVE_ATOMS, comparisons=True)
            for _ in range(rng.randint(1, 2))
        ),
        negated=tuple(
            _random_sentence(rng, _NEGATED_ATOMS, comparisons=rng.random() < 0.3)
            for _ in range(rng.randint(0, 2))
        ),
    )


def _brute_force_structures(vocabulary, initial):
    """``M(t)`` for every transition from a small configuration.

    Configurations are *initial* plus at most two facts over the relations
    that have an access method (``T`` never grows); the accesses are every
    method and binding over :data:`DOMAIN`, the responses every set of at
    most two matching tuples.  Every method is treated as non-exact, which
    only adds transitions.
    """
    schema = vocabulary.access_schema
    facts = [("R", (u, v)) for u in DOMAIN for v in DOMAIN]
    facts += [("S", (u,)) for u in DOMAIN]
    accesses = [
        (access, responses)
        for method in schema
        for binding in itertools.product(DOMAIN, repeat=method.num_inputs)
        for access in [schema.access(method.name, binding)]
        for matching in [
            [
                tup
                for tup in itertools.product(
                    DOMAIN, repeat=schema.schema.arity(method.relation)
                )
                if access.matches(tup)
            ]
        ]
        for responses in [
            [c for size in range(3) for c in itertools.combinations(matching, size)]
        ]
    ]
    structures = []
    for size in range(3):
        for extra in itertools.combinations(facts, size):
            configuration = initial.copy()
            for relation, tup in extra:
                configuration.add(relation, tup)
            for access, responses in accesses:
                for response in responses:
                    structures.append(
                        transition_structure(
                            vocabulary, configuration, access, response=response
                        )
                    )
    return structures


@pytest.mark.parametrize(
    "initial_facts", [(), (("T", ("a",)), ("R", ("b", "a")))], ids=["empty", "facts"]
)
def test_refuted_guards_have_no_transition(initial_facts):
    vocabulary = _vocabulary()
    initial = _initial(vocabulary, initial_facts)
    structures = _brute_force_structures(vocabulary, initial)
    rng = random.Random(f"transition-precheck-{len(initial_facts)}")
    counts = {"refuted": 0, "declined": 0, "satisfied": 0}
    for _ in range(80):
        guard = _random_guard(rng)
        verdict = transitions_refute_guard(guard, vocabulary, initial)
        if verdict is None:
            counts["declined"] += 1
            verdict = guard_unsatisfiable_via_datalog(guard, vocabulary)
        if verdict:
            counts["refuted"] += 1
            for structure in structures:
                assert not guard.satisfied_by(structure), (str(guard), structure)
        elif any(guard.satisfied_by(structure) for structure in structures):
            counts["satisfied"] += 1
    assert all(counts.values()), counts


# ----------------------------------------------------------------------
# Differential test against the search and the bounded checker
# ----------------------------------------------------------------------
def _generated_requests(seed):
    scenario = _synthetic_scenario(
        seed=seed, num_relations=2 + seed % 2, name=f"synthetic-{seed}"
    )
    vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
    probe = scenario.probe_access
    for query in (scenario.query_one, scenario.query_two):
        yield (
            vocabulary,
            ltr_automaton(vocabulary, probe, query),
            properties.ltr_formula(vocabulary, probe, query),
        )
    yield (
        vocabulary,
        containment_automaton(
            vocabulary, scenario.query_one, scenario.query_two, grounded=False
        ),
        properties.containment_counterexample_formula(
            vocabulary, scenario.query_one, scenario.query_two
        ),
    )


@pytest.mark.parametrize("seed", [1, 10, 23])
def test_precheck_empty_meets_no_witness(seed):
    prechecked = 0
    for vocabulary, automaton, formula in _generated_requests(seed):
        result = automaton_emptiness(automaton, vocabulary, max_paths=300)
        if not (result.empty and result.exhausted and result.paths_explored == 0):
            continue
        prechecked += 1
        search = automaton_emptiness(
            automaton, vocabulary, max_paths=20000, use_datalog_precheck=False
        )
        assert search.witness is None
        bounded = bounded_satisfiability(
            vocabulary, formula, Bounds(max_path_length=4, max_paths=2000)
        )
        assert not bounded.satisfiable
    assert prechecked >= 2


# ----------------------------------------------------------------------
# Declined and restricted inputs
# ----------------------------------------------------------------------
def test_negated_inequality_is_declined_and_not_pruned():
    """``R(a,a)`` satisfies ``R_pre(x,y) ∧ ¬(R_pre(u,v) ∧ u≠v)``."""
    vocabulary = _vocabulary()
    guard = Guard(
        positives=(_sentence("Q :- R__pre(x, y)"),),
        negated=(_sentence("Q :- R__pre(u, v), u != v"),),
    )
    assert transitions_refute_guard(guard, vocabulary) is None
    assert not guard_unsatisfiable_via_datalog(guard, vocabulary)
    automaton = _exit_automaton(guard)
    assert datalog_emptiness_precheck(automaton, vocabulary) is None
    witness = path_from_pairs(
        vocabulary.access_schema,
        [("AcR", ("a",), [("a", "a")]), ("AcS", (), [])],
    )
    assert accepts_path(automaton, vocabulary, witness)


def test_negated_inequality_still_prunes_through_containment():
    vocabulary = _vocabulary()
    guard = Guard(
        positives=(_sentence('Q :- R__pre("a", y), R__pre("b", y)'),),
        negated=(_sentence("Q :- R__pre(u, v), R__pre(w, v), u != w"),),
    )
    assert transitions_refute_guard(guard, vocabulary) is None
    assert datalog_emptiness_precheck(_exit_automaton(guard), vocabulary) is True


def test_relation_without_methods_depends_on_the_initial_instance():
    vocabulary = _vocabulary()
    guard = Guard(positives=(_sentence("Q :- T__pre(x), S__post(x)"),))
    automaton = _exit_automaton(guard)
    empty = _initial(vocabulary)
    seeded = _initial(vocabulary, [("T", ("a",))])
    assert transitions_refute_guard(guard, vocabulary, empty) is True
    assert transitions_refute_guard(guard, vocabulary, seeded) is False
    assert datalog_emptiness_precheck(automaton, vocabulary) is True
    assert datalog_emptiness_precheck(automaton, vocabulary, seeded) is None
    assert prune_unsatisfiable_guards(automaton, vocabulary, seeded).accepting
    witness = path_from_pairs(vocabulary.access_schema, [("AcS", (), [("a",)])])
    assert accepts_path(automaton, vocabulary, witness, initial=seeded)
    refuted = automaton_emptiness(automaton, vocabulary, initial=empty)
    assert refuted.empty and refuted.exhausted and refuted.paths_explored == 0


def test_exact_method_binding_constrains_the_response():
    vocabulary = _vocabulary()
    revealing = Guard(
        positives=(
            _sentence('Q :- IsBind__AcRx("a", "b")'),
            _sentence('Q :- R__post("a", y)'),
        ),
        negated=(_sentence('Q :- R__pre("a", y)'),),
    )
    clashing = Guard(
        positives=(
            _sentence('Q :- IsBind__AcRx("a", "b")'),
            _sentence('Q :- R__post("b", y)'),
        ),
        negated=(_sentence('Q :- R__pre("b", y)'),),
    )
    assert transitions_refute_guard(revealing, vocabulary) is False
    assert transitions_refute_guard(clashing, vocabulary) is True
    witness = automaton_emptiness(_exit_automaton(revealing), vocabulary).witness
    assert witness is not None
    assert accepts_path(_exit_automaton(revealing), vocabulary, witness)
    search = automaton_emptiness(
        _exit_automaton(clashing),
        vocabulary,
        max_paths=5000,
        use_datalog_precheck=False,
    )
    assert search.witness is None


# ----------------------------------------------------------------------
# Accepting guards first: the same verdict as pruning every guard
# ----------------------------------------------------------------------
def _prune_all_verdict(automaton, vocabulary, initial):
    """The precheck's verdict by pruning every guard, then reachability."""
    pruned = prune_unsatisfiable_guards(automaton, vocabulary, initial)
    return None if pruned.reachable_states() & pruned.accepting else True


def _table1_automata():
    """The AccLTL+ formulas of Table 1 on the directory, compiled."""
    vocabulary = AccLTLSolver(directory_access_schema()).vocabulary
    probe = vocabulary.access_schema.access("AcM1", ("Smith",))
    formulas = [
        properties.ltr_formula(vocabulary, probe, join_query()),
        properties.ltr_formula_zeroary(vocabulary, "AcM1", join_query()),
        properties.containment_counterexample_formula(
            vocabulary, join_query(), resident_names_query()
        ),
        properties.containment_counterexample_formula(
            vocabulary, resident_names_query(), join_query()
        ),
        properties.access_order_formula(vocabulary, "AcM2", "AcM1"),
        properties.disjointness_formula(
            vocabulary, DisjointnessConstraint(MOBILE, 0, ADDRESS, 0)
        ),
    ]
    compiled = [compile_accltl_plus(formula) for formula in formulas]
    return [(vocabulary, automaton, None) for automaton in compiled]


def _library_automata():
    for scenario in standard_scenarios():
        vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
        seeded = scenario.access_schema.empty_instance()
        for relation in scenario.access_schema.schema:
            for tup in sorted(scenario.hidden_instance.tuples(relation.name), key=repr)[:1]:
                seeded.add(relation.name, tup)
        for query in (scenario.query_one, scenario.query_two):
            automaton = ltr_automaton(vocabulary, scenario.probe_access, query)
            yield vocabulary, automaton, None
            yield vocabulary, automaton, seeded
        # The grounded containment automata are left out: pruning their
        # loop guards, as the reference does, takes minutes.
        q1, q2 = scenario.query_one, scenario.query_two
        for queries in ((q1, q2), (q2, q1)):
            automaton = containment_automaton(vocabulary, *queries, grounded=False)
            yield vocabulary, automaton, None
            yield vocabulary, automaton, seeded


def _generated_automata():
    for seed in range(8):
        generator = WorkloadGenerator(seed=seed)
        schema = generator.access_schema(num_relations=2, max_arity=3, max_inputs=2)
        vocabulary = AccLTLSolver(schema).vocabulary
        q1 = generator.conjunctive_query(schema.schema, num_atoms=2, num_variables=3)
        q2 = generator.conjunctive_query(schema.schema, num_atoms=1, num_variables=2)
        methods = sorted(schema, key=lambda m: (-m.num_inputs, m.name))
        probe = schema.access(methods[0].name, ("v0",) * methods[0].num_inputs)
        yield vocabulary, ltr_automaton(vocabulary, probe, q1), None
        yield vocabulary, containment_automaton(vocabulary, q1, q2, grounded=False), None
        yield vocabulary, containment_automaton(vocabulary, q2, q1, grounded=False), None


def _precheck_spans():
    return [span for span in trace.take_spans() if span.name == "emptiness.precheck"]


def test_accepting_guards_first_match_pruning_every_guard():
    """On every chain restriction the precheck sees, refuting the guards
    into accepting states first gives the verdict of pruning them all."""
    shortcuts = {True: 0, False: 0}
    verdicts = {True: 0, None: 0}
    inputs = [*_table1_automata(), *_library_automata(), *_generated_automata()]
    trace.set_enabled(True)
    try:
        for vocabulary, automaton, initial in inputs:
            for restriction in chain_restrictions(automaton.minimise()):
                verdict = datalog_emptiness_precheck(restriction, vocabulary, initial)
                expected = _prune_all_verdict(restriction, vocabulary, initial)
                assert verdict == expected, restriction
                (span,) = _precheck_spans()
                shortcuts[span.attrs["shortcut"]] += 1
                verdicts[verdict] += 1
                assert span.attrs["guards_checked"] <= len(restriction.transitions)
    finally:
        trace.set_enabled(False)
        trace.reset()
    assert all(count >= 10 for count in (*shortcuts.values(), *verdicts.values())), (
        shortcuts,
        verdicts,
    )


def test_accepting_initial_state_takes_no_shortcut():
    """With an accepting initial state, refuted guards into acceptance
    prove nothing: the precheck falls through to reachability."""
    vocabulary = _vocabulary()
    refuted = Guard(positives=(_sentence("Q :- T__pre(x)"),))
    automaton = AAutomaton(
        states=["q0", "q1"],
        initial="q0",
        accepting=["q0", "q1"],
        transitions=[ATransition("q0", refuted, "q1"), ATransition("q1", refuted, "q0")],
    )
    assert transitions_refute_guard(refuted, vocabulary) is True
    trace.set_enabled(True)
    try:
        assert datalog_emptiness_precheck(automaton, vocabulary) is None
        (span,) = _precheck_spans()
    finally:
        trace.set_enabled(False)
        trace.reset()
    assert span.attrs == {"guards_checked": 1, "shortcut": False}
    assert _prune_all_verdict(automaton, vocabulary, None) is None


# ----------------------------------------------------------------------
# Known gaps of the search's candidate pools
# ----------------------------------------------------------------------
@pytest.mark.xfail(
    strict=True,
    reason="the search pools never identify two variables, so R(a,a) is never tried",
)
def test_search_does_not_exhaust_a_negated_inequality_with_a_witness():
    vocabulary = _vocabulary()
    guard = Guard(
        positives=(_sentence("Q :- R__pre(x, y)"),),
        negated=(_sentence("Q :- R__pre(u, v), u != v"),),
    )
    result = automaton_emptiness(
        _exit_automaton(guard), vocabulary, use_datalog_precheck=False
    )
    # A witness exists (test_negated_inequality_is_declined_and_not_pruned).
    assert not (result.empty and result.exhausted), result.paths_explored


@pytest.mark.xfail(
    strict=True,
    reason="the search pools never use a value of the initial instance",
)
def test_search_does_not_exhaust_a_guard_needing_an_initial_value():
    vocabulary = _vocabulary()
    guard = Guard(positives=(_sentence("Q :- T__pre(x), S__post(x)"),))
    seeded = _initial(vocabulary, [("T", ("a",))])
    result = automaton_emptiness(
        _exit_automaton(guard),
        vocabulary,
        initial=seeded,
        use_datalog_precheck=False,
    )
    # A witness exists
    # (test_relation_without_methods_depends_on_the_initial_instance).
    assert not (result.empty and result.exhausted), result.paths_explored
