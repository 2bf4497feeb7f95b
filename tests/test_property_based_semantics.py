"""Property-based tests for semantic invariants of AccLTL and A-automata.

These complement ``test_property_based.py`` with invariants that come
straight from the paper's discussion:

* temporal-operator dualities and the until/eventually definitions
  (Definition 2.1);
* monotonicity of positive sentences along a path — "as a path progresses
  these queries can only move from false to true as more tuples are exposed
  by accesses" (the remark after Theorem 3.1);
* algebraic laws of the A-automata closure operations on sampled paths;
* agreement of the Section 6 translation (0-ary → AccLTL+) on random
  marker formulas;
* agreement of formula progression (the bounded checker's evaluator)
  with the whole-path semantics on random formulas and atom valuations.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.path import AccessPath, conf
from repro.automata.operations import (
    intersection_automaton,
    length_modulo_automaton,
    method_sequence_automaton,
    union_automaton,
)
from repro.automata.run import accepts_path
from repro.core.formulas import (
    AccAnd,
    AccEventually,
    AccGlobally,
    AccNext,
    AccNot,
    AccOr,
    AccUntil,
    AccTrue,
    lnot,
)
from repro.core.inclusions import zeroary_to_plus
from repro.core.properties import (
    relation_nonempty_post,
    relation_nonempty_pre,
    zeroary_binding_atom,
)
from repro.core.semantics import FALSE, TRUE, Progression, path_satisfies, satisfies_at
from repro.core.transition import TransitionStructure, path_structures
from repro.core.vocabulary import AccessVocabulary
from repro.queries.evaluation import holds
from repro.relational.instance import Instance
from repro.workloads.directory import (
    directory_access_schema,
    directory_hidden_instance,
    directory_vocabulary,
)
from repro.workloads.generators import WorkloadGenerator


def _random_path(seed: int, length: int) -> AccessPath:
    schema = directory_access_schema()
    hidden = directory_hidden_instance("small")
    return WorkloadGenerator(seed=seed).access_path(schema, hidden, length=length)


VOCAB = directory_vocabulary()

path_strategy = st.builds(
    _random_path,
    seed=st.integers(min_value=0, max_value=5_000),
    length=st.integers(min_value=1, max_value=5),
)

atomic_formulas = st.sampled_from(
    [
        relation_nonempty_pre(VOCAB, "Mobile"),
        relation_nonempty_post(VOCAB, "Mobile"),
        relation_nonempty_pre(VOCAB, "Address"),
        relation_nonempty_post(VOCAB, "Address"),
        zeroary_binding_atom("AcM1"),
        zeroary_binding_atom("AcM2"),
        AccTrue(),
    ]
)


# ----------------------------------------------------------------------
# Temporal-operator laws (Definition 2.1)
# ----------------------------------------------------------------------
class TestTemporalLaws:
    @given(path=path_strategy, phi=atomic_formulas)
    @settings(max_examples=40, deadline=None)
    def test_eventually_is_dual_of_globally(self, path, phi):
        eventually = path_satisfies(VOCAB, path, AccEventually(phi))
        not_globally_not = not path_satisfies(VOCAB, path, AccGlobally(AccNot(phi)))
        assert eventually == not_globally_not

    @given(path=path_strategy, phi=atomic_formulas)
    @settings(max_examples=40, deadline=None)
    def test_eventually_equals_true_until(self, path, phi):
        assert path_satisfies(VOCAB, path, AccEventually(phi)) == path_satisfies(
            VOCAB, path, AccUntil(AccTrue(), phi)
        )

    @given(path=path_strategy, phi=atomic_formulas)
    @settings(max_examples=40, deadline=None)
    def test_double_negation(self, path, phi):
        assert path_satisfies(VOCAB, path, phi) == path_satisfies(
            VOCAB, path, lnot(lnot(phi))
        )

    @given(path=path_strategy, phi=atomic_formulas)
    @settings(max_examples=40, deadline=None)
    def test_globally_implies_first_position(self, path, phi):
        if path_satisfies(VOCAB, path, AccGlobally(phi)):
            assert path_satisfies(VOCAB, path, phi)

    @given(path=path_strategy, phi=atomic_formulas)
    @settings(max_examples=40, deadline=None)
    def test_until_right_operand_implies_until(self, path, phi):
        # If ψ holds now, then φ U ψ holds for any φ.
        if path_satisfies(VOCAB, path, phi):
            assert path_satisfies(
                VOCAB, path, AccUntil(relation_nonempty_pre(VOCAB, "Mobile"), phi)
            )


# ----------------------------------------------------------------------
# Monotonicity of positive sentences (remark after Theorem 3.1)
# ----------------------------------------------------------------------
class TestPositiveMonotonicity:
    @given(path=path_strategy)
    @settings(max_examples=40, deadline=None)
    def test_pre_sentences_move_false_to_true_only(self, path):
        """A positive pre-sentence never flips back from true to false."""
        schema = directory_access_schema()
        structures = path_structures(VOCAB, path, schema.empty_instance())
        for sentence in (
            relation_nonempty_pre(VOCAB, "Mobile").sentence,
            relation_nonempty_pre(VOCAB, "Address").sentence,
        ):
            seen_true = False
            for structure in structures:
                value = holds(sentence.query, structure.structure)
                if seen_true:
                    assert value, "positive pre-sentence flipped back to false"
                seen_true = seen_true or value

    @given(path=path_strategy)
    @settings(max_examples=40, deadline=None)
    def test_configurations_grow_monotonically(self, path):
        schema = directory_access_schema()
        previous = schema.empty_instance()
        for index in range(1, len(path) + 1):
            current = conf(path.prefix(index), schema.empty_instance())
            assert previous.is_subinstance_of(current)
            previous = current


# ----------------------------------------------------------------------
# A-automata operation laws on sampled paths
# ----------------------------------------------------------------------
class TestAutomataLaws:
    @given(path=path_strategy, modulus=st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_union_is_commutative_on_paths(self, path, modulus):
        a = length_modulo_automaton(modulus, 0)
        b = method_sequence_automaton(VOCAB, ["AcM1"])
        assert accepts_path(union_automaton(a, b), VOCAB, path) == accepts_path(
            union_automaton(b, a), VOCAB, path
        )

    @given(path=path_strategy, modulus=st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_intersection_refines_both_operands(self, path, modulus):
        a = length_modulo_automaton(modulus, 0)
        b = method_sequence_automaton(VOCAB, ["AcM1"])
        if accepts_path(intersection_automaton(a, b), VOCAB, path):
            assert accepts_path(a, VOCAB, path)
            assert accepts_path(b, VOCAB, path)

    @given(path=path_strategy)
    @settings(max_examples=30, deadline=None)
    def test_length_partition(self, path):
        """Every non-empty path has even or odd length, never both."""
        even = accepts_path(length_modulo_automaton(2, 0), VOCAB, path)
        odd = accepts_path(length_modulo_automaton(2, 1), VOCAB, path)
        assert even != odd


# ----------------------------------------------------------------------
# The Section 6 translation on random marker formulas
# ----------------------------------------------------------------------
class TestTranslationAgreement:
    @given(
        path=path_strategy,
        method=st.sampled_from(["AcM1", "AcM2"]),
        negate=st.booleans(),
        wrap=st.sampled_from(["none", "F", "G"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_zeroary_to_plus_agrees_on_random_marker_formulas(
        self, path, method, negate, wrap
    ):
        formula = zeroary_binding_atom(method)
        if negate:
            formula = lnot(formula)
        if wrap == "F":
            formula = AccEventually(formula)
        elif wrap == "G":
            formula = AccGlobally(formula)
        translated = zeroary_to_plus(formula, VOCAB)
        assert path_satisfies(VOCAB, path, formula) == path_satisfies(
            VOCAB, path, translated
        )


# ----------------------------------------------------------------------
# Formula progression against the whole-path oracle
# ----------------------------------------------------------------------
#: Atoms whose truth a valuation sets per transition, with the fact that
#: makes each one hold.
PROGRESSION_ATOMS = (
    (zeroary_binding_atom("AcM1"), ("IsBind0__AcM1", ())),
    (zeroary_binding_atom("AcM2"), ("IsBind0__AcM2", ())),
    (
        relation_nonempty_pre(VOCAB, "Mobile"),
        ("Mobile__pre", ("Jones", "OX26NN", "Banbury Rd", 5553434)),
    ),
)

progression_formulas = st.recursive(
    st.sampled_from([AccTrue()] + [atom for atom, _ in PROGRESSION_ATOMS]),
    lambda children: st.one_of(
        st.builds(AccNot, children),
        st.builds(AccAnd, children, children),
        st.builds(AccOr, children, children),
        st.builds(AccNext, children),
        st.builds(AccUntil, children, children),
        st.builds(AccEventually, children),
        st.builds(AccGlobally, children),
    ),
    max_leaves=10,
)

valuations = st.lists(
    st.tuples(*(st.booleans() for _ in PROGRESSION_ATOMS)), min_size=1, max_size=5
)


def _valuation_structures(path_valuations):
    """One transition structure per valuation, holding exactly its true atoms."""
    access = directory_access_schema().access("AcM1", ("Jones",))
    structures = []
    for valuation in path_valuations:
        instance = Instance(VOCAB.schema)
        for value, (_, (relation, tup)) in zip(valuation, PROGRESSION_ATOMS):
            if value:
                instance.add(relation, tup)
        structures.append(
            TransitionStructure(vocabulary=VOCAB, access=access, structure=instance)
        )
    return structures


class TestProgression:
    @given(formula=progression_formulas, path_valuations=valuations)
    @settings(max_examples=300, deadline=None)
    def test_progression_agrees_with_satisfies_at(self, formula, path_valuations):
        structures = _valuation_structures(path_valuations)
        progression = Progression(formula)
        position_of = {
            atom.sentence: index for index, (atom, _) in enumerate(PROGRESSION_ATOMS)
        }
        # The evaluator's atom numbers, mapped onto the valuation columns.
        columns = [position_of[sentence] for sentence in progression.atoms]
        asked = []

        def holds_at(step):
            def atom_holds(number):
                asked.append((step, number))
                return path_valuations[step][columns[number]]

            return atom_holds

        obligation = progression.root
        for newest in range(len(path_valuations)):
            asked.clear()
            verdict = progression.last(obligation, holds_at(newest))
            expected = satisfies_at(structures[: newest + 1], 0, formula)
            assert verdict == expected, (str(formula), path_valuations, newest)
            obligation = progression.progress(obligation, holds_at(newest))
            # Only the newest transition's atoms are read, and a settled
            # obligation reads none.
            assert all(step == newest for step, _ in asked)
            assert all(0 <= number < len(columns) for _, number in asked)
            if obligation in (FALSE, TRUE):
                asked.clear()
                progression.last(obligation, holds_at(newest + 1))
                progression.progress(obligation, holds_at(newest + 1))
                assert asked == []

    @given(formula=progression_formulas, path_valuations=valuations)
    @settings(max_examples=100, deadline=None)
    def test_progressed_obligations_are_hash_consed(self, formula, path_valuations):
        """Progressing twice with the same atom verdicts gives the same node."""
        progression = Progression(formula)
        columns = {
            atom.sentence: index for index, (atom, _) in enumerate(PROGRESSION_ATOMS)
        }
        obligation = progression.root
        for valuation in path_valuations:

            def atom_holds(number):
                return valuation[columns[progression.atoms[number]]]

            first = progression.progress(obligation, atom_holds)
            assert progression.progress(obligation, atom_holds) == first
            obligation = first
