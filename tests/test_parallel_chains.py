"""The ignored ``parallel`` and ``subtree_parallel`` keywords.

Every chain of an ``automaton_emptiness`` call is checked in process, one
after the other.  ``parallel`` and ``subtree_parallel`` are accepted and
ignored, so every combination must return the plain search's
:class:`~repro.automata.emptiness.EmptinessResult` on every field —
verdict, witness and exploration counters.
"""

from __future__ import annotations

import pytest

from repro.automata.emptiness import (
    automaton_emptiness,
    check_restriction,
    datalog_emptiness_precheck,
)
from repro.automata.library import containment_automaton, ltr_automaton
from repro.automata.operations import union_automaton
from repro.automata.progressive import chain_restrictions
from repro.automata.run import accepts_path
from repro.core.solver import AccLTLSolver
from repro.workloads.directory import (
    directory_access_schema,
    join_query,
    resident_names_query,
)
from repro.workloads.generators import WorkloadGenerator
from repro.workloads.scenarios import standard_scenarios


def _result_fields(result):
    return (
        result.empty,
        result.witness,
        result.exhausted,
        result.paths_explored,
        result.chains_checked,
    )


def _multi_chain_automaton(vocabulary, empty_language: bool):
    """A union automaton whose condensation has several chains."""
    scenario = next(s for s in standard_scenarios() if s.name == "directory")
    ltr = ltr_automaton(vocabulary, scenario.probe_access, scenario.query_one)
    if empty_language:
        containment = containment_automaton(
            vocabulary, join_query(), resident_names_query(), grounded=False
        )
    else:
        containment = containment_automaton(
            vocabulary, resident_names_query(), join_query(), grounded=False
        )
    return union_automaton(containment, ltr)


@pytest.fixture(scope="module")
def vocabulary():
    return AccLTLSolver(directory_access_schema()).vocabulary


class TestParallelMatchesSequential:
    @pytest.mark.parametrize("empty_language", [True, False])
    def test_bit_identical_results(self, vocabulary, empty_language):
        automaton = _multi_chain_automaton(vocabulary, empty_language)
        assert len(chain_restrictions(automaton.trim())) > 1
        kwargs = dict(max_paths=4000, use_datalog_precheck=False)
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        parallel = automaton_emptiness(automaton, vocabulary, parallel=True, **kwargs)
        assert _result_fields(sequential) == _result_fields(parallel)
        if sequential.witness is not None:
            assert accepts_path(automaton, vocabulary, sequential.witness)

    def test_bit_identical_with_precheck(self, vocabulary):
        automaton = _multi_chain_automaton(vocabulary, empty_language=True)
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, max_paths=4000
        )
        parallel = automaton_emptiness(
            automaton, vocabulary, parallel=True, max_paths=4000
        )
        assert _result_fields(sequential) == _result_fields(parallel)

    def test_single_chain_skips_the_pool(self, vocabulary):
        scenario = next(s for s in standard_scenarios() if s.name == "directory-jones")
        voc = AccLTLSolver(scenario.access_schema).vocabulary
        automaton = ltr_automaton(voc, scenario.probe_access, scenario.query_one)
        sequential = automaton_emptiness(
            automaton, voc, parallel=False, max_paths=4000
        )
        parallel = automaton_emptiness(automaton, voc, parallel=True, max_paths=4000)
        assert _result_fields(sequential) == _result_fields(parallel)


#: Per chain of ``_multi_chain_automaton``: ``(prechecked_empty, has a
#: witness, exhausted, explored)``.
_CHAIN_OUTCOMES = {
    True: [(True, False, True, 0), (True, False, True, 0)],
    False: [(True, False, True, 0), (False, True, False, 19)],
}


class TestWorkerUnit:
    def test_check_restriction_matches_inline_fold(self, vocabulary):
        """``check_restriction`` checks each chain on its own, and the
        chain fold of its outcomes is ``automaton_emptiness``'s result."""
        for empty_language, expected in _CHAIN_OUTCOMES.items():
            self._check_chains(vocabulary, empty_language, expected)

    def _check_chains(self, vocabulary, empty_language, expected):
        automaton = _multi_chain_automaton(vocabulary, empty_language)
        restrictions = chain_restrictions(automaton.minimise())
        kwargs = dict(
            max_length=4,
            max_response_size=2,
            max_paths=1500,
            fact_pool=None,
            value_pool=None,
            grounded_only=False,
            memoize=True,
        )
        initial = vocabulary.access_schema.empty_instance()
        outcomes = [
            check_restriction(r, vocabulary, initial, kwargs, True)
            for r in restrictions
        ]
        assert [
            (o.prechecked_empty, o.witness is not None, o.exhausted, o.explored)
            for o in outcomes
        ] == expected
        for restriction, outcome in zip(restrictions, outcomes):
            prechecked = datalog_emptiness_precheck(restriction, vocabulary) is True
            assert outcome.prechecked_empty == prechecked
            if not prechecked:
                # The precheck passed the chain on: its search decides it.
                searched = check_restriction(
                    restriction, vocabulary, initial, kwargs, False
                )
                assert (outcome.witness, outcome.exhausted, outcome.explored) == (
                    searched.witness,
                    searched.exhausted,
                    searched.explored,
                )
            if outcome.witness is not None:
                assert accepts_path(automaton, vocabulary, outcome.witness)
        # The chain fold: chains in order up to the first witness.
        folded = []
        for outcome in outcomes:
            folded.append(outcome)
            if outcome.witness is not None:
                break
        witness = folded[-1].witness
        whole = automaton_emptiness(
            automaton, vocabulary, max_length=4, max_response_size=2, max_paths=1500
        )
        assert _result_fields(whole) == (
            witness is None,
            witness,
            witness is None and all(o.exhausted for o in folded),
            sum(o.explored for o in folded),
            len(restrictions),
        )


class TestSubtreeMatchesSequential:
    """``subtree_parallel`` and ``parallel`` leave every field unchanged."""

    @pytest.mark.parametrize("empty_language", [True, False])
    def test_full_field_equality_memoize_off(self, vocabulary, empty_language):
        """With memoize=False every combination agrees on every field."""
        automaton = _multi_chain_automaton(vocabulary, empty_language)
        kwargs = dict(max_paths=1200, use_datalog_precheck=False, memoize=False)
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        reference = _result_fields(sequential)
        for parallel in (False, True):
            for subtree_parallel in (False, True):
                result = automaton_emptiness(
                    automaton,
                    vocabulary,
                    parallel=parallel,
                    subtree_parallel=subtree_parallel,
                    **kwargs,
                )
                assert _result_fields(result) == reference
        if sequential.witness is not None:
            assert accepts_path(automaton, vocabulary, sequential.witness)

    @pytest.mark.parametrize("empty_language", [True, False])
    def test_verdict_equality_memoized(self, vocabulary, empty_language):
        """With the memo on, the modes agree on every field too."""
        automaton = _multi_chain_automaton(vocabulary, empty_language)
        kwargs = dict(max_paths=1500, use_datalog_precheck=False)
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        subtree = automaton_emptiness(
            automaton, vocabulary, parallel=False, subtree_parallel=True, **kwargs
        )
        assert _result_fields(subtree) == _result_fields(sequential)

    def test_memoized_boundary_abort_is_identical(self, vocabulary):
        """At the ``max_paths`` boundary the modes still agree on every field.

        A cap equal to the paths the memoised search needs to exhaust
        this automaton lets it finish; one less stops it one path short,
        undecided, in every mode alike.
        """
        automaton = containment_automaton(
            vocabulary, join_query(), resident_names_query(), grounded=False
        )
        needed = automaton_emptiness(
            automaton, vocabulary, parallel=False, use_datalog_precheck=False
        ).paths_explored
        for max_paths, exhausted in ((needed, True), (needed - 1, False)):
            kwargs = dict(max_paths=max_paths, use_datalog_precheck=False)
            sequential = automaton_emptiness(
                automaton, vocabulary, parallel=False, **kwargs
            )
            subtree = automaton_emptiness(
                automaton, vocabulary, parallel=True, subtree_parallel=True, **kwargs
            )
            assert sequential.empty and sequential.exhausted == exhausted
            assert sequential.paths_explored == needed
            assert _result_fields(subtree) == _result_fields(sequential)


class TestRandomizedDeterminism:
    """Randomised workloads: field-by-field mode agreement."""

    @staticmethod
    def _random_automaton(seed: int):
        generator = WorkloadGenerator(seed=seed)
        access_schema = generator.access_schema(
            num_relations=2, methods_per_relation=2, max_inputs=1
        )
        vocabulary = AccLTLSolver(access_schema).vocabulary
        q1 = generator.conjunctive_query(
            access_schema.schema, num_atoms=2, num_variables=3
        )
        q2 = generator.conjunctive_query(
            access_schema.schema, num_atoms=2, num_variables=3
        )
        return containment_automaton(vocabulary, q1, q2, grounded=False), vocabulary

    @pytest.mark.parametrize("seed", range(6))
    def test_modes_agree_field_by_field(self, seed):
        automaton, vocabulary = self._random_automaton(seed)
        kwargs = dict(max_paths=250, use_datalog_precheck=False, memoize=False)
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        subtree = automaton_emptiness(
            automaton, vocabulary, parallel=True, subtree_parallel=True, **kwargs
        )
        assert _result_fields(subtree) == _result_fields(sequential)

    @pytest.mark.parametrize("seed", range(3))
    def test_memoized_verdicts_agree(self, seed):
        automaton, vocabulary = self._random_automaton(seed)
        kwargs = dict(max_paths=250, use_datalog_precheck=False)
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        subtree = automaton_emptiness(
            automaton, vocabulary, parallel=False, subtree_parallel=True, **kwargs
        )
        assert _result_fields(subtree) == _result_fields(sequential)
