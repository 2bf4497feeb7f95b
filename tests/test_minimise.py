"""The emptiness quotient (``AAutomaton.minimise``) and chain subsumption.

``automaton_emptiness`` searches the quotient, not the caller's
automaton, so two things must hold for every automaton it can receive:

* the quotient preserves emptiness — on any path, *some non-empty prefix*
  is accepted by ``A`` iff one is accepted by ``A.minimise()`` — and every
  path the quotient accepts is accepted by ``A`` (property tests over
  random paths drawn from the witness search's own candidate table);
* the accepting sinks of a union's branches stay apart, so each branch
  keeps its own Lemma 4.9 chain and its own candidate pool, and only
  chains another chain subsumes are dropped.
"""

from __future__ import annotations

import functools

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.access.path import AccessPath, PathStep
from repro.automata.aautomaton import AAutomaton, ATransition, Guard
from repro.automata.emptiness import _WitnessSearch, automaton_emptiness
from repro.automata.library import containment_automaton, ltr_automaton
from repro.automata.operations import (
    concatenation_automaton,
    intersection_automaton,
    length_modulo_automaton,
    method_sequence_automaton,
    relabel,
    union_automaton,
)
from repro.automata.progressive import chain_restrictions, scc_chain
from repro.automata.run import accepts_path, accepts_structures
from repro.core.properties import zeroary_binding_atom
from repro.core.solver import AccLTLSolver
from repro.core.transition import path_structures
from repro.workloads.directory import (
    directory_access_schema,
    jones_address_query,
    join_query,
    resident_names_query,
    smith_phone_query,
)
from repro.workloads.generators import WorkloadGenerator
from repro.workloads.scenarios import _synthetic_scenario, standard_scenarios

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _scenario_automata(scenario):
    vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
    ltr = ltr_automaton(vocabulary, scenario.probe_access, scenario.query_one)
    containment = containment_automaton(
        vocabulary, scenario.query_one, scenario.query_two, grounded=False
    )
    return vocabulary, ltr, containment


def _directory():
    return _scenario_automata(standard_scenarios()[0])


def _generated_containment(seed):
    generator = WorkloadGenerator(seed=seed)
    access_schema = generator.access_schema(
        num_relations=2, methods_per_relation=2, max_inputs=1
    )
    vocabulary = AccLTLSolver(access_schema).vocabulary
    q1 = generator.conjunctive_query(access_schema.schema, num_atoms=2, num_variables=3)
    q2 = generator.conjunctive_query(access_schema.schema, num_atoms=2, num_variables=3)
    return vocabulary, containment_automaton(vocabulary, q1, q2, grounded=False)


def _generated_ltr(seed):
    scenario = _synthetic_scenario(seed=seed, num_relations=2 + seed % 2, name="s")
    vocabulary, ltr, _ = _scenario_automata(scenario)
    return vocabulary, ltr


def _accepting_initial():
    """A hand-built automaton whose initial state is accepting."""
    vocabulary, ltr, _ = _directory()
    bind1 = Guard(positives=(zeroary_binding_atom("AcM1").sentence,))
    bind2 = Guard(positives=(zeroary_binding_atom("AcM2").sentence,))
    probe = ltr.transitions_into(sorted(ltr.accepting)[0])[0].guard
    automaton = AAutomaton(
        states=["q0", "q1", "q2"],
        initial="q0",
        accepting=["q0", "q2"],
        transitions=[
            ATransition("q0", bind1, "q1"),
            ATransition("q0", bind2, "q0"),
            ATransition("q1", bind2, "q0"),
            ATransition("q1", Guard(), "q1"),
            ATransition("q1", probe, "q2"),
            ATransition("q2", bind1, "q1"),
        ],
        name="accepting-initial",
    )
    return vocabulary, automaton


def _jones():
    return _scenario_automata(standard_scenarios()[1])


#: Every construction of ``automata/operations.py``, over automata with
#: short witnesses (the Jones relevance automaton has one of length 2).
OPERATIONS = {
    "union": lambda v, ltr, cont: union_automaton(cont, ltr),
    "intersection": lambda v, ltr, cont: intersection_automaton(
        ltr, length_modulo_automaton(2)
    ),
    "concatenation": lambda v, ltr, cont: concatenation_automaton(
        method_sequence_automaton(v, ["AcM1"]), ltr
    ),
    "length-modulo": lambda v, ltr, cont: length_modulo_automaton(3, 1),
    "length-modulo-concatenation": lambda v, ltr, cont: concatenation_automaton(
        length_modulo_automaton(2, 1), ltr
    ),
    "method-sequence": lambda v, ltr, cont: intersection_automaton(
        method_sequence_automaton(v, ["AcM2", "AcM1", "AcM2"]),
        length_modulo_automaton(1),
    ),
}

def _operation(build):
    vocabulary, ltr, containment = _jones()
    return vocabulary, build(vocabulary, ltr, containment)


#: ``name -> () -> (vocabulary, automaton)``.
INPUTS = {
    **{
        f"generated-containment-{seed}": (lambda seed=seed: _generated_containment(seed))
        for seed in range(3)
    },
    **{
        f"generated-ltr-{seed}": (lambda seed=seed: _generated_ltr(seed))
        for seed in (1, 4, 9)
    },
    "directory-ltr": lambda: _directory()[:2],
    "directory-containment": lambda: _directory()[::2],
    "directory-jones-ltr": lambda: _jones()[:2],
    "directory-jones-containment": lambda: _jones()[::2],
    **{
        name: (lambda build=build: _operation(build))
        for name, build in OPERATIONS.items()
    },
    "accepting-initial": _accepting_initial,
}


@functools.lru_cache(maxsize=None)
def _prepared(name):
    """``(vocabulary, automaton, quotient, search)`` of one input.

    The search runs over the caller's (trimmed) automaton, not over the
    quotient: its candidate table is where the random paths come from.
    """
    vocabulary, automaton = INPUTS[name]()
    search = _WitnessSearch(
        automaton.trim(),
        vocabulary,
        vocabulary.access_schema.empty_instance(),
        max_length=5,
        max_response_size=2,
        max_paths=1,
        memoize=False,
    )
    return vocabulary, automaton, automaton.minimise(), search


def _draw_path(data, search):
    """A path of 1–5 candidate steps: uniform, or a run of the automaton.

    A run picks, at each step, a candidate that some transition out of the
    current states accepts — often one that reaches an accepting state —
    so accepted prefixes are common; uniform paths mostly reach no
    accepting state and test the other direction.
    """
    length = data.draw(st.integers(1, 5))
    if not data.draw(st.booleans()):
        indices = data.draw(
            st.lists(
                st.integers(0, len(search.candidates) - 1),
                min_size=length,
                max_size=length,
            )
        )
        return AccessPath(tuple(PathStep(*search.candidates[i]) for i in indices))
    search._position(search.initial_snapshot)
    states = search.start_states
    steps = []
    while len(steps) < length:
        following_of = search.node_guards(states, None)
        moves = {}
        for index in range(len(search.candidates)):
            following = following_of(index)
            if following:
                moves[index] = frozenset(following)
        if not moves:
            break
        accepting = sorted(
            index for index, following in moves.items() if following & search.accepting
        )
        if accepting and data.draw(st.booleans()):
            moves = {i: moves[i] for i in accepting}
        index = data.draw(st.sampled_from(sorted(moves)))
        access, response = search.candidates[index]
        for tup in response:
            search.config.add_unchecked(access.relation, tup)
        search._position(search.config.snapshot())
        states = moves[index]
        steps.append(PathStep(*search.candidates[index]))
    if not steps:
        steps.append(PathStep(*search.candidates[0]))
    return AccessPath(tuple(steps))


def _has_accepted_prefix(automaton, structures):
    return any(
        accepts_structures(automaton, structures[:length])
        for length in range(1, len(structures) + 1)
    )


# ----------------------------------------------------------------------
# The quotient preserves emptiness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", INPUTS)
@SETTINGS
@given(data=st.data())
def test_quotient_preserves_accepted_prefixes(name, data):
    vocabulary, automaton, quotient, search = _prepared(name)
    path = _draw_path(data, search)
    structures = path_structures(vocabulary, path)
    assert _has_accepted_prefix(quotient, structures) == _has_accepted_prefix(
        automaton, structures
    )
    if accepts_structures(quotient, structures):
        assert accepts_structures(automaton, structures)


@pytest.mark.parametrize("name", INPUTS)
def test_minimise_is_idempotent_in_size(name):
    _, automaton, quotient, _ = _prepared(name)
    assert quotient.minimise().size() == quotient.size()
    states, transitions = quotient.size()
    assert states <= len(automaton.trim().states)
    assert transitions <= len(automaton.trim().transitions)


def test_accepting_states_become_sinks_except_initial():
    _, automaton, quotient, _ = _prepared("accepting-initial")
    assert quotient.initial in quotient.accepting
    assert quotient.transitions_from(quotient.initial)
    for state in quotient.accepting - {quotient.initial}:
        assert not quotient.transitions_from(state)


def test_quotient_witness_is_a_witness_of_the_original():
    for name in INPUTS:
        vocabulary, automaton, _, _ = _prepared(name)
        result = automaton_emptiness(automaton, vocabulary, max_paths=400)
        if result.witness is not None:
            assert accepts_path(automaton, vocabulary, result.witness), name


# ----------------------------------------------------------------------
# Union branches stay apart
# ----------------------------------------------------------------------
def _probe_vocabulary():
    schema = directory_access_schema()
    schema.add("AddressProbe", "Address", (0, 1, 2, 3))
    return schema, AccLTLSolver(schema).vocabulary


#: The Hidden Lane probe and the Jones query: a witness after 65 paths at
#: ``max_paths=600``; the other two branches are capped there.
HIDDEN_LANE = ("Hidden Lane", "OX99ZZ", "Jones", 7)


def _three_branch_union():
    schema, vocabulary = _probe_vocabulary()
    parts = [
        (("Parks Rd", "OX13QD", "Smith", 13), join_query()),
        (("Banbury Rd", "OX26NN", "Novak", 99), smith_phone_query()),
        (HIDDEN_LANE, jones_address_query()),
    ]
    branches = [
        relabel(
            ltr_automaton(vocabulary, schema.access("AddressProbe", binding), query),
            f"c{index}_",
        )
        for index, (binding, query) in enumerate(parts)
    ]
    union = union_automaton(union_automaton(branches[0], branches[1]), branches[2])
    return vocabulary, branches, union


def _directory_union_nonempty():
    vocabulary, ltr, _ = _directory()
    containment = containment_automaton(
        vocabulary, resident_names_query(), join_query(), grounded=False
    )
    return vocabulary, [containment, ltr], union_automaton(containment, ltr)


def _all_chains(automaton):
    """Every initial-to-accepting chain of the condensation, as state sets."""
    condensation = scc_chain(automaton)
    index = {
        state: position
        for position, component in enumerate(condensation.components)
        for state in component
    }
    accepting = {index[state] for state in automaton.accepting}
    chains = []

    def extend(chain):
        if chain[-1] in accepting:
            chains.append(chain)
        for source, target in condensation.edges:
            if source == chain[-1]:
                extend(chain + (target,))

    extend((index[automaton.initial],))
    return [
        (
            frozenset().union(*(condensation.components[i] for i in chain)),
            condensation.components[chain[-1]],
        )
        for chain in chains
    ]


@pytest.mark.parametrize("build", [_three_branch_union, _directory_union_nonempty])
def test_union_chains_stay_within_one_branch(build):
    _, branches, union = build()
    quotient = union.minimise()
    branch_guards = [
        {id(transition.guard) for transition in branch.transitions}
        for branch in branches
    ]
    restrictions = chain_restrictions(quotient)
    assert len(restrictions) == len(branches)
    for restriction in restrictions:
        guards = {id(transition.guard) for transition in restriction.transitions}
        owners = [i for i, owned in enumerate(branch_guards) if guards <= owned]
        assert len(owners) == 1, restriction.name
    kept = [
        (frozenset(restriction.states), frozenset(restriction.accepting))
        for restriction in restrictions
    ]
    dropped = 0
    for states, last in _all_chains(quotient):
        if any(states == kept_states for kept_states, _ in kept):
            continue
        dropped += 1
        assert any(
            states < kept_states and last >= kept_last
            for kept_states, kept_last in kept
        )
    assert dropped == len(branches)


def test_witnessed_branch_found_under_the_cap():
    vocabulary, branches, union = _three_branch_union()
    alone = automaton_emptiness(
        branches[2], vocabulary, max_paths=600, use_datalog_precheck=False
    )
    assert alone.witness is not None and alone.paths_explored == 65
    result = automaton_emptiness(
        union, vocabulary, max_paths=600, use_datalog_precheck=False, parallel=False
    )
    assert result.witness == alone.witness
    assert accepts_path(union, vocabulary, result.witness)
    # The witnessed branch's chain comes first and stops the fold.
    assert result.chains_checked == 3
    assert result.paths_explored == 65
