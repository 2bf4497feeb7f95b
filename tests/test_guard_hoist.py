"""Candidate-independent guard work in the emptiness search.

The witness search evaluates every transition guard of a node against
each candidate step.  Sentences that read only the pre configuration
(kind 0) are decided once per node, each sentence runs a plan bound when
the search is built, and the Lemma 4.10 precheck runs once per distinct
guard of an emptiness call.  None of that may change a verdict or a work
count, which these tests pin three ways:

* an oracle: at sampled nodes the search's set of following automaton
  states equals the set computed from scratch, guard by guard, with
  ``holds`` over a freshly built transition structure, and a last-level
  evaluation gives that set's accepting states;
* a committed fixture (``tests/data/emptiness_results.json``) holding the
  ``EmptinessResult`` fields of a fixed list of inputs, recorded for the
  sequential and ``memoize=False`` runs and matched by those, by the
  anytime-resumed runs, and by runs passing the ignored
  ``subtree_parallel=True``.  Its work counts were re-recorded when the
  search moved to the emptiness quotient (``AAutomaton.minimise``); its
  verdicts and witnesses must still equal the ones recorded before
  (``tests/data/emptiness_verdicts.json``), and every witness must replay
  on the caller's own automaton;
* a call count: an in-process multi-chain check refutes each distinct
  guard over its transition structures, and builds its Datalog program,
  at most once, and every chain's precheck verdict equals the per-chain
  reference.

The static method filter of binding sentences (a kind-2 sentence whose
``methods`` exclude a candidate's method is false without evaluation)
has its own oracle: for every bound sentence and every candidate it
rejects, ``holds`` over the freshly built transition structure is false.

Regenerate the fixture (only when a change is *meant* to alter results)
with ``PYTHONPATH=src python tests/test_guard_hoist.py``; the verdicts
file is not regenerated.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.automata import emptiness as emptiness_module
from repro.core import refuter as refuter_module
from repro.automata.emptiness import (
    _WitnessSearch,
    automaton_emptiness,
    datalog_emptiness_precheck,
)
from repro.automata.library import containment_automaton, ltr_automaton
from repro.automata.operations import union_automaton
from repro.automata.progressive import chain_restrictions
from repro.automata.run import accepts_path
from repro.core import properties
from repro.core.bounded_check import (
    ResponseIndex,
    _candidate_responses,
    candidate_accesses_for_search,
    fact_pool_from_sentences,
)
from repro.core.budget import Budget
from repro.core.formulas import EmbeddedSentence
from repro.core.solver import AccLTLSolver
from repro.core.transition import bind_sentence, transition_structure
from repro.core.vocabulary import is_isbind, is_isbind0
from repro.io.json_io import access_path_from_dict, access_path_to_dict
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.evaluation import holds
from repro.queries.terms import Variable
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.store.snapshot import SnapshotInstance
from repro.workloads.directory import join_query, resident_names_query
from repro.workloads.generators import WorkloadGenerator
from repro.workloads.scenarios import _synthetic_scenario, standard_scenarios

FIXTURE = Path(__file__).with_name("data") / "emptiness_results.json"

#: ``empty``, ``exhausted`` and a digest of the witness per input and mode,
#: as recorded before the search ran on the emptiness quotient
#: (``AAutomaton.minimise``).  Re-recording the fixture may move the work
#: counts; it must not move these.  One edit since: the precheck over
#: canonical transition structures proves ``synthetic-3rel-ltr`` empty, so
#: its rows went from a capped EMPTY (``exhausted`` false) to an exhausted
#: one (:func:`test_synthetic_3rel_ltr_has_no_witness_at_a_large_cap`).
VERDICTS = Path(__file__).with_name("data") / "emptiness_verdicts.json"

#: Run modes recorded in the fixture; anytime-resumed runs are compared
#: with ``sequential``/``memo_off``.
MODES = {
    "sequential": dict(parallel=False, subtree_parallel=False),
    "memo_off": dict(parallel=False, subtree_parallel=False, memoize=False),
}

#: Modes checked against a recorded one.  ``subtree_parallel`` is accepted
#: and ignored, so it must reproduce the recorded row on every field.
ALIASES = {
    "subtree": ("sequential", dict(parallel=False, subtree_parallel=True)),
    "subtree_memo_off": (
        "memo_off",
        dict(parallel=False, subtree_parallel=True, memoize=False),
    ),
}


def _scenario(name):
    return next(s for s in standard_scenarios() if s.name == name)


def _scenario_ltr(name):
    scenario = _scenario(name)
    vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
    automaton = ltr_automaton(vocabulary, scenario.probe_access, scenario.query_one)
    return automaton, vocabulary, dict(max_paths=1500)


def _directory_union(empty_language):
    scenario = _scenario("directory")
    vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
    ltr = ltr_automaton(vocabulary, scenario.probe_access, scenario.query_one)
    queries = (join_query(), resident_names_query())
    if not empty_language:
        queries = queries[::-1]
    containment = containment_automaton(vocabulary, *queries, grounded=False)
    return union_automaton(containment, ltr), vocabulary, dict(max_paths=1500)


def _directory_containment():
    scenario = _scenario("directory")
    vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
    automaton = containment_automaton(
        vocabulary, join_query(), resident_names_query(), grounded=False
    )
    return automaton, vocabulary, dict(max_paths=1500, use_datalog_precheck=False)


def _generated(seed):
    generator = WorkloadGenerator(seed=seed)
    access_schema = generator.access_schema(
        num_relations=2, methods_per_relation=2, max_inputs=1
    )
    vocabulary = AccLTLSolver(access_schema).vocabulary
    q1 = generator.conjunctive_query(access_schema.schema, num_atoms=2, num_variables=3)
    q2 = generator.conjunctive_query(access_schema.schema, num_atoms=2, num_variables=3)
    automaton = containment_automaton(vocabulary, q1, q2, grounded=False)
    return automaton, vocabulary, dict(max_paths=250)


INPUTS = {
    "directory-ltr": lambda: _scenario_ltr("directory"),
    "directory-jones-ltr": lambda: _scenario_ltr("directory-jones"),
    "synthetic-2rel-ltr": lambda: _scenario_ltr("synthetic-2rel"),
    "synthetic-3rel-ltr": lambda: _scenario_ltr("synthetic-3rel"),
    "directory-union-empty": lambda: _directory_union(True),
    "directory-union-nonempty": lambda: _directory_union(False),
    "directory-containment": _directory_containment,
    **{f"generated-{seed}": (lambda seed=seed: _generated(seed)) for seed in range(6)},
}

def _fields(result):
    return {
        "empty": result.empty,
        "witness": (
            access_path_to_dict(result.witness) if result.witness is not None else None
        ),
        "exhausted": result.exhausted,
        "paths_explored": result.paths_explored,
        "chains_checked": result.chains_checked,
    }


def _run(name, **mode):
    automaton, vocabulary, kwargs = INPUTS[name]()
    return automaton_emptiness(automaton, vocabulary, **{**kwargs, **mode})


def _record():
    return {
        name: {mode: _fields(_run(name, **MODES[mode])) for mode in MODES}
        for name in INPUTS
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_input(recorded):
    assert sorted(recorded) == sorted(INPUTS)
    assert all(sorted(entry) == sorted(MODES) for entry in recorded.values())


@pytest.mark.parametrize("mode", sorted({**MODES, **ALIASES}))
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_results_match_fixture(recorded, name, mode):
    row, kwargs = ALIASES.get(mode, (mode, MODES.get(mode)))
    assert _fields(_run(name, **kwargs)) == recorded[name][row]


def _witness_digest(witness):
    if witness is None:
        return None
    text = json.dumps(witness, sort_keys=True).encode()
    return hashlib.sha256(text).hexdigest()[:16]


def test_fixture_verdicts_match_pre_quotient_record(recorded):
    verdicts = json.loads(VERDICTS.read_text())
    assert sorted(verdicts) == sorted(recorded)
    for name, modes in recorded.items():
        for mode, fields in modes.items():
            assert {
                "empty": fields["empty"],
                "exhausted": fields["exhausted"],
                "witness": _witness_digest(fields["witness"]),
            } == verdicts[name][mode], (name, mode)


def test_synthetic_3rel_ltr_has_no_witness_at_a_large_cap(recorded):
    """The precheck's EMPTY agrees with a search 13x past the fixture's cap."""
    assert all(
        fields["exhausted"] and fields["paths_explored"] == 0
        for fields in recorded["synthetic-3rel-ltr"].values()
    )
    automaton, vocabulary, _ = INPUTS["synthetic-3rel-ltr"]()
    result = automaton_emptiness(
        automaton, vocabulary, max_paths=20000, use_datalog_precheck=False
    )
    assert result.witness is None


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_fixture_witnesses_replay_on_original_automaton(recorded, name):
    """Every witness of the quotient's search is one of the caller's automaton."""
    automaton, vocabulary, _ = INPUTS[name]()
    for fields in recorded[name].values():
        if fields["witness"] is not None:
            witness = access_path_from_dict(fields["witness"], vocabulary.access_schema)
            assert accepts_path(automaton, vocabulary, witness)


@pytest.mark.parametrize("memoize", [True, False])
@pytest.mark.parametrize(
    "name", ["directory-ltr", "directory-union-nonempty", "generated-1"]
)
def test_anytime_resumed_matches_fixture(recorded, name, memoize):
    automaton, vocabulary, kwargs = INPUTS[name]()
    kwargs = dict(kwargs, memoize=memoize, parallel=False)
    result = automaton_emptiness(
        automaton, vocabulary, budget=Budget(node_cap=150), **kwargs
    )
    hops = 0
    while result.unknown:
        hops += 1
        assert hops <= 1000
        result = automaton_emptiness(
            automaton,
            vocabulary,
            resume_from=result.frontier,
            budget=Budget(node_cap=150),
            **kwargs,
        )
    mode = "sequential" if memoize else "memo_off"
    assert _fields(result) == recorded[name][mode]


# ----------------------------------------------------------------------
# Oracle: following states recomputed from scratch
# ----------------------------------------------------------------------
def _oracle_following(automaton, vocabulary, configuration, states, access, response):
    structure = transition_structure(
        vocabulary, configuration, access, response=response
    ).structure
    following = set()
    for transition in automaton.transitions:
        if transition.source not in states:
            continue
        guard = transition.guard
        if all(holds(s.query, structure) for s in guard.positives) and not any(
            holds(s.query, structure) for s in guard.negated
        ):
            following.add(transition.target)
    return following


def _successors(search, states, last_level=False):
    """The search's own following states per candidate at its position."""
    fingerprint = None
    if search.memoize:
        snapshot = search.config.snapshot()
        fingerprint = search.interned_fingerprints.setdefault(snapshot, snapshot)
    following_of = search.node_guards(states, fingerprint, last_level)
    return {index: following_of(index) for index in range(len(search.candidates))}


def _sampled_nodes(search, rng, count, depth):
    """Random walks from the root: (states, configuration snapshot) pairs."""
    nodes = []
    for _ in range(count):
        states = search.start_states
        search._position(search.initial_snapshot)
        for _ in range(rng.randint(0, depth)):
            moves = [
                (index, following)
                for index, following in _successors(search, states).items()
                if following
            ]
            if not moves:
                break
            index, following = rng.choice(moves)
            access, response = search.candidates[index]
            for tup in response:
                search.config.add_unchecked(access.relation, tup)
            search._position(search.config.snapshot())
            states = frozenset(following)
        nodes.append((states, search.config.snapshot()))
    return nodes


@pytest.mark.parametrize("memoize", [True, False])
@pytest.mark.parametrize(
    "name",
    ["directory-ltr", "directory-union-nonempty", "synthetic-2rel-ltr"]
    + [f"generated-{seed}" for seed in range(6)],
)
def test_following_states_match_oracle(name, memoize):
    automaton, vocabulary, _ = INPUTS[name]()
    automaton = automaton.trim()
    search = _WitnessSearch(
        automaton,
        vocabulary,
        vocabulary.access_schema.empty_instance(),
        max_length=3,
        max_response_size=2,
        max_paths=10**6,
        memoize=memoize,
    )
    rng = random.Random(f"{name}-{memoize}")
    for states, snapshot in _sampled_nodes(search, rng, count=6, depth=3):
        search._position(snapshot)
        configuration = SnapshotInstance.from_snapshot(snapshot)
        # Twice: the second pass reads the verdicts cached by the first.
        for _ in range(2):
            observed = _successors(search, states)
            # A last-level node evaluates only the guards into accepting
            # states.
            last_level = _successors(search, states, last_level=True)
            for index, (access, response) in enumerate(search.candidates):
                expected = _oracle_following(
                    automaton, vocabulary, configuration, states, access, response
                )
                assert observed[index] == expected, (name, index)
                assert last_level[index] == expected & automaton.accepting, (
                    name,
                    index,
                )


# ----------------------------------------------------------------------
# Oracle: the static method filter of binding sentences
# ----------------------------------------------------------------------
def _mixed_sentences(vocabulary):
    """Hand-built binding sentences: mixed, two-method and dead disjuncts."""
    mobile = Atom("Mobile__post", tuple(Variable(f"m{i}") for i in range(4)))
    address = Atom("Address__pre", tuple(Variable(f"a{i}") for i in range(4)))
    bind1 = Atom("IsBind0__AcM1", ())
    bind2 = Atom("IsBind0__AcM2", ())
    nary2 = Atom("IsBind__AcM2", (Variable("b0"), Variable("b1")))

    def sentence(*disjuncts):
        return EmbeddedSentence(
            UnionOfConjunctiveQueries(
                tuple(ConjunctiveQuery(atoms=atoms, head=()) for atoms in disjuncts)
            )
        )

    return {
        "binding-free disjunct": sentence((bind1, mobile), (address,)),
        "two-method disjunct": sentence((bind1, bind2), (nary2, mobile)),
        "dead": sentence((bind1, bind2)),
        "two methods": sentence((bind1, mobile), (bind2,)),
    }


def _filter_inputs():
    """``(name, vocabulary, sentences)``: automaton guards and checker atoms.

    The automata are the directory scenarios' and the seeded
    ``WorkloadGenerator`` scenarios' relevance automata (whose guards
    carry binding sentences); the checker atoms come from relevance and
    access-order formulas over the same schemas.
    """
    for name in ["directory-ltr", "directory-jones-ltr", "directory-union-nonempty"]:
        automaton, vocabulary, _ = INPUTS[name]()
        yield name, vocabulary, automaton.guard_sentences()
    scenarios = standard_scenarios() + [
        _synthetic_scenario(
            seed=seed, num_relations=2 + seed % 2, name=f"synthetic-{seed}"
        )
        for seed in (1, 4, 9)
    ]
    for scenario in scenarios[2:]:
        vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
        automaton = ltr_automaton(vocabulary, scenario.probe_access, scenario.query_two)
        yield f"{scenario.name}-ltr-automaton", vocabulary, automaton.guard_sentences()
    for scenario in scenarios:
        vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
        probe = scenario.probe_access
        formulas = [
            properties.ltr_formula(vocabulary, probe, scenario.query_one),
            properties.ltr_formula_zeroary(
                vocabulary, probe.method.name, scenario.query_one
            ),
            properties.access_order_formula(
                vocabulary,
                probe.method.name,
                sorted(scenario.access_schema.methods)[0],
            ),
        ]
        sentences = [s for formula in formulas for s in formula.atoms()]
        if scenario.name == "directory":
            sentences += list(_mixed_sentences(vocabulary).values())
        yield f"{scenario.name}-formulas", vocabulary, sentences


def _names_binding(disjunct):
    return any(
        is_isbind(atom.relation) or is_isbind0(atom.relation)
        for atom in disjunct.atoms
    )


def _filter_candidates(vocabulary, sentences):
    """Every candidate step of the searches' pools over *sentences*."""
    fact_pool = fact_pool_from_sentences(vocabulary, sentences)
    values = sorted(
        {value for _, tup in fact_pool for value in tup}
        | {c.value for s in sentences for c in s.query.constants()},
        key=repr,
    ) + ["~fresh0"]
    index = ResponseIndex(fact_pool)
    accesses = candidate_accesses_for_search(
        vocabulary.access_schema, fact_pool, values, nary_bindings=True
    )
    candidates = [
        (access, response)
        for access in accesses
        for response in _candidate_responses(access, index, 2)
    ]
    full = vocabulary.access_schema.empty_instance()
    for relation, tup in fact_pool:
        full.add(relation, tup)
    return candidates, (vocabulary.access_schema.empty_instance(), full)


@pytest.mark.parametrize("name", [name for name, _, _ in _filter_inputs()])
def test_method_filter_matches_oracle(name):
    vocabulary, sentences = next(
        (vocabulary, sentences)
        for input_name, vocabulary, sentences in _filter_inputs()
        if input_name == name
    )
    candidates, configurations = _filter_candidates(vocabulary, sentences)
    rejected = 0
    for sentence in sentences:
        _, kind, _, methods = bind_sentence(sentence, 0)
        binding_free = any(
            not _names_binding(disjunct) for disjunct in sentence.query.disjuncts
        )
        assert (methods is None) == binding_free, str(sentence)
        if methods is None:
            continue
        assert kind == 2
        for access, response in candidates:
            if access.method.name in methods:
                continue
            for configuration in configurations:
                structure = transition_structure(
                    vocabulary, configuration, access, response=response
                ).structure
                assert not holds(sentence.query, structure), (str(sentence), access)
                rejected += 1
    assert rejected > 0


def test_method_filter_records():
    vocabulary = AccLTLSolver(_scenario("directory").access_schema).vocabulary
    methods = {
        name: bind_sentence(sentence, 0)[3]
        for name, sentence in _mixed_sentences(vocabulary).items()
    }
    assert methods == {
        "binding-free disjunct": None,
        "two-method disjunct": frozenset({"AcM2"}),
        "dead": frozenset(),
        "two methods": frozenset({"AcM1", "AcM2"}),
    }


# ----------------------------------------------------------------------
# One Datalog precheck per guard
# ----------------------------------------------------------------------
def test_precheck_builds_each_guard_program_once(monkeypatch):
    automaton, vocabulary, _ = _directory_union(True)
    restrictions = chain_restrictions(automaton.minimise())
    assert len(restrictions) > 1
    reference = [
        datalog_emptiness_precheck(restriction, vocabulary) is True
        for restriction in restrictions
    ]
    guards = {
        id(transition.guard): transition.guard
        for restriction in restrictions
        for transition in restriction.transitions
    }
    calls = []
    original = emptiness_module.guard_to_datalog

    def counted(guard, voc):
        calls.append(id(guard))
        return original(guard, voc)

    monkeypatch.setattr(emptiness_module, "guard_to_datalog", counted)
    refuted = []
    original_refutes = refuter_module.TransitionRefuter.refutes

    def counted_refutes(self, positives, negated):
        refuted.append((id(positives), id(negated)))
        return original_refutes(self, positives, negated)

    monkeypatch.setattr(refuter_module.TransitionRefuter, "refutes", counted_refutes)
    outcomes = []
    original_check = emptiness_module.check_restriction

    def recording(*args, **kwargs):
        outcome = original_check(*args, **kwargs)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(emptiness_module, "check_restriction", recording)
    result = automaton_emptiness(
        automaton, vocabulary, parallel=False, subtree_parallel=False, max_paths=4000
    )
    assert len(calls) == len(set(calls))
    assert set(calls) <= set(guards)
    # The refuter reads a guard's own sentence tuples; guards sharing both
    # (``Guard()`` shares the empty tuple) may each be checked once.
    sharing = Counter((id(g.positives), id(g.negated)) for g in guards.values())
    assert all(count <= sharing[key] for key, count in Counter(refuted).items())
    assert len(outcomes) == len(restrictions)
    assert [outcome.prechecked_empty for outcome in outcomes] == reference
    monkeypatch.undo()
    # The same chains, each prechecked on its own (no shared verdicts).
    monkeypatch.setattr(
        emptiness_module,
        "check_restriction",
        lambda *args, memo=None, **kwargs: original_check(*args, **kwargs),
    )
    unshared = automaton_emptiness(
        automaton, vocabulary, parallel=False, subtree_parallel=False, max_paths=4000
    )
    assert result == unshared


def test_chains_share_candidate_tables(monkeypatch):
    """The chains of one call build each distinct pool's candidates once."""
    # A union of an automaton with a copy of itself: the quotient keeps
    # one chain per branch (their accepting sinks stay apart) and both
    # chains draw on the same pool.
    containment, vocabulary, _ = _directory_containment()
    automaton = union_automaton(containment, containment)
    restrictions = chain_restrictions(automaton.minimise())
    pools = {
        tuple(map(tuple, emptiness_module._guard_pools(restriction, vocabulary)))
        for restriction in restrictions
    }
    assert len(pools) < len(restrictions)
    searches = []
    built = []
    original_init = _WitnessSearch.__init__
    original_tables = _WitnessSearch._candidate_tables

    def counted_init(self, *args, **kwargs):
        searches.append(self)
        original_init(self, *args, **kwargs)

    def counted_tables(self, nary):
        built.append((tuple(self.fact_pool), tuple(self.value_pool)))
        return original_tables(self, nary)

    monkeypatch.setattr(_WitnessSearch, "__init__", counted_init)
    monkeypatch.setattr(_WitnessSearch, "_candidate_tables", counted_tables)
    result = automaton_emptiness(
        automaton,
        vocabulary,
        parallel=False,
        subtree_parallel=False,
        use_datalog_precheck=False,
        max_paths=1500,
    )
    assert len(searches) == len(restrictions)
    assert sorted(built) == sorted(pools)
    assert result.empty

if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
