"""The witness search's last level against the full-evaluation search.

On the last level of each deepening round (a node one step short of the
round's depth limit) the emptiness search evaluates only the transitions
into accepting states and descends into no child.  That must change no
result, which these tests check three ways:

* a differential oracle: :mod:`oracles.witness_search` keeps the search
  with the full evaluation and the descents into children at the depth
  limit, and every ``EmptinessResult`` field but ``stats`` must be equal
  on ``WorkloadGenerator`` automata and on the ``chains_pooled`` unions
  that ``tests/test_work_counts.py`` searches, with the memo and
  ``grounded_only`` each on and off;
* checkpoints: a node cap that stops on a last-level candidate leaves the
  reference's frontier, and the resumed result is the uninterrupted one;
* the mechanism: on a small automaton with a looping non-accepting state,
  every configuration write belongs to a descent into a node below the
  depth limit, and a last-level node passes no sentence of a transition
  into a non-accepting state to ``plans_hold``.  ``dfs`` is a closure, so
  the two wrapped functions read its ``remaining`` from the calling frame.
"""

from __future__ import annotations

import sys

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from oracles.witness_search import reference_emptiness
from repro.access.methods import AccessSchema
from repro.automata import emptiness
from repro.automata.aautomaton import AAutomaton, ATransition, Guard
from repro.automata.emptiness import _WitnessSearch, automaton_emptiness
from repro.automata.library import containment_automaton, ltr_automaton
from repro.core.budget import Budget
from repro.core.formula_parser import parse_sentence
from repro.core.solver import AccLTLSolver
from repro.relational.schema import Relation, Schema
from repro.store.snapshot import SnapshotInstance
from repro.workloads.generators import WorkloadGenerator
from test_work_counts import REPO_ROOT, UNIONS


def _fields(result):
    """Every ``EmptinessResult`` field the search decides (``stats`` aside)."""
    return (
        result.empty,
        result.witness,
        result.exhausted,
        result.paths_explored,
        result.chains_checked,
        result.unknown,
    )


def _generated(seed, kind):
    """A relevance or containment automaton of a generated schema."""
    generator = WorkloadGenerator(seed=seed)
    access_schema = generator.access_schema(
        num_relations=2, methods_per_relation=2, max_inputs=1
    )
    vocabulary = AccLTLSolver(access_schema).vocabulary
    q1 = generator.conjunctive_query(access_schema.schema, num_atoms=2, num_variables=3)
    if kind == "ltr":
        method = access_schema.method(sorted(access_schema.methods)[0])
        access = access_schema.access(method.name, ("v0",) * method.num_inputs)
        return ltr_automaton(vocabulary, access, q1), vocabulary
    q2 = generator.conjunctive_query(access_schema.schema, num_atoms=2, num_variables=3)
    return containment_automaton(vocabulary, q1, q2, grounded=False), vocabulary


@pytest.fixture(scope="module")
def unions():
    """The ``chains_pooled`` union automata of ``test_work_counts.UNIONS``."""
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    try:
        from chains_pooled import (
            MAX_PATHS,
            ChainsPooled,
            Request,
            directory_probe_schema,
            ltr_candidates,
        )
    finally:
        sys.path.remove(str(REPO_ROOT / "perfbench"))
    pooled = ChainsPooled(seed=1, workdir="")
    pooled.schema = directory_probe_schema()
    pooled.vocabulary = AccLTLSolver(pooled.schema).vocabulary
    capped, witnessed = ltr_candidates()
    return [
        (
            pooled.automaton(
                Request("fanout", tuple(capped[c0:c1] + witnessed[w0:w1]), w1 > w0)
            ),
            pooled.vocabulary,
            dict(max_paths=MAX_PATHS, use_datalog_precheck=False),
        )
        for (c0, c1), (w0, w1) in UNIONS
    ]


# ----------------------------------------------------------------------
# Differential oracle
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(["ltr", "containment"]),
    memoize=st.booleans(),
    grounded_only=st.booleans(),
)
def test_generated_results_match_reference(seed, kind, memoize, grounded_only):
    automaton, vocabulary = _generated(seed, kind)
    kwargs = dict(
        max_paths=250,
        use_datalog_precheck=False,
        memoize=memoize,
        grounded_only=grounded_only,
    )
    assert _fields(automaton_emptiness(automaton, vocabulary, **kwargs)) == _fields(
        reference_emptiness(automaton, vocabulary, **kwargs)
    )


@pytest.mark.parametrize("grounded_only", [False, True])
@pytest.mark.parametrize("memoize", [True, False])
@pytest.mark.parametrize("index", range(len(UNIONS)))
def test_union_results_match_reference(unions, index, memoize, grounded_only):
    automaton, vocabulary, kwargs = unions[index]
    kwargs = dict(kwargs, memoize=memoize, grounded_only=grounded_only)
    result = automaton_emptiness(automaton, vocabulary, **kwargs)
    assert _fields(result) == _fields(reference_emptiness(automaton, vocabulary, **kwargs))
    assert result.paths_explored > 0 or grounded_only


# ----------------------------------------------------------------------
# Checkpoints on the last level
# ----------------------------------------------------------------------
def _last_level_stop(automaton, vocabulary, kwargs):
    """The first node cap that stops on a last-level candidate below the
    root, with the interrupted result."""
    for cap in range(1, 2000):
        result = automaton_emptiness(
            automaton, vocabulary, budget=Budget(node_cap=cap), **kwargs
        )
        assert result.unknown, "the search finished before such a stop"
        checkpoint = result.frontier.checkpoint
        if (
            checkpoint is not None
            and checkpoint.depth_limit >= 2
            and len(checkpoint.path) == checkpoint.depth_limit
        ):
            return cap, result
    raise AssertionError("no cap stops on a last-level candidate")


@pytest.mark.parametrize("memoize", [True, False])
@pytest.mark.parametrize("source", ["union", "looping"])
def test_last_level_stop_resumes_to_uninterrupted_result(unions, source, memoize):
    if source == "union":
        automaton, vocabulary, kwargs = unions[0]
    else:
        automaton, vocabulary = _looping_automaton()
        kwargs = dict(max_length=3, use_datalog_precheck=False)
    kwargs = dict(kwargs, memoize=memoize)
    cap, interrupted = _last_level_stop(automaton, vocabulary, kwargs)
    reference = reference_emptiness(
        automaton, vocabulary, budget=Budget(node_cap=cap), **kwargs
    )
    assert _fields(interrupted) == _fields(reference)
    # Where the two stopped; the completed chains' ``stats`` may differ.
    assert interrupted.frontier.chain_index == reference.frontier.chain_index
    assert interrupted.frontier.checkpoint == reference.frontier.checkpoint

    uninterrupted = automaton_emptiness(automaton, vocabulary, **kwargs)
    assert uninterrupted == reference_emptiness(automaton, vocabulary, **kwargs)
    for resume in (automaton_emptiness, reference_emptiness):
        resumed = resume(
            automaton, vocabulary, resume_from=interrupted.frontier, **kwargs
        )
        assert _fields(resumed) == _fields(uninterrupted)


# ----------------------------------------------------------------------
# The mechanism
# ----------------------------------------------------------------------
def _looping_automaton():
    """A looping non-accepting state ``q``, a second one ``p``, and guards
    into the accepting ``f`` that no candidate within three steps meets
    (``U`` has no access method), so every round is searched through."""
    access_schema = AccessSchema(Schema([Relation("R", 2), Relation("U", 1)]))
    access_schema.add("mR", "R", ())
    access_schema.add("mR1", "R", (0,))
    vocabulary = AccLTLSolver(access_schema).vocabulary

    def sentence(text):
        return parse_sentence(text, vocabulary)

    automaton = AAutomaton(
        ["q", "p", "f"],
        "q",
        ["f"],
        [
            ATransition("q", Guard((sentence("R_post(x,y)"),)), "q"),
            ATransition("q", Guard((sentence("R_pre(x,x)"),)), "p"),
            ATransition(
                "p", Guard((sentence("R_post(x,y)"),), (sentence("R_pre(y,x)"),)), "q"
            ),
            ATransition("q", Guard((sentence("U_pre(x)"),)), "f"),
            ATransition(
                "p", Guard((sentence("R_pre(x,x)"), sentence("U_post(y)"))), "f"
            ),
        ],
    )
    return automaton, vocabulary


def _remaining():
    """``remaining`` of the innermost running ``dfs`` frame, if any."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_name != "dfs":
        frame = frame.f_back
    return None if frame is None else frame.f_locals["remaining"]


@pytest.mark.parametrize("memoize", [True, False])
def test_last_level_writes_nothing_and_skips_non_accepting_guards(
    monkeypatch, memoize
):
    automaton, vocabulary = _looping_automaton()
    search = _WitnessSearch(
        automaton,
        vocabulary,
        vocabulary.access_schema.empty_instance(),
        max_length=3,
        max_response_size=2,
        max_paths=10**9,
        memoize=memoize,
    )
    # The plans of the sentences that guard only transitions into
    # non-accepting states.
    into = {True: set(), False: set()}
    plans_of = {}
    for entries in search.compiled_transitions.values():
        for target, *parts in entries:
            for record in (r for part in parts for r in part):
                into[target in automaton.accepting].add(record[0])
                plans_of[record[0]] = record[2]
    non_accepting_only = {id(plans_of[s]) for s in into[False] - into[True]}
    assert non_accepting_only

    writes = []
    add_unchecked = SnapshotInstance.add_unchecked

    def counted_add(self, relation, tup):
        writes.append(_remaining())
        return add_unchecked(self, relation, tup)

    checks = []
    plans_hold = emptiness.plans_hold

    def counted_plans_hold(plans, instance):
        checks.append((_remaining(), id(plans)))
        return plans_hold(plans, instance)

    monkeypatch.setattr(SnapshotInstance, "add_unchecked", counted_add)
    monkeypatch.setattr(emptiness, "plans_hold", counted_plans_hold)
    witness, explored, exhausted, _, _ = search.run()
    monkeypatch.undo()

    assert witness is None and exhausted and explored > 0
    assert writes and all(remaining >= 2 for remaining in writes)
    last = [plans for remaining, plans in checks if remaining == 1]
    assert last and not non_accepting_only.intersection(last)
    assert any(
        plans in non_accepting_only for remaining, plans in checks if remaining >= 2
    )
