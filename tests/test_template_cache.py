"""The compiled-template cache of ``compile_accltl_plus`` and linear ``trim``.

``compile_accltl_plus`` caches each formula's propositional template —
the trimmed tableau states, the accepting states, each state's letter as
proposition indices and the ``(source, target)`` transitions — keyed by
the desugared abstract LTL formula and the per-proposition n-ary binding
flags, and caches the template's ``minimise()`` quotient beside it.  The
oracle is ``tests/data/compiled_automata.json``, recorded before the
cache existed: every formula of the corpus must compile, cold, warm and
after eviction, to the recorded states, accepting states, transition
order and guards, and its ``minimise()`` to the recorded quotient.

Re-record with ``PYTHONPATH=src python tests/test_template_cache.py``
(only for a change that is meant to alter compiled automata).
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from typing import Dict, List, Set, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro.automata.compile as compile_module
from repro.automata.aautomaton import AAutomaton, ATransition, Guard
from repro.automata.compile import compile_accltl_plus
from repro.automata.operations import relabel, union_automaton
from repro.core import properties
from repro.core.formulas import AccAtom, AccFormula, atom, eventually, land, lnext, lnot
from repro.core.solver import AccLTLSolver
from repro.core.sat_zeroary import FragmentError, translate_to_ltl
from repro.ltl.sat import _Tableau, desugar
from repro.relational.dependencies import DisjointnessConstraint, FunctionalDependency
from repro.workloads.directory import (
    directory_access_schema,
    join_query,
    resident_names_query,
)
from repro.workloads.generators import WorkloadGenerator
from repro.workloads.scenarios import _synthetic_scenario, standard_scenarios

FIXTURE = Path(__file__).with_name("data") / "compiled_automata.json"

#: Generator seeds of the ``WorkloadGenerator`` part of the corpus.
GENERATOR_SEEDS = range(17)

#: The synthetic scenarios of the ``decide_cold`` streams (every seed's
#: draw is a subset of this pool).
SYNTHETIC_POOL = range(1, 37)


# ----------------------------------------------------------------------
# The corpus
# ----------------------------------------------------------------------
def _table1_formulas() -> Dict[str, AccFormula]:
    schema = directory_access_schema()
    v = AccLTLSolver(schema).vocabulary
    probe = schema.access("AcM1", ("Smith",))
    dataflow = properties.dataflow_formula(v, schema.method("AcM1"), 0, "Address", 2)
    flow = next(s for s in dataflow.atoms() if s.label.startswith("flow"))
    return {
        "flow": eventually(atom(flow.query, flow.label)),
        "xonly-relevance": land(
            lnot(properties.relation_nonempty_pre(v, "Mobile")),
            properties.zeroary_binding_atom("AcM1"),
            properties.relation_nonempty_post(v, "Mobile"),
            lnext(properties.relation_nonempty_post(v, "Address")),
        ),
        "access-order": properties.access_order_formula(v, "AcM2", "AcM1"),
        "zeroary-ltr": properties.ltr_formula_zeroary(v, "AcM1", join_query()),
        "disjointness": properties.disjointness_formula(
            v, DisjointnessConstraint("Mobile", 0, "Address", 0)
        ),
        "fd-zeroary-ltr": land(
            properties.fd_formula(v, FunctionalDependency("Mobile", (0,), 3)),
            properties.ltr_formula_zeroary(v, "AcM1", join_query()),
        ),
        "ltr-dataflow": land(properties.ltr_formula(v, probe, join_query()), dataflow),
        "a-automaton": properties.ltr_formula(v, probe, join_query()),
        "containment": properties.containment_counterexample_formula(
            v, join_query(), resident_names_query()
        ),
        "containment-grounded": land(
            properties.containment_counterexample_formula(
                v, join_query(), resident_names_query()
            ),
            properties.groundedness_formula(v),
        ),
    }


def _scenario_formulas() -> Dict[str, AccFormula]:
    """The relevance and containment formulas of the ``decide_cold`` stream."""
    scenarios = list(standard_scenarios()[:2])
    scenarios.extend(
        _synthetic_scenario(seed=seed, num_relations=2 + seed % 2, name=f"synthetic-{seed}")
        for seed in SYNTHETIC_POOL
    )
    formulas: Dict[str, AccFormula] = {}
    for scenario in scenarios:
        v = AccLTLSolver(scenario.access_schema).vocabulary
        probe, q1, q2 = scenario.probe_access, scenario.query_one, scenario.query_two
        formulas[f"ltr:{scenario.name}"] = properties.ltr_formula(v, probe, q1)
        formulas[f"ltr:{scenario.name}-q2"] = properties.ltr_formula(v, probe, q2)
        formulas[f"containment:{scenario.name}"] = (
            properties.containment_counterexample_formula(v, q1, q2)
        )
    return formulas


def _generator_formulas() -> Dict[str, AccFormula]:
    formulas: Dict[str, AccFormula] = {}
    for seed in GENERATOR_SEEDS:
        generator = WorkloadGenerator(seed=seed)
        schema = generator.access_schema(num_relations=2, max_arity=3, max_inputs=2)
        v = AccLTLSolver(schema).vocabulary
        q1 = generator.conjunctive_query(schema.schema, num_atoms=2, num_variables=3)
        q2 = generator.conjunctive_query(schema.schema, num_atoms=1, num_variables=2)
        methods = sorted(schema, key=lambda m: (-m.num_inputs, m.name))
        probe = schema.access(methods[0].name, ("v0",) * methods[0].num_inputs)
        formulas[f"generator-{seed}:ltr"] = properties.ltr_formula(v, probe, q1)
        formulas[f"generator-{seed}:containment"] = (
            properties.containment_counterexample_formula(v, q1, q2)
        )
        if methods[0].num_inputs:
            target = list(schema.schema)[-1].name
            formulas[f"generator-{seed}:dataflow"] = properties.dataflow_formula(
                v, methods[0], 0, target, 0
            )
        if seed % 4 == 0:
            formulas[f"generator-{seed}:ltr-disjoint"] = land(
                properties.ltr_formula(v, probe, q1),
                properties.disjointness_formula(
                    v, generator.disjointness_constraint(schema.schema)
                ),
            )
    return formulas


def corpus() -> Dict[str, AccFormula]:
    """Every formula of the oracle, by name (compilable ones only)."""
    formulas: Dict[str, AccFormula] = {}
    for part, built in (
        ("table1", _table1_formulas()),
        ("decide_cold", _scenario_formulas()),
        ("generated", _generator_formulas()),
    ):
        for name, formula in built.items():
            formulas[f"{part}/{name}"] = formula
    return formulas


def describe(automaton: AAutomaton) -> Dict[str, object]:
    """The fields the oracle compares.

    A guard is ``[positives, negated]``, each a list of indices into
    ``sentences`` (the embedded sentences as strings, in first-use order);
    a transition is ``[source, guard index, target]``, where equal indices
    mean the same ``Guard`` object.
    """
    sentences: List[str] = []
    guards: List[List[List[int]]] = []
    index: Dict[int, int] = {}
    transitions = []

    def numbered(sentence) -> int:
        text = str(sentence)
        if text not in sentences:
            sentences.append(text)
        return sentences.index(text)

    for transition in automaton.transitions:
        guard = transition.guard
        if id(guard) not in index:
            index[id(guard)] = len(guards)
            guards.append(
                [[numbered(s) for s in guard.positives], [numbered(s) for s in guard.negated]]
            )
        transitions.append([transition.source, index[id(guard)], transition.target])
    return {
        "name": automaton.name,
        "states": list(automaton.states),
        "initial": automaton.initial,
        "accepting": sorted(automaton.accepting),
        "sentences": sentences,
        "guards": guards,
        "transitions": transitions,
    }


#: The fields of :func:`describe` that many automata share, stored once in
#: the fixture's ``shapes`` table.
_SHAPE = ("states", "initial", "accepting", "guards", "transitions")


def record() -> Dict[str, object]:
    shapes: List[Dict[str, object]] = []
    entries = {}
    for name, formula in corpus().items():
        compiled = compile_accltl_plus(formula, name=name)
        entry = {}
        for part, automaton in (("compiled", compiled), ("minimised", compiled.minimise())):
            fields = describe(automaton)
            shape = {key: fields.pop(key) for key in _SHAPE}
            if shape not in shapes:
                shapes.append(shape)
            entry[part] = {**fields, "shape": shapes.index(shape)}
        entries[name] = entry
    return {"shapes": shapes, "automata": entries}


def load_fixture() -> Dict[str, Dict[str, Dict[str, object]]]:
    """The recorded :func:`describe` fields, by formula name and part."""
    data = json.loads(FIXTURE.read_text())
    shapes = data["shapes"]
    return {
        name: {
            part: {
                **{key: value for key, value in fields.items() if key != "shape"},
                **shapes[fields["shape"]],
            }
            for part, fields in entry.items()
        }
        for name, entry in data["automata"].items()
    }


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def recorded():
    return load_fixture()


@pytest.fixture(scope="module")
def formulas():
    return corpus()


def _check(name, formula, expected) -> AAutomaton:
    compiled = compile_accltl_plus(formula, name=name)
    assert describe(compiled) == expected["compiled"], name
    quotient = compiled.minimise()
    assert describe(quotient) == expected["minimised"], name
    # Transitions into one state share one guard object, and the quotient
    # keeps guard objects of the compiled automaton.
    owners: Dict[str, Guard] = {}
    for transition in compiled.transitions:
        assert owners.setdefault(transition.target, transition.guard) is transition.guard
    shared = {id(t.guard) for t in compiled.transitions}
    assert all(id(t.guard) in shared for t in quotient.transitions), name
    return compiled


def test_corpus_matches_the_recorded_automata(recorded, formulas, monkeypatch):
    assert sorted(formulas) == sorted(recorded)
    assert len(formulas) >= 150
    for name, formula in formulas.items():
        # Cold: this template was never compiled.
        compile_module.clear_template_cache()
        _check(name, formula, recorded[name])
        # Warm: template and quotient come from the cache.
        _check(name, formula, recorded[name])
    # Evicted: every other template pushes this one out of a small cache.
    monkeypatch.setattr(compile_module, "_TEMPLATE_CACHE_MAX", 2)
    compile_module.clear_template_cache()
    for name, formula in formulas.items():
        compile_accltl_plus(formula, name=name).minimise()
    for name, formula in formulas.items():
        _check(name, formula, recorded[name])
        assert len(compile_module._TEMPLATE_CACHE) <= 2
    compile_module.clear_template_cache()


def test_corpus_has_few_templates(formulas):
    """The decide_cold formulas share a handful of templates."""
    compile_module.clear_template_cache()
    for name, formula in formulas.items():
        if name.startswith("decide_cold/"):
            compile_accltl_plus(formula)
    assert len(compile_module._TEMPLATE_CACHE) <= 3
    compile_module.clear_template_cache()


def test_template_counters():
    from repro.obs import metrics

    formula = _table1_formulas()["a-automaton"]
    compile_module.clear_template_cache()
    before = metrics.REGISTRY.counters_snapshot()
    compile_accltl_plus(formula)
    compile_accltl_plus(formula)
    compile_accltl_plus(formula)
    delta = metrics.REGISTRY.counters_delta(before)
    assert delta.get("automata.template_misses") == 1
    assert delta.get("automata.template_hits") == 2
    compile_module.clear_template_cache()


# ----------------------------------------------------------------------
# The key
# ----------------------------------------------------------------------
def _same_skeleton_pair() -> Tuple[AccFormula, AccFormula]:
    """Two formulas with the skeleton ``F(q0 ∧ ¬q1)``: in the first ``q0``
    mentions an n-ary binding, in the second neither proposition does."""
    pre, binding, post = _table1_formulas()["a-automaton"].atoms()
    return (
        eventually(land(AccAtom(binding), lnot(AccAtom(pre)))),
        eventually(land(AccAtom(post), lnot(AccAtom(pre)))),
    )


def _skeleton(formula: AccFormula):
    naming = {s: f"q{i}" for i, s in enumerate(formula.atoms())}
    return desugar(translate_to_ltl(formula, naming))


def test_key_separates_binding_flags():
    binding, plain = _same_skeleton_pair()
    assert _skeleton(binding) == _skeleton(plain)
    flags = [
        tuple(s.mentions_nary_binding() for s in formula.atoms())
        for formula in (binding, plain)
    ]
    assert flags == [(True, False), (False, False)]
    cold = {}
    for formula in (binding, plain):
        compile_module.clear_template_cache()
        compiled = compile_accltl_plus(formula, name="f")
        cold[id(formula)] = (describe(compiled), describe(compiled.minimise()))
    # The binding sentence is never negated, the plain one is.
    assert cold[id(binding)][0]["guards"] != cold[id(plain)][0]["guards"]
    for order in ((binding, plain), (plain, binding)):
        compile_module.clear_template_cache()
        for _ in range(2):
            for formula in order:
                compiled = compile_accltl_plus(formula, name="f")
                assert (describe(compiled), describe(compiled.minimise())) == cold[id(formula)]
        assert len(compile_module._TEMPLATE_CACHE) == 2
    compile_module.clear_template_cache()


def test_template_cache_is_bounded(formulas, monkeypatch):
    monkeypatch.setattr(compile_module, "_TEMPLATE_CACHE_MAX", 3)
    compile_module.clear_template_cache()
    sizes = []
    for name, formula in formulas.items():
        if name.startswith("table1/"):
            compile_accltl_plus(formula)
            sizes.append(len(compile_module._TEMPLATE_CACHE))
    assert max(sizes) == 3
    compile_module.clear_template_cache()


def test_fragment_check_runs_on_warm_compiles():
    binding, _ = _same_skeleton_pair()
    negative = lnot(binding)
    compile_module.clear_template_cache()
    compile_accltl_plus(negative, enforce_fragment=False)
    with pytest.raises(FragmentError):
        compile_accltl_plus(negative)


# ----------------------------------------------------------------------
# The private quotient hook
# ----------------------------------------------------------------------
def _rebuilt(automaton: AAutomaton) -> AAutomaton:
    return AAutomaton(
        states=automaton.states,
        initial=automaton.initial,
        accepting=automaton.accepting,
        transitions=automaton.transitions,
        name=automaton.name,
    )


def _fields(automaton: AAutomaton):
    return (
        automaton.states,
        automaton.initial,
        automaton.accepting,
        [(t.source, id(t.guard), t.target) for t in automaton.transitions],
        automaton.name,
    )


@pytest.mark.parametrize("name", ["table1/ltr-dataflow", "table1/a-automaton", "table1/containment"])
def test_rebuilt_automaton_minimises_to_the_cached_quotient(formulas, name):
    compile_module.clear_template_cache()
    compile_accltl_plus(formulas[name]).minimise()  # caches the quotient
    compiled = compile_accltl_plus(formulas[name], name=name)
    cached = compiled.minimise()
    rebuilt = _rebuilt(compiled)
    assert rebuilt._quotient is None
    assert _fields(rebuilt.minimise()) == _fields(cached)


def test_derived_automata_take_the_general_path(formulas):
    compile_module.clear_template_cache()
    compiled = compile_accltl_plus(formulas["table1/a-automaton"], name="a")
    assert compiled._quotient is not None
    derived = [
        compiled.trim(),
        relabel(compiled, "x_"),
        union_automaton(compiled, compiled),
        compiled.minimise(),
        pickle.loads(pickle.dumps(compiled)),
    ]
    assert all(a._quotient is None for a in derived)
    assert _fields(derived[-1].minimise())[:3] == _fields(compiled.minimise())[:3]
    # A compiled automaton whose public fields changed after compilation
    # no longer matches its template and is minimised in general.
    changed = compile_accltl_plus(formulas["table1/a-automaton"], name="a")
    changed.transitions = changed.transitions[:1]
    assert _fields(changed.minimise()) == _fields(_rebuilt(changed).minimise())


# ----------------------------------------------------------------------
# Linear trim against the fixpoint oracle
# ----------------------------------------------------------------------
def fixpoint_reachable(automaton: AAutomaton) -> Set[str]:
    """Forward reachability, one transition scan per visited state."""
    reachable: Set[str] = set()
    frontier = [automaton.initial]
    while frontier:
        state = frontier.pop()
        if state in reachable:
            continue
        reachable.add(state)
        frontier.extend(t.target for t in automaton.transitions if t.source == state)
    return reachable


def fixpoint_trim(automaton: AAutomaton) -> AAutomaton:
    """``AAutomaton.trim`` as it was: backward reachability to a fixpoint."""
    reachable = fixpoint_reachable(automaton)
    co_reachable: Set[str] = set(automaton.accepting)
    changed = True
    while changed:
        changed = False
        for transition in automaton.transitions:
            if transition.target in co_reachable and transition.source not in co_reachable:
                co_reachable.add(transition.source)
                changed = True
    useful = reachable & co_reachable
    if automaton.initial not in useful:
        return AAutomaton(
            states=[automaton.initial],
            initial=automaton.initial,
            accepting=(),
            transitions=[],
            name=automaton.name,
        )
    return AAutomaton(
        states=sorted(useful),
        initial=automaton.initial,
        accepting=[s for s in automaton.accepting if s in useful],
        transitions=[
            t for t in automaton.transitions if t.source in useful and t.target in useful
        ],
        name=automaton.name,
    )


_GUARDS = (Guard(), Guard(negated=()), Guard())


@st.composite
def small_automata(draw):
    count = draw(st.integers(min_value=1, max_value=7))
    states = [f"s{i}" for i in range(count)]
    initial = draw(st.sampled_from(states))
    accepting = draw(st.lists(st.sampled_from(states), max_size=count))
    edges = draw(
        st.lists(
            st.tuples(
                st.sampled_from(states),
                st.sampled_from(range(len(_GUARDS))),
                st.sampled_from(states),
            ),
            max_size=16,
        )
    )
    return AAutomaton(
        states=states,
        initial=initial,
        accepting=accepting,
        transitions=[ATransition(s, _GUARDS[g], t) for s, g, t in edges],
        name="small",
    )


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_automata())
def test_linear_trim_matches_the_fixpoint_oracle(automaton):
    assert automaton.reachable_states() == frozenset(fixpoint_reachable(automaton))
    assert _fields(automaton.trim()) == _fields(fixpoint_trim(automaton))


def test_successor_lists_match_pairwise_steps(formulas):
    """The grouped tableau step relation the cold build uses is the
    pairwise ``transition_allowed`` relation."""
    for name in ("table1/ltr-dataflow", "table1/xonly-relevance", "table1/access-order",
                 "table1/fd-zeroary-ltr", "table1/containment-grounded"):
        formula = formulas[name]
        naming = {s: f"q{i}" for i, s in enumerate(formula.atoms())}
        tableau = _Tableau(desugar(translate_to_ltl(formula, naming)), letters=None)
        states = [state for state, _ in tableau.states()]
        expected = [
            [j for j, target in enumerate(states) if tableau.transition_allowed(source, target)]
            for source in states
        ]
        assert tableau.successor_lists(states) == expected, name


if __name__ == "__main__":
    data = record()
    lines = ",\n".join(
        json.dumps(shape, separators=(",", ":")) for shape in data["shapes"]
    )
    entries = ",\n".join(
        f"{json.dumps(name)}:{json.dumps(entry, sort_keys=True, separators=(',', ':'))}"
        for name, entry in data["automata"].items()
    )
    FIXTURE.write_text(f'{{"shapes":[\n{lines}\n],\n"automata":{{\n{entries}\n}}}}\n')
    print(f"wrote {FIXTURE}")
