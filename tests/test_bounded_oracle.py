"""The bounded checker against a whole-path reference search.

:func:`reference_search` is the checker's search written the plain way.
It builds the same candidate list with the checker module's own helpers,
visits paths in the same iterative-deepening order, counts every
candidate check the same way, pops every path end off the search (so a
path cap reached exactly at the end of the last round still reads
``exhausted=False``), and evaluates each candidate path whole with
:func:`repro.core.semantics.path_satisfies`.

The checker instead progresses the formula along the path, folds each
node's obligation per group of candidates, refutes binding sentences at
setup, keeps verdicts per configuration and settles runs of candidates
in one step.  None of that may change a
:class:`~repro.core.bounded_check.BoundedCheckResult` field, on seeded
synthetic scenarios, :class:`~repro.workloads.generators.WorkloadGenerator`
schemas and the Table 1 formulas, under grounded runs, exact and
idempotent methods, node-capped budgets, non-empty initial instances and
path caps that land exactly on a node boundary.

Before it searches, the checker folds to ``false`` each conjunction of
literals the transition refuter refutes, and a formula that folds to
``false`` is reported exhausted at 0 paths.  :func:`_agree` therefore
compares the search itself (``bounded_check._search``, run on the
unfolded formula) with the reference field for field, and the public
result too unless the fold settles the input; where it does, the
reference must find no witness.  The reference never consults the
refuter.
"""

from __future__ import annotations

import pytest

from repro.access.methods import AccessSchema
from repro.access.path import AccessPath, PathStep, satisfies_sanity_conditions
from repro.core import properties
from repro.core import bounded_check
from repro.core.bounded_check import (
    BoundedCheckResult,
    Bounds,
    ResponseIndex,
    _candidate_responses,
    bounded_satisfiability,
    candidate_accesses_for_search,
    default_value_pool,
    formula_fact_pool,
)
from repro.core.budget import Budget
from repro.core.formulas import EmbeddedSentence, atom, eventually, land, lnext, lnot
from repro.core.fragments import uses_nary_binding
from repro.core.refuter import TransitionRefuter
from repro.core.semantics import FALSE, Progression, path_satisfies
from repro.core.solver import AccLTLSolver
from repro.core.transition import bind_sentence, binding_refuter, binding_refutes
from repro.io.json_io import access_path_to_dict
from repro.obs import trace
from repro.relational.dependencies import DisjointnessConstraint, FunctionalDependency
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.instance import Instance
from repro.workloads.directory import (
    ADDRESS,
    MOBILE,
    directory_access_schema,
    directory_hidden_instance,
    directory_schema,
    join_query,
    resident_names_query,
)
from repro.workloads.generators import WorkloadGenerator
from repro.workloads.scenarios import _synthetic_scenario

SMALL = Bounds(max_path_length=3, max_paths=300)


class _Done(Exception):
    def __init__(self, result: BoundedCheckResult) -> None:
        self.result = result


def reference_search(
    vocabulary, formula, bounds, initial=None, grounded_only=False, budget=None, tally=None
):
    """The checker's search, evaluating every candidate path whole.

    *tally*, a dict, receives the number of ``nodes`` popped (paths
    visited past the budget and path-cap checks), of ``roots`` among
    them, and of ``children`` pushed (paths shorter than the depth limit
    that a visited node queued).
    """
    schema = vocabulary.access_schema
    initial = schema.empty_instance() if initial is None else initial
    fact_pool = formula_fact_pool(vocabulary, formula)
    value_pool = default_value_pool(vocabulary, formula, fact_pool, initial, bounds.fresh_values)
    nary = uses_nary_binding(formula)
    index = ResponseIndex(fact_pool)
    candidates, empty_methods = [], set()
    for access in candidate_accesses_for_search(schema, fact_pool, value_pool, nary_bindings=nary):
        for response in _candidate_responses(access, index, bounds.max_response_size):
            if not response and not nary and not grounded_only:
                if access.method.name in empty_methods:
                    continue
                empty_methods.add(access.method.name)
            candidates.append(PathStep(access, response))
    candidates.sort(key=lambda step: len(step.response), reverse=True)
    sanity = bool(schema.exact_methods() or schema.idempotent_methods() or grounded_only)
    cap = budget.node_cap if budget is not None else None
    explored = 0

    def done(**fields):
        fields = {"satisfiable": False, "witness": None, "exhausted": False, **fields}
        return _Done(BoundedCheckResult(paths_explored=explored, **fields))

    def visit(path, depth_limit):
        nonlocal explored
        if cap is not None and explored >= cap:
            raise done(interrupted=True)
        if explored >= bounds.max_paths:
            raise done()
        if len(path) >= depth_limit:
            return
        if tally is not None:
            tally["nodes"] += 1
            tally["roots"] += not path
        known = set(initial.active_domain())
        for step in path:
            known.update(step.access.binding, *step.response)
        children = []
        for step in candidates:
            if grounded_only and not all(value in known for value in step.access.binding):
                continue
            explored += 1
            if cap is not None and explored >= cap:
                raise done(interrupted=True)
            if explored > bounds.max_paths:
                raise done()
            if path and not step.response and path[-1] == step:
                continue
            extended = AccessPath(path + (step,))
            if sanity and not satisfies_sanity_conditions(
                extended, schema, initial=initial, require_grounded=grounded_only
            ):
                continue
            if path_satisfies(vocabulary, extended, formula, initial):
                raise done(satisfiable=True, witness=extended)
            children.append(path + (step,))
        if tally is not None and len(path) + 1 < depth_limit:
            tally["children"] += len(children)  # path ends get no stack entry
        for child in children:
            visit(child, depth_limit)

    try:
        for depth_limit in range(1, bounds.max_path_length + 1):
            visit((), depth_limit)
    except _Done as stop:
        return stop.result
    return BoundedCheckResult(False, None, explored, exhausted=True)


def _fields(result):
    return (
        result.satisfiable,
        access_path_to_dict(result.witness) if result.witness is not None else None,
        result.paths_explored,
        result.exhausted,
        result.interrupted,
    )


def _unfolded_search(vocabulary, formula, bounds, initial=None, tally=None, **kwargs):
    """The checker's search on the unfolded formula, past the fold."""
    initial = vocabulary.access_schema.empty_instance() if initial is None else initial
    return bounded_check._search(
        [0, 0, 0, 0] if tally is None else tally,
        Progression(formula),
        vocabulary,
        formula,
        bounds,
        initial,
        **kwargs,
    )


def _fold_settles(vocabulary, formula, initial=None):
    """Whether the checker's fold compiles *formula* to ``false``."""
    initial = vocabulary.access_schema.empty_instance() if initial is None else initial
    refutes = bounded_check._literal_refuter(vocabulary, initial)
    return Progression(formula, refutes).root == FALSE


def _reference_without_refuter(vocabulary, formula, bounds, **kwargs):
    """:func:`reference_search`, failing if it consults the refuter."""
    original = TransitionRefuter.refutes

    def forbidden(self, positives, negated):
        raise AssertionError("the reference search consulted the refuter")

    TransitionRefuter.refutes = forbidden
    try:
        return reference_search(vocabulary, formula, bounds, **kwargs)
    finally:
        TransitionRefuter.refutes = original


def _agree(vocabulary, formula, bounds=SMALL, **kwargs):
    """Check the search and the public result against the reference.

    Returns the search's result, which the reference pins field for
    field whether or not the fold settles the input.
    """
    expected = _reference_without_refuter(vocabulary, formula, bounds, **kwargs)
    searched = _unfolded_search(vocabulary, formula, bounds, **kwargs)
    assert _fields(searched) == _fields(expected)
    actual = bounded_satisfiability(vocabulary, formula, bounds, **kwargs)
    if _fold_settles(vocabulary, formula, kwargs.get("initial")):
        assert _fields(actual) == (False, None, 0, True, False)
        assert not expected.satisfiable
    else:
        assert _fields(actual) == _fields(expected)
    return searched


def _scenario_formulas(seed):
    scenario = _synthetic_scenario(seed=seed, num_relations=2 + seed % 2, name=f"s{seed}")
    vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
    probe, q1, q2 = scenario.probe_access, scenario.query_one, scenario.query_two
    return scenario, vocabulary, {
        "ltr": properties.ltr_formula(vocabulary, probe, q1),
        "ltr-q2": properties.ltr_formula(vocabulary, probe, q2),
        "containment": properties.containment_counterexample_formula(vocabulary, q1, q2),
    }


def _table1_formulas(schema):
    v = AccLTLSolver(schema).vocabulary
    probe = schema.access("AcM1", ("Smith",))
    dataflow = properties.dataflow_formula(v, schema.method("AcM1"), 0, ADDRESS, 2)
    # A binding sentence with a variable binding: its verdict differs
    # between candidates of one method at one configuration.
    flow = next(s for s in dataflow.atoms() if s.label.startswith("flow"))
    return v, {
        "flow": eventually(atom(flow.query, flow.label)),
        "xonly-relevance": land(
            lnot(properties.relation_nonempty_pre(v, MOBILE)),
            properties.zeroary_binding_atom("AcM1"),
            properties.relation_nonempty_post(v, MOBILE),
            lnext(properties.relation_nonempty_post(v, ADDRESS)),
        ),
        "access-order": properties.access_order_formula(v, "AcM2", "AcM1"),
        "zeroary-ltr": properties.ltr_formula_zeroary(v, "AcM1", join_query()),
        "disjointness": properties.disjointness_formula(
            v, DisjointnessConstraint(MOBILE, 0, ADDRESS, 0)
        ),
        "fd-zeroary-ltr": land(
            properties.fd_formula(v, FunctionalDependency(MOBILE, (0,), 3)),
            properties.ltr_formula_zeroary(v, "AcM1", join_query()),
        ),
        "ltr-dataflow": land(
            properties.ltr_formula(v, probe, join_query()),
            dataflow,
        ),
        "ltr": properties.ltr_formula(v, probe, join_query()),
        "containment": properties.containment_counterexample_formula(
            v, join_query(), resident_names_query()
        ),
    }


def _sanity_schema():
    schema = AccessSchema(directory_schema())
    schema.add("AcM1", MOBILE, (0,), exact=True)
    schema.add("AcM2", ADDRESS, (0, 1), idempotent=True)
    return schema


def test_binding_refutes_only_bindings_no_disjunct_admits():
    acm1 = directory_access_schema().method("AcM1")
    smith = properties.nary_binding_atom(acm1, ("Smith",)).sentence
    assert not binding_refutes(smith, "AcM1", ("Smith",))
    assert binding_refutes(smith, "AcM1", ("Jones",))
    assert binding_refutes(smith, "AcM2", ("Smith", "OX1"))
    # ``1 == True`` for the plan executor too, so the binding stays open.
    one = properties.nary_binding_atom(acm1, (1,)).sentence
    assert not binding_refutes(one, "AcM1", (True,))
    # A disjunct for another method keeps the sentence open for that method.
    uses_acm2 = properties.zeroary_binding_atom("AcM2").sentence
    either = EmbeddedSentence(
        UnionOfConjunctiveQueries(smith.query.disjuncts + uses_acm2.query.disjuncts)
    )
    assert binding_refutes(either, "AcM1", ("Jones",))
    assert not binding_refutes(either, "AcM2", ("Jones", "OX1"))


def _refuter_agrees(vocabulary, sentences, accesses):
    """``binding_refuter`` against ``binding_refutes`` on every pair."""
    records = [bind_sentence(sentence, number) for number, sentence in enumerate(sentences)]
    refuted_for = binding_refuter(sentences, records)
    pairs = 0
    for access in accesses:
        name, binding = access.method.name, access.binding
        expected = frozenset(
            number
            for number, sentence in enumerate(sentences)
            if binding_refutes(sentence, name, binding)
        )
        assert refuted_for(name, binding) == expected, (name, binding)
        pairs += len(sentences)
    return pairs


def _all_accesses(vocabulary, formula):
    """Every candidate access of *formula*'s pools, n-ary bindings included."""
    schema = vocabulary.access_schema
    fact_pool = formula_fact_pool(vocabulary, formula)
    value_pool = default_value_pool(vocabulary, formula, fact_pool, schema.empty_instance(), 1)
    return candidate_accesses_for_search(schema, fact_pool, value_pool, nary_bindings=True)


def test_method_first_refutation_agrees_with_binding_refutes():
    access_schema = directory_access_schema()
    vocabulary, formulas = _table1_formulas(access_schema)
    acm1 = access_schema.method("AcM1")
    smith = properties.nary_binding_atom(acm1, ("Smith",)).sentence
    one = properties.nary_binding_atom(acm1, (1,)).sentence
    uses_acm2 = properties.zeroary_binding_atom("AcM2").sentence
    # One disjunct naming two methods, and two disjuncts naming one each.
    both = EmbeddedSentence(
        UnionOfConjunctiveQueries(
            (ConjunctiveQuery(smith.query.disjuncts[0].atoms + uses_acm2.query.disjuncts[0].atoms),)
        )
    )
    either = EmbeddedSentence(
        UnionOfConjunctiveQueries(smith.query.disjuncts + uses_acm2.query.disjuncts)
    )
    extra = [smith, one, uses_acm2, both, either]
    accesses = [
        access_schema.access("AcM1", (True,)),
        access_schema.access("AcM1", (1,)),
        access_schema.access("AcM1", ("Jones",)),
        access_schema.access("AcM2", ("Smith", "OX1")),
    ]
    pairs = _refuter_agrees(vocabulary, extra, accesses)
    records = [bind_sentence(sentence, number) for number, sentence in enumerate(extra)]
    refuted_for = binding_refuter(extra, records)
    # ``1 == True`` keeps ``one`` open; a disjunct naming two methods
    # never holds, and ``either`` holds only through its AcM2 disjunct.
    assert refuted_for("AcM1", (True,)) == {0, 2, 3, 4}
    assert refuted_for("AcM2", ("Smith", "OX1")) == {0, 1, 3}
    for formula in formulas.values():
        sentences = Progression(formula).atoms
        pairs += _refuter_agrees(vocabulary, sentences + extra, _all_accesses(vocabulary, formula))
    for seed in (0, 4, 7, 12):
        generator = WorkloadGenerator(seed=seed)
        schema = generator.access_schema(num_relations=2, max_arity=3, max_inputs=2)
        generated = AccLTLSolver(schema).vocabulary
        q1 = generator.conjunctive_query(schema.schema, num_atoms=2, num_variables=3)
        methods = sorted(schema, key=lambda m: (-m.num_inputs, m.name))
        probe = schema.access(methods[0].name, ("v0",) * methods[0].num_inputs)
        formula = land(
            properties.ltr_formula(generated, probe, q1),
            properties.zeroary_binding_atom(methods[-1].name),
        )
        sentences = Progression(formula).atoms
        pairs += _refuter_agrees(generated, sentences, _all_accesses(generated, formula))
    assert pairs > 1000


def test_children_are_built_when_popped(monkeypatch):
    """A capped search progresses the formula once per popped non-root node.

    The fold settles this input, so the search runs past it.
    """
    vocabulary, formulas = _table1_formulas(directory_access_schema())
    formula, bounds = formulas["containment"], Bounds(max_path_length=3, max_paths=100)
    expected = {"nodes": 0, "roots": 0, "children": 0}
    reference = reference_search(vocabulary, formula, bounds, tally=expected)
    calls = []
    original = Progression.progress

    def counted(self, node, atom_holds):
        calls.append(node)
        return original(self, node, atom_holds)

    monkeypatch.setattr(Progression, "progress", counted)
    tally = [0, 0, 0, 0]
    result = _unfolded_search(vocabulary, formula, bounds, tally=tally)
    assert _fields(result) == _fields(reference)
    assert not result.satisfiable and not result.exhausted and not result.interrupted
    assert tally[2] == expected["nodes"]
    assert len(calls) == expected["nodes"] - expected["roots"]
    assert len(calls) < expected["children"]


def test_run_span_counts_nodes_and_refuted_conjunctions():
    """``bounded_check.run`` reports popped nodes, and the conjunctions the
    fold refuted; a settled formula pops none."""
    vocabulary, formulas = _table1_formulas(directory_access_schema())
    bounds = Bounds(max_path_length=3, max_paths=100)
    expected = {"nodes": 0, "roots": 0, "children": 0}
    reference_search(vocabulary, formulas["ltr"], bounds, tally=expected)
    trace.set_enabled(True)
    try:
        searched = bounded_satisfiability(vocabulary, formulas["ltr"], bounds)
        settled = bounded_satisfiability(vocabulary, formulas["containment"], bounds)
        spans = [s.attrs for s in trace.take_spans() if s.name == "bounded_check.run"]
    finally:
        trace.set_enabled(False)
        trace.reset()
    assert searched.paths_explored and not _fold_settles(vocabulary, formulas["ltr"])
    assert _fields(settled) == (False, None, 0, True, False)
    assert [(span["nodes"], span["refuted"] > 0) for span in spans] == [
        (expected["nodes"], False),
        (0, True),
    ]


@pytest.mark.parametrize("seed", [2, 3, 4, 8, 11, 17, 32])
@pytest.mark.parametrize("grounded_only", [False, True])
def test_synthetic_scenarios(seed, grounded_only):
    _scenario, vocabulary, formulas = _scenario_formulas(seed)
    for formula in formulas.values():
        _agree(vocabulary, formula, grounded_only=grounded_only)


@pytest.mark.parametrize("seed", [3, 8, 13])
def test_synthetic_scenarios_from_the_hidden_instance(seed):
    scenario, vocabulary, formulas = _scenario_formulas(seed)
    initial = Instance(scenario.access_schema.schema)
    for relation in scenario.access_schema.schema:
        for tup in sorted(scenario.hidden_instance.tuples(relation.name), key=repr)[:1]:
            initial.add(relation.name, tup)
    for formula in formulas.values():
        _agree(vocabulary, formula, initial=initial)
        _agree(vocabulary, formula, initial=initial, grounded_only=True)


@pytest.mark.parametrize("seed", [0, 4, 7, 12])
def test_workload_generator_schemas(seed):
    generator = WorkloadGenerator(seed=seed)
    schema = generator.access_schema(num_relations=2, max_arity=3, max_inputs=2)
    vocabulary = AccLTLSolver(schema).vocabulary
    q1 = generator.conjunctive_query(schema.schema, num_atoms=2, num_variables=3)
    q2 = generator.conjunctive_query(schema.schema, num_atoms=1, num_variables=2)
    methods = sorted(schema, key=lambda m: (-m.num_inputs, m.name))
    probe = schema.access(methods[0].name, ("v0",) * methods[0].num_inputs)
    target = list(schema.schema)[-1].name
    formulas = [
        properties.ltr_formula(vocabulary, probe, q1),
        properties.containment_counterexample_formula(vocabulary, q1, q2),
    ]
    if methods[0].num_inputs:
        formulas.append(properties.dataflow_formula(vocabulary, methods[0], 0, target, 0))
    for formula in formulas:
        _agree(vocabulary, formula, bounds=Bounds(max_path_length=2, max_paths=400))


@pytest.mark.parametrize("schema", ["directory", "sanity"])
def test_table1_formulas(schema):
    access_schema = directory_access_schema() if schema == "directory" else _sanity_schema()
    vocabulary, formulas = _table1_formulas(access_schema)
    for name, formula in formulas.items():
        bounds = Bounds(max_path_length=3, max_paths=700)
        result = _agree(vocabulary, formula, bounds)
        # The probe's witness needs the one candidate whose binding matches.
        assert result.satisfiable or name == "containment"
        _agree(vocabulary, formula, bounds, grounded_only=True)


def test_table1_formulas_from_the_hidden_directory():
    vocabulary, formulas = _table1_formulas(directory_access_schema())
    initial = directory_hidden_instance("small")
    for formula in formulas.values():
        _agree(vocabulary, formula, initial=initial)
        _agree(vocabulary, formula, initial=initial, grounded_only=True)


@pytest.mark.parametrize("cap", [1, 7, 40, 129, 250])
def test_node_capped_budgets(cap):
    vocabulary, formulas = _table1_formulas(directory_access_schema())
    _scenario, synthetic_vocabulary, synthetic = _scenario_formulas(2)
    for vocab, formula in (
        (vocabulary, formulas["fd-zeroary-ltr"]),
        (vocabulary, formulas["ltr"]),
        (synthetic_vocabulary, synthetic["containment"]),
    ):
        result = _agree(vocab, formula, budget=Budget(node_cap=cap))
        assert result.interrupted or result.paths_explored < cap


def _exhaustive_inputs():
    vocabulary, formulas = _table1_formulas(directory_access_schema())
    _s, vocabulary3, synthetic3 = _scenario_formulas(3)
    _s, vocabulary6, synthetic6 = _scenario_formulas(6)
    return [
        (vocabulary, formulas["containment"], 3),
        (vocabulary, formulas["ltr-dataflow"], 1),
        (vocabulary3, synthetic3["containment"], 3),
        (vocabulary6, synthetic6["ltr-q2"], 2),
    ]


@pytest.mark.parametrize("number", range(4))
def test_path_caps_on_node_boundaries(number):
    vocabulary, formula, length = _exhaustive_inputs()[number]
    full = _agree(vocabulary, formula, Bounds(length, max_paths=10**6))
    assert full.exhausted and not full.satisfiable
    total = full.paths_explored
    # A cap equal to the whole search checks every path, yet the path ends
    # of the last node are still popped against it: not exhausted.
    at_end = _agree(vocabulary, formula, Bounds(length, max_paths=total))
    assert (at_end.paths_explored, at_end.exhausted) == (total, False)
    assert _agree(vocabulary, formula, Bounds(length, max_paths=total + 1)).exhausted
    # Every node of the first two rounds checks each candidate once, so
    # multiples of the first round's count are node boundaries.
    per_node = reference_search(vocabulary, formula, Bounds(1, max_paths=10**6)).paths_explored
    for cap in (per_node, 2 * per_node, 3 * per_node):
        if cap < total:
            _agree(vocabulary, formula, Bounds(length, max_paths=cap))
            _agree(vocabulary, formula, Bounds(length, max_paths=cap + 1))


def _fold_inputs():
    """``(name, vocabulary, formula, kwargs)`` for the fold's oracle."""
    for schema in ("directory", "sanity"):
        access_schema = directory_access_schema() if schema == "directory" else _sanity_schema()
        vocabulary, formulas = _table1_formulas(access_schema)
        for name, formula in formulas.items():
            for grounded_only in (False, True):
                yield f"{schema}-{name}", vocabulary, formula, {"grounded_only": grounded_only}
    vocabulary, formulas = _table1_formulas(directory_access_schema())
    hidden = directory_hidden_instance("small")
    for name, formula in formulas.items():
        yield f"hidden-{name}", vocabulary, formula, {"initial": hidden}
    for seed in range(12):
        scenario, vocabulary, formulas = _scenario_formulas(seed)
        initial = Instance(scenario.access_schema.schema)
        for relation in scenario.access_schema.schema:
            for tup in sorted(scenario.hidden_instance.tuples(relation.name), key=repr)[:1]:
                initial.add(relation.name, tup)
        for name, formula in formulas.items():
            for grounded_only in (False, True):
                kwargs = {"grounded_only": grounded_only}
                yield f"s{seed}-{name}", vocabulary, formula, kwargs
            yield f"s{seed}-{name}-seeded", vocabulary, formula, {"initial": initial}
    for seed in range(8):
        generator = WorkloadGenerator(seed=seed)
        schema = generator.access_schema(num_relations=2, max_arity=3, max_inputs=2)
        vocabulary = AccLTLSolver(schema).vocabulary
        q1 = generator.conjunctive_query(schema.schema, num_atoms=2, num_variables=3)
        q2 = generator.conjunctive_query(schema.schema, num_atoms=1, num_variables=2)
        methods = sorted(schema, key=lambda m: (-m.num_inputs, m.name))
        probe = schema.access(methods[0].name, ("v0",) * methods[0].num_inputs)
        yield f"g{seed}-ltr", vocabulary, properties.ltr_formula(vocabulary, probe, q1), {}
        yield (
            f"g{seed}-containment",
            vocabulary,
            properties.containment_counterexample_formula(vocabulary, q1, q2),
            {},
        )


def test_fold_claims_no_exhaustion_the_reference_refutes():
    """Wherever the folded checker claims ``exhausted``, the whole-path
    reference search, which never consults the refuter, finds no witness
    within a larger path cap either."""
    folded = exhausted = 0
    for name, vocabulary, formula, kwargs in _fold_inputs():
        result = bounded_satisfiability(vocabulary, formula, SMALL, **kwargs)
        if not result.exhausted:
            continue
        exhausted += 1
        settled = _fold_settles(vocabulary, formula, kwargs.get("initial"))
        folded += settled
        assert result.paths_explored == 0 or not settled, name
        reference = _reference_without_refuter(
            vocabulary, formula, Bounds(max_path_length=3, max_paths=600), **kwargs
        )
        assert not reference.satisfiable, name
    assert folded >= 80 and exhausted > folded, (folded, exhausted)
