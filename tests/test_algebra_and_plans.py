"""Tests for the relational-algebra evaluator and the access-plan language.

Both live in :mod:`oracles` (test-only reference implementations).
"""

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from repro.access.answerability import maximal_answers
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.evaluation import evaluate_cq
from repro.queries.parser import parse_cq
from repro.queries.terms import Constant, Variable
from repro.relational.instance import Instance
from repro.relational.schema import Relation, Schema
from repro.workloads.directory import (
    directory_access_schema,
    directory_hidden_instance,
    join_query,
    resident_names_query,
    smith_phone_query,
)

from oracles.algebra import (
    NamedRelation,
    NaturalJoin,
    Projection,
    Rename,
    Scan,
    Selection,
    Union,
    compile_cq,
    evaluate_cq_via_algebra,
)
from oracles.plans import (
    AccessStep,
    Plan,
    canonical_plan,
    plans_equivalent_on,
    relevance_pruned_plan,
    verify_canonical_plan,
)


class TestNamedRelation:
    def test_projection(self):
        relation = NamedRelation(("a", "b"), {(1, 2), (3, 4)})
        assert relation.project(("b",)).rows == frozenset({(2,), (4,)})

    def test_row_width_validated(self):
        with pytest.raises(ValueError):
            NamedRelation(("a",), {(1, 2)})


class TestAlgebraOperators:
    @pytest.fixture
    def instance(self, simple_schema):
        data = Instance(simple_schema)
        data.add_all("R", [("a", "b"), ("b", "c"), ("c", "d")])
        data.add_all("S", [("b", "c"), ("d", "e")])
        data.add_all("T", [("a",)])
        return data

    def test_scan_and_selection(self, instance):
        plan = Selection(Scan("R", ("x", "y")), "x", value="a")
        assert plan.evaluate(instance).rows == frozenset({("a", "b")})

    def test_column_equality_selection(self, instance):
        instance.add("R", ("e", "e"))
        plan = Selection(Scan("R", ("x", "y")), "x", other_column="y")
        assert plan.evaluate(instance).rows == frozenset({("e", "e")})

    def test_natural_join(self, instance):
        plan = NaturalJoin(Scan("R", ("x", "y")), Scan("S", ("y", "z")))
        result = plan.evaluate(instance)
        assert result.columns == ("x", "y", "z")
        assert result.rows == frozenset({("a", "b", "c"), ("c", "d", "e")})

    def test_projection_and_rename(self, instance):
        plan = Rename(Projection(Scan("R", ("x", "y")), ("y",)), ("value",))
        result = plan.evaluate(instance)
        assert result.columns == ("value",)
        assert ("b",) in result.rows

    def test_union(self, instance):
        plan = Union(
            Projection(Scan("R", ("x", "y")), ("x",)),
            Projection(Scan("S", ("x", "z")), ("x",)),
        )
        assert plan.evaluate(instance).rows == frozenset(
            {("a",), ("b",), ("c",), ("d",)}
        )

    def test_scan_of_missing_relation_is_empty(self, instance):
        assert len(Scan("Missing", ("x",)).evaluate(instance)) == 0

    def test_plan_size(self, instance):
        plan = NaturalJoin(Scan("R", ("x", "y")), Scan("S", ("y", "z")))
        assert plan.size() == 3
        assert "⋈" in str(plan)


class TestCQCompilation:
    def test_join_query_matches_backtracking_evaluator(self, simple_instance):
        query = parse_cq("Q(x, z) :- R(x, y), S(y, z)")
        assert evaluate_cq_via_algebra(query, simple_instance) == evaluate_cq(
            query, simple_instance
        )

    def test_constants_become_selections(self, simple_instance):
        query = parse_cq('Q(y) :- R("a", y)')
        assert evaluate_cq_via_algebra(query, simple_instance) == frozenset({("b",)})

    def test_repeated_variables(self, simple_instance):
        simple_instance.add("R", ("e", "e"))
        query = parse_cq("Q(x) :- R(x, x)")
        assert evaluate_cq_via_algebra(query, simple_instance) == frozenset({("e",)})

    def test_boolean_query(self, simple_instance):
        query = parse_cq("Q :- R(x, y), S(y, z)")
        assert evaluate_cq_via_algebra(query, simple_instance) == frozenset({()})

    def test_inequalities_rejected(self):
        query = parse_cq("Q(x) :- R(x, y), x != y")
        with pytest.raises(ValueError):
            compile_cq(query)

    def test_empty_body_rejected(self):
        with pytest.raises(ValueError):
            compile_cq(ConjunctiveQuery(atoms=(), head=()))

    def test_directory_queries_agree(self):
        hidden = directory_hidden_instance("small")
        for query in (smith_phone_query(), resident_names_query(), join_query()):
            assert evaluate_cq_via_algebra(query, hidden) == evaluate_cq(query, hidden)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_algebra_agrees_with_backtracking_on_random_queries(self, data):
        schema = Schema([Relation("R", 2), Relation("S", 1)])
        instance = Instance(schema)
        values = ["a", "b", "c"]
        for _ in range(data.draw(st.integers(min_value=0, max_value=5))):
            instance.add("R", (data.draw(st.sampled_from(values)),
                               data.draw(st.sampled_from(values))))
        for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
            instance.add("S", (data.draw(st.sampled_from(values)),))
        variables = [Variable("x"), Variable("y"), Variable("z")]
        atoms = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            if data.draw(st.booleans()):
                atoms.append(Atom("R", (data.draw(st.sampled_from(variables)),
                                        data.draw(st.sampled_from(variables)))))
            else:
                atoms.append(Atom("S", (data.draw(st.sampled_from(variables)),)))
        body_vars = sorted({v for a in atoms for v in a.variables()},
                           key=lambda v: v.name)
        head = tuple(body_vars[: data.draw(st.integers(min_value=0, max_value=len(body_vars)))])
        query = ConjunctiveQuery(atoms=tuple(atoms), head=head)
        assert evaluate_cq_via_algebra(query, instance) == evaluate_cq(query, instance)


class TestAccessPlans:
    @pytest.fixture
    def schema(self):
        return directory_access_schema()

    @pytest.fixture
    def hidden(self):
        return directory_hidden_instance("small")

    def test_canonical_plan_computes_accessible_part(self, schema, hidden):
        assert verify_canonical_plan(schema, join_query(), hidden, ["Smith"])

    def test_canonical_plan_answers_are_maximal_answers(self, schema, hidden):
        plan = canonical_plan(schema, join_query())
        trace = plan.execute(hidden, ["Smith"])
        assert trace.answers == maximal_answers(
            schema, join_query(), hidden, ["Smith"]
        )
        assert trace.num_accesses > 0
        assert trace.rounds >= 2

    def test_plan_trace_reconstructs_path(self, schema, hidden):
        plan = canonical_plan(schema, smith_phone_query())
        trace = plan.execute(hidden, ["Smith"])
        path = trace.as_path(schema, hidden)
        assert len(path) == trace.num_accesses

    def test_dataflow_annotated_step_restricts_bindings(self, schema, hidden):
        # AcM1's name input may only come from the Address resident column.
        plan = Plan(
            schema=schema,
            steps=(
                AccessStep("AcM2"),
                AccessStep("AcM1", (("Address", 2),)),
            ),
            query=smith_phone_query(),
        )
        trace = plan.execute(hidden, ["Parks Rd", "OX13QD"])
        for access in trace.accesses:
            if access.method.name == "AcM1":
                seen_names = {
                    tup[2] for tup in trace.revealed.tuples("Address")
                }
                assert access.binding[0] in seen_names

    def test_relevance_pruned_plan_drops_useless_methods(self, schema, hidden):
        query = smith_phone_query()  # only needs the Mobile relation
        pruned, dropped = relevance_pruned_plan(schema, query)
        assert "AcM2" in dropped
        assert all(step.method_name != "AcM2" for step in pruned.steps)
        # Pruning does not change the answers on this query.
        assert plans_equivalent_on(
            canonical_plan(schema, query), pruned, hidden, ["Smith"]
        )

    def test_pruned_plan_keeps_needed_methods(self, schema, hidden):
        pruned, dropped = relevance_pruned_plan(schema, join_query())
        assert not dropped  # both relations occur in the join query
        assert plans_equivalent_on(
            canonical_plan(schema, join_query()), pruned, hidden, ["Smith"]
        )

    def test_describe_mentions_steps(self, schema):
        plan = canonical_plan(schema, join_query())
        description = plan.describe()
        assert "AcM1" in description and "AcM2" in description
