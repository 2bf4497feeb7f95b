"""Three computations of the accessible part agree (Lemma 4.10).

:func:`~repro.access.answerability.accessible_part` is the worklist that
answerability runs.  On generated access schemas — input-free methods,
relations without any method, initial values inside and outside the
hidden instance — it must equal

* the ``Acc_R`` facts of :func:`~repro.datalog.evaluation.evaluate_program`
  over :func:`~repro.access.answerability.accessible_part_program`, on the
  ``memory`` and on the ``sqlite`` store backend, and
* the facts the canonical recursive plan of :mod:`oracles.plans` reveals.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.access.answerability import (
    ACCESSIBLE_PREFIX,
    accessible_part,
    accessible_part_program,
)
from repro.access.methods import AccessSchema
from repro.datalog.evaluation import evaluate_program
from repro.queries.parser import parse_cq
from repro.relational.instance import Instance
from repro.relational.schema import make_schema

from oracles.plans import canonical_plan

ARITIES = {"R": 1, "S": 2, "T": 3}
VALUES = ["a", "b", "c", 0, 1]
QUERY = parse_cq("Q(x) :- S(x, y), R(y)")


@st.composite
def problems(draw):
    schema = AccessSchema(make_schema(ARITIES))
    for relation, arity in ARITIES.items():
        for index in range(draw(st.integers(min_value=0, max_value=2))):
            inputs = draw(st.sets(st.integers(min_value=0, max_value=arity - 1)))
            schema.add(f"m{relation}{index}", relation, tuple(sorted(inputs)))
    hidden = Instance(schema.schema)
    for relation, arity in ARITIES.items():
        tuples = draw(
            st.lists(st.tuples(*[st.sampled_from(VALUES)] * arity), max_size=5)
        )
        hidden.add_all(relation, tuples)
    initial_values = draw(st.sets(st.sampled_from(VALUES + ["unused"]), max_size=2))
    return schema, hidden, sorted(initial_values, key=repr)


def _program_part(schema, hidden, initial_values, backend):
    program = accessible_part_program(schema, QUERY)
    database = Instance(program.edb_schema)
    for name, tup in hidden.facts():
        database.add(name, tup)
    for value in initial_values:
        database.add("Init", (value,))
    fixedpoint = evaluate_program(program, database, backend=backend)
    try:
        return {
            (name[len(ACCESSIBLE_PREFIX):], tup)
            for name, tup in fixedpoint.facts()
            if name.startswith(ACCESSIBLE_PREFIX)
        }
    finally:
        close = getattr(fixedpoint, "close", None)
        if close is not None:
            close()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(problem=problems())
def test_worklist_program_and_canonical_plan_agree(problem):
    schema, hidden, initial_values = problem
    expected = set(accessible_part(schema, hidden, initial_values).facts())
    assert _program_part(schema, hidden, initial_values, "memory") == expected
    assert _program_part(schema, hidden, initial_values, "sqlite") == expected
    trace = canonical_plan(schema, QUERY).execute(hidden, initial_values)
    assert set(trace.revealed.facts()) == expected
