"""The binding index of candidate responses against the scan it replaced.

:class:`~repro.core.bounded_check.ResponseIndex` finds the pool facts an
access can return by looking its binding up in a per-method-shape table.
The searches' candidate lists must stay exactly those of the previous
per-access scan of the relation's facts, which this test keeps as the
oracle: the same fact objects in the same order, over random pools that
mix values equal across types (``1``, ``1.0``, ``True``), a NaN (which
equals nothing, not even itself), placeholders and strings.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.access.methods import Access, AccessMethod
from repro.core.bounded_check import ResponseIndex, _candidate_responses

NAN = float("nan")

#: Pool values: the numeric collapse, NaN, placeholders and strings.
VALUES = (1, 1.0, True, 0, 0.0, False, NAN, "~p0", "~p1", "a", "b", "1")

#: Relation arities of the random pools.
ARITIES = {"R": 1, "S": 2, "T": 3}

#: Every method shape: each subset of each relation's positions.
METHODS = tuple(
    AccessMethod(f"M{relation}{''.join(map(str, inputs))}", relation, inputs)
    for relation, arity in sorted(ARITIES.items())
    for size in range(arity + 1)
    for inputs in itertools.combinations(range(arity), size)
)

value_indices = st.integers(min_value=0, max_value=len(VALUES) - 1)


@st.composite
def pools(draw):
    facts = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        relation = draw(st.sampled_from(sorted(ARITIES)))
        tup = tuple(
            VALUES[draw(value_indices)] for _ in range(ARITIES[relation])
        )
        facts.append((relation, tup))
    return facts


def _scan_matching(access, fact_pool):
    """The previous per-access scan: the relation's facts it matches."""
    return [
        tup
        for relation, tup in fact_pool
        if relation == access.relation and access.matches(tup)
    ]


def _scan_candidate_responses(access, fact_pool, max_response_size):
    matching = _scan_matching(access, fact_pool)
    yield frozenset()
    for size in range(1, min(len(matching), max_response_size) + 1):
        for subset in itertools.combinations(matching, size):
            yield frozenset(subset)


def _accesses(fact_pool, extra_bindings):
    """Per method: the projection of every pool fact, then extra bindings."""
    accesses = []
    for method in METHODS:
        for relation, tup in fact_pool:
            if relation == method.relation:
                accesses.append(
                    Access(method, tuple(tup[i] for i in method.input_positions))
                )
        for binding in extra_bindings:
            accesses.append(Access(method, binding[: method.num_inputs]))
    return accesses


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    fact_pool=pools(),
    extra_bindings=st.lists(
        st.tuples(value_indices, value_indices, value_indices).map(
            lambda indices: tuple(VALUES[i] for i in indices)
        ),
        max_size=6,
    ),
)
def test_index_returns_what_the_scan_returned(fact_pool, extra_bindings):
    index = ResponseIndex(fact_pool)
    for access in _accesses(fact_pool, extra_bindings):
        expected = _scan_matching(access, fact_pool)
        found = index.matching(access)
        assert [id(tup) for tup in found] == [id(tup) for tup in expected]
        for bound in (1, 2):
            responses = list(_candidate_responses(access, index, bound))
            oracle = list(_scan_candidate_responses(access, fact_pool, bound))
            assert responses == oracle
            assert [sorted(map(id, r)) for r in responses] == [
                sorted(map(id, r)) for r in oracle
            ]


def test_equal_bindings_across_types_share_their_facts():
    pool = [("S", (1, "a")), ("S", (True, "b")), ("S", (1.0, "c")), ("S", (NAN, "d"))]
    index = ResponseIndex(pool)
    method = next(m for m in METHODS if m.name == "MS0")
    for value in (1, 1.0, True):
        assert index.matching(Access(method, (value,))) == [
            (1, "a"),
            (True, "b"),
            (1.0, "c"),
        ]
    assert index.matching(Access(method, (NAN,))) == []
    assert index.matching(Access(method, (float("nan"),))) == []
