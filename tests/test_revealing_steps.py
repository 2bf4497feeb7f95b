"""``revealing_steps`` against the two greedy loops it replaced.

Containment under access patterns (``containment_ap.grounded_reachable``)
and long-term relevance (``relevance._revealing_path``) each had their own
loop revealing a frozen fact list.  Both are kept below verbatim as
oracles: on generated schemas and fact lists, :func:`revealing_steps`
returns the same steps in the same order as ``_revealing_path`` in
grounded and ungrounded mode, and succeeds exactly when
``grounded_reachable`` does when no fact is already in the configuration.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.access.methods import Access, AccessSchema
from repro.access.path import AccessPath, PathStep, conf, is_grounded, revealing_steps
from repro.relational.instance import Instance
from repro.relational.schema import make_schema
from repro.store.snapshot import Snapshot, SnapshotInstance

ARITIES = {"R": 1, "S": 2, "T": 3}
VALUES = ["a", "b", 0, 1]


# ----------------------------------------------------------------------
# The deleted loops, verbatim
# ----------------------------------------------------------------------
def grounded_reachable(
    facts: Sequence[Tuple[str, Tuple[object, ...]]],
    initial_values: Iterable[object],
    schema: AccessSchema,
) -> bool:
    known: Set[object] = set(initial_values)
    remaining = list(facts)
    progress = True
    while remaining and progress:
        progress = False
        for fact in list(remaining):
            relation, tup = fact
            for method in schema.methods_for(relation):
                if all(tup[i] in known for i in method.input_positions):
                    known.update(tup)
                    remaining.remove(fact)
                    progress = True
                    break
    return not remaining


def _revealing_path(
    schema: AccessSchema,
    first_step: PathStep,
    facts_to_reveal: List[Tuple[str, Tuple[object, ...]]],
    initial_snap: Snapshot,
    grounded: bool,
) -> Optional[AccessPath]:
    steps: List[PathStep] = [first_step]
    revealed = SnapshotInstance.from_snapshot(initial_snap)
    known: Set[object] = set(revealed.active_domain()) | set(
        first_step.returned_values()
    ) | set(first_step.access.binding)
    for tup in first_step.response:
        revealed.add(first_step.relation, tup)
    remaining = [fact for fact in facts_to_reveal if fact not in revealed]
    progress = True
    while remaining and progress:
        progress = False
        for fact in list(remaining):
            relation, tup = fact
            for method in schema.methods_for(relation):
                binding = tuple(tup[i] for i in method.input_positions)
                if grounded and not all(value in known for value in binding):
                    continue
                access = Access(method, binding)
                steps.append(PathStep(access, frozenset({tup})))
                known.update(tup)
                known.update(binding)
                remaining.remove(fact)
                progress = True
                break
    if remaining:
        return None
    return AccessPath(tuple(steps))


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
@st.composite
def access_schemas(draw) -> AccessSchema:
    """``R/1, S/2, T/3`` with 0–2 methods each; some relation may have none
    and a method may have no inputs."""
    schema = AccessSchema(make_schema(ARITIES))
    for relation, arity in ARITIES.items():
        for index in range(draw(st.integers(min_value=0, max_value=2))):
            inputs = draw(st.sets(st.integers(min_value=0, max_value=arity - 1)))
            schema.add(f"m{relation}{index}", relation, tuple(sorted(inputs)))
    return schema


def facts(relations: Sequence[str] = tuple(ARITIES)):
    return st.sampled_from(list(relations)).flatmap(
        lambda relation: st.tuples(
            st.just(relation),
            st.tuples(*[st.sampled_from(VALUES)] * ARITIES[relation]),
        )
    )


@st.composite
def scenarios(draw):
    schema = draw(access_schemas())
    initial = Instance(schema.schema)
    for relation, tup in draw(st.lists(facts(), max_size=3)):
        initial.add(relation, tup)
    fact_list = draw(st.lists(facts(), max_size=8))
    if initial.size():
        # Some frozen facts are already in the initial instance.
        present = sorted(initial.facts(), key=repr)
        fact_list += draw(st.lists(st.sampled_from(present), max_size=2))
    return schema, initial, draw(st.permutations(fact_list))


SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(scenario=scenarios(), grounded=st.booleans(), data=st.data())
def test_same_steps_as_the_relevance_loop(scenario, grounded, data):
    schema, initial, fact_list = scenario
    accessible = [name for name in ARITIES if schema.methods_for(name)]
    if not accessible:
        return
    relation, tup = data.draw(facts(accessible))
    method = data.draw(st.sampled_from(schema.methods_for(relation)))
    first_step = PathStep(
        Access(method, tuple(tup[i] for i in method.input_positions)),
        frozenset({tup}),
    )
    initial_snap = SnapshotInstance.from_instance(initial).snapshot()
    expected = _revealing_path(schema, first_step, fact_list, initial_snap, grounded)

    configuration = initial.copy()
    configuration.add(relation, tup)
    steps = revealing_steps(
        schema,
        fact_list,
        configuration.active_domain() | set(first_step.access.binding),
        grounded,
        configuration=configuration,
    )
    if expected is None:
        assert steps is None
    else:
        assert steps is not None
        assert tuple(steps) == expected.steps[1:]


@SETTINGS
@given(scenario=scenarios())
def test_same_verdict_as_the_containment_loop(scenario):
    schema, initial, fact_list = scenario
    known = initial.active_domain()
    steps = revealing_steps(schema, fact_list, known, True, configuration=())
    assert (steps is not None) == grounded_reachable(fact_list, known, schema)


@SETTINGS
@given(scenario=scenarios())
def test_grounded_steps_form_a_grounded_path(scenario):
    schema, initial, fact_list = scenario
    steps = revealing_steps(
        schema, fact_list, initial.active_domain(), True, configuration=initial
    )
    if steps is None:
        return
    path = AccessPath(tuple(steps))
    assert is_grounded(path, initial)
    final = conf(path, initial)
    assert all(fact in final for fact in fact_list)
    # No step re-reveals a fact the initial instance already holds.
    assert not any((step.relation, next(iter(step.response))) in initial for step in steps)
