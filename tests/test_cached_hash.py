"""The stored hash of the frozen AST classes (:mod:`repro.immutable`).

Over formulas, queries, automata and access paths drawn from
:class:`~repro.workloads.generators.WorkloadGenerator`, every node's
stored hash equals the dataclass-generated one (recomputed here from the
leaves, past every stored value), and storing it changes nothing else:
not ``dataclasses.fields``, not ``encode_key`` bytes, not ``copy`` or
``dataclasses.replace``.  Pickles drop the stored hash, so a process with
another ``PYTHONHASHSEED`` recomputes it and still finds the nodes as
dict keys.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata.library import containment_automaton
from repro.core import properties
from repro.core.formulas import EmbeddedSentence
from repro.core.sat_zeroary import translate_to_ltl
from repro.core.solver import AccLTLSolver
from repro.core.vocabulary import is_isbind
from repro.queries.atoms import Equality, Inequality
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.store.verdict_cache import encode_key
from repro.workloads.generators import WorkloadGenerator

REPO_ROOT = Path(__file__).resolve().parents[1]

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _inputs(seed):
    """Formulas, queries, an automaton and a path from one generator seed."""
    generator = WorkloadGenerator(seed=seed)
    access_schema = generator.access_schema(
        num_relations=2, methods_per_relation=2, max_inputs=2
    )
    schema = access_schema.schema
    vocabulary = AccLTLSolver(access_schema).vocabulary
    q1 = generator.conjunctive_query(
        schema, num_atoms=2, num_variables=3, constant_probability=0.3
    )
    q2 = generator.conjunctive_query(schema, num_atoms=2, num_variables=3)
    variables = sorted(q2.body_variables(), key=lambda v: v.name)
    x, y = variables[0], variables[-1]
    compared = ConjunctiveQuery(
        q2.atoms, equalities=(Equality(x, x),), inequalities=(Inequality(x, y),)
    )
    ucq = generator.ucq(schema, num_disjuncts=2, num_atoms=2, num_variables=3)
    formula = properties.containment_formula(vocabulary, q1, q2)
    automaton = containment_automaton(vocabulary, q1, q2, grounded=False)
    hidden = generator.instance(schema, tuples_per_relation=3, domain_size=4)
    path = generator.access_path(access_schema, hidden, length=3)
    return (
        q1,
        compared,
        UnionOfConjunctiveQueries((compared,)),
        ucq,
        formula,
        translate_to_ltl(formula),
        tuple(automaton.transitions),
        tuple(step.access for step in path),
    )


def _is_node(value) -> bool:
    return dataclasses.is_dataclass(value) and not isinstance(value, type)


def _nodes(value, found):
    """Every dataclass node reachable from *value*, children first, each
    object once (*found* maps ``id`` to node)."""
    if _is_node(value):
        if id(value) in found:
            return found
        for field in dataclasses.fields(value):
            _nodes(getattr(value, field.name), found)
        found[id(value)] = value
    elif isinstance(value, tuple):
        for item in value:
            _nodes(item, found)
    return found


class _Hashed:
    """Stands in for an item whose hash is already known."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __hash__(self) -> int:
        return self.value


def _reference_hash(value) -> int:
    """The dataclass-generated hash, recomputed from the leaves.

    A tuple's hash is a function of its items' hashes, so hashing the
    tuple of stand-ins for the children's reference hashes gives the
    generated ``hash(tuple(fields))`` without reading any stored value.
    """
    if _is_node(value):
        items = [getattr(value, field.name) for field in dataclasses.fields(value)]
    elif isinstance(value, tuple):
        items = value
    else:
        return hash(value)
    return hash(tuple(_Hashed(_reference_hash(item)) for item in items))


def _fresh(value):
    """An equal copy of *value* that has never been hashed."""
    return pickle.loads(pickle.dumps(value))


@SETTINGS
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_stored_hash_is_the_generated_hash(seed):
    nodes = list(_nodes(_inputs(seed), {}).values())
    assert {type(node).__name__ for node in nodes} >= {
        "Variable",
        "Atom",
        "Equality",
        "Inequality",
        "ConjunctiveQuery",
        "UnionOfConjunctiveQueries",
        "EmbeddedSentence",
        "AccAtom",
        "AccGlobally",
        "Prop",
        "Globally",
        "Guard",
        "ATransition",
        "AccessMethod",
        "Access",
    }
    for node in nodes:
        assert hash(node) == _reference_hash(node)
        fresh = _fresh(node)
        assert "_cached_hash" not in vars(fresh)
        fields_before = dataclasses.fields(fresh)
        key_before = encode_key(fresh)
        assert hash(fresh) == hash(node)
        assert "_cached_hash" in vars(fresh)
        assert dataclasses.fields(fresh) == fields_before
        assert "_cached_hash" not in {field.name for field in fields_before}
        if isinstance(fresh, EmbeddedSentence):
            # The stored relation set follows the stored hash's contract:
            # a pickle drops it and the copy stores it again on first use.
            assert "_cached_relations" not in vars(fresh)
            assert fresh.relations() == fresh.query.relations()
            assert fresh.mentions_nary_binding() == any(
                is_isbind(name) for name in fresh.query.relations()
            )
            assert "_cached_relations" in vars(fresh)
            assert pickle.dumps(fresh) == pickle.dumps(_fresh(node))
        assert encode_key(fresh) == key_before == encode_key(node)
        assert repr(fresh) == repr(node)
        for duplicate in (
            copy.copy(node),
            copy.deepcopy(node),
            dataclasses.replace(node),
        ):
            assert duplicate == node
            assert "_cached_hash" not in vars(duplicate)
            assert dataclasses.fields(duplicate) == fields_before
            assert hash(duplicate) == hash(node)
            assert encode_key(duplicate) == key_before


_CHILD = """
import dataclasses, pickle, sys

def is_node(value):
    return dataclasses.is_dataclass(value) and not isinstance(value, type)

class Hashed:
    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value

def reference(value):
    if is_node(value):
        items = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, tuple):
        items = value
    else:
        return hash(value)
    return hash(tuple(Hashed(reference(item)) for item in items))

data = sys.stdin.buffer.read()
nodes = pickle.loads(data)
table = {node: index for index, node in enumerate(nodes)}
for index, node in enumerate(pickle.loads(data)):
    assert hash(node) == reference(node), node
    assert nodes[table[node]] == node
print(len(table), hash("seed probe"))
"""


def test_pickles_recompute_the_hash_under_another_hash_seed():
    nodes = []
    for seed in range(6):
        nodes.extend(_nodes(_inputs(seed), {}).values())
    for node in nodes:
        hash(node)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD],
        input=pickle.dumps(nodes),
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr.decode()
    distinct, probe = completed.stdout.decode().split()
    assert int(probe) != hash("seed probe")
    assert int(distinct) == len(set(nodes))
