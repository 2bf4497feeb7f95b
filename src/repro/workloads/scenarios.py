"""Named scenarios shared by the examples, tests and benchmark harness.

A :class:`Scenario` bundles an access schema, a hidden instance, a pair of
queries, an initial instance and the constraint sets relevant to the
paper's applications (containment, long-term relevance, constraint-aware
variants).  ``standard_scenarios()`` returns the fixed list the benchmark
tables iterate over, so every reported row names the scenario it came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.access.methods import Access, AccessSchema
from repro.queries.cq import ConjunctiveQuery
from repro.relational.dependencies import DisjointnessConstraint, FunctionalDependency
from repro.relational.instance import Instance
from repro.workloads.directory import (
    directory_access_schema,
    directory_hidden_instance,
    jones_address_query,
    join_query,
    resident_names_query,
)
from repro.workloads.generators import WorkloadGenerator


@dataclass
class Scenario:
    """A named workload for the benchmark harness."""

    name: str
    access_schema: AccessSchema
    hidden_instance: Instance
    query_one: ConjunctiveQuery
    query_two: ConjunctiveQuery
    probe_access: Access
    initial_values: Tuple[object, ...] = ()
    disjointness: Tuple[DisjointnessConstraint, ...] = ()
    fds: Tuple[FunctionalDependency, ...] = ()

    def describe(self) -> str:
        """One-line description used in benchmark output."""
        return (
            f"{self.name}: |schema|={len(self.access_schema.schema)} relations, "
            f"|methods|={len(self.access_schema)}, "
            f"|hidden|={self.hidden_instance.size()} facts"
        )


def _directory_scenario() -> Scenario:
    access_schema = directory_access_schema()
    mobile = access_schema.schema.relation("Mobile")
    probe_method = AccessSchema(access_schema.schema)
    # A boolean probe access used by the relevance experiments: a full-tuple
    # membership test on Mobile (added as an extra method).
    access_schema.add("MobileProbe", "Mobile", (0, 1, 2, 3))
    probe = access_schema.access(
        "MobileProbe", ("Jones", "OX26NN", "Banbury Rd", 5553434)
    )
    return Scenario(
        name="directory",
        access_schema=access_schema,
        hidden_instance=directory_hidden_instance("small"),
        query_one=join_query(),
        query_two=resident_names_query(),
        probe_access=probe,
        initial_values=("Smith",),
        disjointness=(DisjointnessConstraint("Mobile", 0, "Address", 0),),
        fds=(FunctionalDependency("Mobile", (0,), 3),),
    )


def _directory_unanswerable_scenario() -> Scenario:
    access_schema = directory_access_schema()
    access_schema.add("AddressProbe", "Address", (0, 1, 2, 3))
    probe = access_schema.access(
        "AddressProbe", ("Banbury Rd", "OX26NN", "Jones", 101)
    )
    return Scenario(
        name="directory-jones",
        access_schema=access_schema,
        hidden_instance=directory_hidden_instance("small"),
        query_one=jones_address_query(),
        query_two=resident_names_query(),
        probe_access=probe,
        initial_values=("Jones",),
        disjointness=(DisjointnessConstraint("Mobile", 0, "Address", 2),),
        fds=(FunctionalDependency("Address", (0, 1, 3), 2),),
    )


def _synthetic_scenario(seed: int, num_relations: int, name: str) -> Scenario:
    generator = WorkloadGenerator(seed=seed)
    access_schema = generator.access_schema(
        num_relations=num_relations, methods_per_relation=1, max_inputs=1,
        input_free_probability=0.34,
    )
    schema = access_schema.schema
    hidden = generator.instance(schema, tuples_per_relation=4, domain_size=6)
    query_one = generator.conjunctive_query(schema, num_atoms=2, num_variables=3)
    query_two = generator.conjunctive_query(schema, num_atoms=1, num_variables=3)
    # Boolean probe method on the first relation.
    first = list(schema)[0]
    access_schema.add("Probe", first.name, tuple(range(first.arity)))
    # Deterministic pick: ``next(iter(frozenset))`` depends on the process
    # hash seed, which silently made the synthetic scenarios (and therefore
    # every benchmark row derived from them) vary between runs.
    probe_tuple = min(hidden.tuples(first.name), key=repr)
    probe = access_schema.access("Probe", probe_tuple)
    return Scenario(
        name=name,
        access_schema=access_schema,
        hidden_instance=hidden,
        query_one=query_one,
        query_two=query_two,
        probe_access=probe,
        initial_values=("v0",),
        disjointness=(generator.disjointness_constraint(schema),),
        fds=(generator.functional_dependency(schema),),
    )


def standard_scenarios() -> List[Scenario]:
    """The fixed scenario list used by the benchmark harness."""
    return [
        _directory_scenario(),
        _directory_unanswerable_scenario(),
        _synthetic_scenario(seed=7, num_relations=2, name="synthetic-2rel"),
        _synthetic_scenario(seed=11, num_relations=3, name="synthetic-3rel"),
    ]
