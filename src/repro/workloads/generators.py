"""Seeded random workload generation for tests and benchmarks.

The generator produces schemas with access methods, hidden instances,
conjunctive queries over them, access paths, and constraint sets.  All
generation is driven by a single :class:`random.Random` instance seeded at
construction, so every benchmark row is reproducible from its printed seed
and parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.access.methods import Access, AccessSchema
from repro.access.path import AccessPath, PathStep
from repro.datalog.program import DatalogProgram, Rule
from repro.queries.atoms import Atom, Equality, Inequality
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Constant, Variable
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.dependencies import (
    DisjointnessConstraint,
    FunctionalDependency,
    InclusionDependency,
)
from repro.relational.instance import Instance
from repro.relational.schema import Relation, Schema


@dataclass
class WorkloadGenerator:
    """A reproducible generator of schemas, instances, queries and paths."""

    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    # ------------------------------------------------------------------
    # Schemas and access methods
    # ------------------------------------------------------------------
    def schema(
        self,
        num_relations: int = 3,
        min_arity: int = 2,
        max_arity: int = 4,
    ) -> Schema:
        """A random schema with the given number of relations."""
        relations = []
        for index in range(num_relations):
            arity = self._rng.randint(min_arity, max_arity)
            relations.append(Relation(f"R{index}", arity))
        return Schema(relations)

    def access_schema(
        self,
        schema: Optional[Schema] = None,
        methods_per_relation: int = 1,
        max_inputs: int = 2,
        input_free_probability: float = 0.2,
        **schema_kwargs,
    ) -> AccessSchema:
        """A random access schema: every relation gets at least one method."""
        if schema is None:
            schema = self.schema(**schema_kwargs)
        access_schema = AccessSchema(schema)
        counter = 0
        for relation in schema:
            for _ in range(methods_per_relation):
                if self._rng.random() < input_free_probability:
                    inputs: Tuple[int, ...] = ()
                else:
                    count = self._rng.randint(1, min(max_inputs, relation.arity))
                    inputs = tuple(
                        sorted(self._rng.sample(range(relation.arity), count))
                    )
                access_schema.add(f"M{counter}", relation.name, inputs)
                counter += 1
        return access_schema

    # ------------------------------------------------------------------
    # Instances
    # ------------------------------------------------------------------
    def instance(
        self,
        schema: Schema,
        tuples_per_relation: int = 5,
        domain_size: int = 8,
    ) -> Instance:
        """A random instance over *schema* with values ``v0 .. v{domain_size-1}``."""
        instance = Instance(schema)
        values = [f"v{i}" for i in range(domain_size)]
        for relation in schema:
            for _ in range(tuples_per_relation):
                instance.add(
                    relation.name,
                    tuple(self._rng.choice(values) for _ in range(relation.arity)),
                )
        return instance

    def chain_instance(
        self, schema: Schema, relation: str, length: int
    ) -> Instance:
        """A simple path ``c0 -> c1 -> ... -> c{length}`` in binary *relation*.

        The deep-recursion Datalog workload: transitive closure over this
        chain needs ``length - 1`` semi-naive rounds and derives a
        quadratic number of facts, which is exactly the shape where
        re-joining the whole instance every round dominates.
        """
        if schema.arity(relation) != 2:
            raise ValueError(f"chain_instance needs a binary relation, got {relation!r}")
        instance = Instance(schema)
        for index in range(length):
            instance.add(relation, (f"c{index}", f"c{index + 1}"))
        return instance

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def conjunctive_query(
        self,
        schema: Schema,
        num_atoms: int = 3,
        num_variables: int = 4,
        num_head_variables: int = 1,
        constant_probability: float = 0.1,
        domain: Sequence[object] = ("v0", "v1", "v2"),
    ) -> ConjunctiveQuery:
        """A random connected-ish conjunctive query over *schema*."""
        relations = list(schema)
        variables = [Variable(f"x{i}") for i in range(num_variables)]
        atoms: List[Atom] = []
        for _ in range(num_atoms):
            relation = self._rng.choice(relations)
            terms = []
            for _ in range(relation.arity):
                if self._rng.random() < constant_probability:
                    terms.append(Constant(self._rng.choice(list(domain))))
                else:
                    terms.append(self._rng.choice(variables))
            atoms.append(Atom(relation.name, tuple(terms)))
        used = set()
        for atom in atoms:
            used |= atom.variables()
        head_candidates = sorted(used, key=lambda v: v.name)
        head = tuple(head_candidates[: min(num_head_variables, len(head_candidates))])
        return ConjunctiveQuery(atoms=tuple(atoms), head=head)

    def ucq(
        self,
        schema: Schema,
        num_disjuncts: int = 2,
        **cq_kwargs,
    ) -> UnionOfConjunctiveQueries:
        """A random UCQ whose disjuncts share a head arity."""
        head_arity = cq_kwargs.pop("num_head_variables", 1)
        disjuncts = []
        while len(disjuncts) < num_disjuncts:
            candidate = self.conjunctive_query(
                schema, num_head_variables=head_arity, **cq_kwargs
            )
            if len(candidate.head) == head_arity or head_arity == 0:
                if head_arity == 0:
                    candidate = candidate.boolean_version()
                disjuncts.append(candidate)
        return UnionOfConjunctiveQueries(tuple(disjuncts))

    # ------------------------------------------------------------------
    # Datalog programs
    # ------------------------------------------------------------------
    def datalog_program(
        self,
        schema: Schema,
        num_idb: int = 2,
        rules_per_idb: int = 2,
        max_body_atoms: int = 3,
        idb_body_probability: float = 0.5,
        constant_probability: float = 0.1,
        comparison_probability: float = 0.25,
        domain: Sequence[object] = ("v0", "v1", "v2"),
    ) -> DatalogProgram:
        """A random (possibly recursive) Datalog program over EDB *schema*.

        IDB predicates ``P0 .. P{num_idb-1}`` get random small arities;
        rule bodies mix EDB and IDB atoms (so recursion arises naturally),
        sprinkle constants, and occasionally carry an equality or
        inequality between body variables.  Head variables are always
        drawn from the body, so every generated rule is safe, and heads
        never invent values, so every fixedpoint is finite.  The goal is
        ``P0``.  Used by the semi-naive/naive agreement property tests.
        """
        idb_relations = [
            Relation(f"P{index}", self._rng.randint(1, 2))
            for index in range(num_idb)
        ]
        edb_relations = list(schema)
        variables = [Variable(f"x{i}") for i in range(6)]
        values = list(domain)
        rules: List[Rule] = []
        for head_relation in idb_relations:
            for _ in range(rules_per_idb):
                body: List[Atom] = []
                for _ in range(self._rng.randint(1, max_body_atoms)):
                    if self._rng.random() < idb_body_probability:
                        relation = self._rng.choice(idb_relations)
                    else:
                        relation = self._rng.choice(edb_relations)
                    terms = tuple(
                        Constant(self._rng.choice(values))
                        if self._rng.random() < constant_probability
                        else self._rng.choice(variables)
                        for _ in range(relation.arity)
                    )
                    body.append(Atom(relation.name, terms))
                body_variables = sorted(
                    {v for atom in body for v in atom.variables()},
                    key=lambda v: v.name,
                )
                head_terms = tuple(
                    self._rng.choice(body_variables)
                    if body_variables
                    else Constant(self._rng.choice(values))
                    for _ in range(head_relation.arity)
                )
                equalities: List[Equality] = []
                inequalities: List[Inequality] = []
                if (
                    len(body_variables) >= 2
                    and self._rng.random() < comparison_probability
                ):
                    left, right = self._rng.sample(body_variables, 2)
                    if self._rng.random() < 0.5:
                        equalities.append(Equality(left, right))
                    else:
                        inequalities.append(Inequality(left, right))
                rules.append(
                    Rule(
                        head=Atom(head_relation.name, head_terms),
                        body=tuple(body),
                        equalities=tuple(equalities),
                        inequalities=tuple(inequalities),
                    )
                )
        return DatalogProgram(
            rules=rules, edb_schema=schema, goal=idb_relations[0].name
        )

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def access_path(
        self,
        access_schema: AccessSchema,
        hidden_instance: Instance,
        length: int = 4,
        grounded: bool = False,
        initial_values: Sequence[object] = (),
    ) -> AccessPath:
        """A random access path against a hidden instance (exact responses)."""
        steps: List[PathStep] = []
        known: List[object] = list(initial_values) or ["v0"]
        for _ in range(length):
            method = self._rng.choice(list(access_schema))
            if grounded:
                pool = list(known)
            else:
                pool = list(hidden_instance.active_domain()) or ["v0"]
            binding = tuple(self._rng.choice(pool) for _ in range(method.num_inputs))
            access = Access(method, binding)
            matching = [
                tup
                for tup in hidden_instance.tuples(method.relation)
                if access.matches(tup)
            ]
            response = frozenset(matching)
            steps.append(PathStep(access, response))
            for tup in response:
                known.extend(tup)
            known.extend(binding)
        return AccessPath(tuple(steps))

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    def functional_dependency(self, schema: Schema) -> FunctionalDependency:
        """A random FD over a random relation of *schema*."""
        relation = self._rng.choice(list(schema))
        positions = list(range(relation.arity))
        lhs_size = self._rng.randint(1, max(1, relation.arity - 1))
        lhs = tuple(sorted(self._rng.sample(positions, lhs_size)))
        remaining = [p for p in positions if p not in lhs] or positions
        rhs = self._rng.choice(remaining)
        return FunctionalDependency(relation.name, lhs, rhs)

    def inclusion_dependency(self, schema: Schema) -> InclusionDependency:
        """A random unary inclusion dependency between two relations."""
        relations = list(schema)
        source = self._rng.choice(relations)
        target = self._rng.choice(relations)
        return InclusionDependency(
            source.name,
            (self._rng.randrange(source.arity),),
            target.name,
            (self._rng.randrange(target.arity),),
        )

    def disjointness_constraint(self, schema: Schema) -> DisjointnessConstraint:
        """A random disjointness constraint between two relation columns."""
        relations = list(schema)
        first = self._rng.choice(relations)
        second = self._rng.choice(relations)
        return DisjointnessConstraint(
            first.name,
            self._rng.randrange(first.arity),
            second.name,
            self._rng.randrange(second.arity),
        )
