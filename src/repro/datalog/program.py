"""Datalog rules and programs.

Following the paper (Section 4.1): a Datalog program is defined with respect
to an *extensional* (EDB) and an *intensional* (IDB) schema.  A rule is
``head :- body`` where the head is an atom over an IDB relation and the body
is a conjunctive query over EDB ∪ IDB relations.  Programs have a
distinguished goal predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.queries.atoms import Atom, Equality, Inequality
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Constant, Variable
from repro.relational.schema import Relation, Schema


class DatalogError(ValueError):
    """Raised for malformed Datalog rules or programs."""


@dataclass(frozen=True)
class Rule:
    """A Datalog rule ``head :- body_atoms [, comparisons]``.

    Safety is enforced: every head variable must occur in a body relational
    atom.
    """

    head: Atom
    body: Tuple[Atom, ...]
    equalities: Tuple[Equality, ...] = ()
    inequalities: Tuple[Inequality, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "equalities", tuple(self.equalities))
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        body_vars: Set[Variable] = set()
        for atom in self.body:
            body_vars |= atom.variables()
        for term in self.head.terms:
            if isinstance(term, Variable) and term not in body_vars:
                raise DatalogError(
                    f"unsafe rule: head variable {term} not bound in the body: {self}"
                )

    def body_query(self, head_variables_only: bool = False) -> ConjunctiveQuery:
        """The rule body as a conjunctive query.

        The head variables become the answer variables (so rule application
        is CQ evaluation followed by head substitution).
        """
        head_vars = tuple(
            t for t in self.head.terms if isinstance(t, Variable)
        )
        seen: List[Variable] = []
        for v in head_vars:
            if v not in seen:
                seen.append(v)
        return ConjunctiveQuery(
            atoms=self.body,
            head=tuple(seen),
            equalities=self.equalities,
            inequalities=self.inequalities,
        )

    def relations_used(self) -> FrozenSet[str]:
        """Relation names used in the body."""
        return frozenset(atom.relation for atom in self.body)

    def variables(self) -> FrozenSet[Variable]:
        """All variables of the rule."""
        variables: Set[Variable] = set(
            t for t in self.head.terms if isinstance(t, Variable)
        )
        for atom in self.body:
            variables |= atom.variables()
        for comparison in self.equalities + self.inequalities:
            variables |= comparison.variables()
        return frozenset(variables)

    def rename_variables(self, renaming) -> "Rule":
        """Apply a variable renaming to the entire rule."""
        return Rule(
            head=self.head.rename(renaming),
            body=tuple(atom.rename(renaming) for atom in self.body),
            equalities=tuple(eq.rename(renaming) for eq in self.equalities),
            inequalities=tuple(ineq.rename(renaming) for ineq in self.inequalities),
        )

    def __str__(self) -> str:
        parts = [str(a) for a in self.body]
        parts += [str(e) for e in self.equalities]
        parts += [str(i) for i in self.inequalities]
        return f"{self.head} :- {', '.join(parts) if parts else 'true'}"


@dataclass
class DatalogProgram:
    """A Datalog program: rules, an EDB schema and a goal predicate."""

    rules: List[Rule]
    edb_schema: Schema
    goal: str

    def __init__(
        self,
        rules: Iterable[Rule],
        edb_schema: Schema,
        goal: str,
    ) -> None:
        self.rules = list(rules)
        self.edb_schema = edb_schema
        self.goal = goal
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        idb_names = {rule.head.relation for rule in self.rules}
        for name in idb_names:
            if name in self.edb_schema:
                raise DatalogError(
                    f"relation {name!r} appears both as EDB and as a rule head"
                )
        arities: Dict[str, int] = {}
        for rule in self.rules:
            for atom in (rule.head, *rule.body):
                known = arities.get(atom.relation)
                if known is None:
                    if atom.relation in self.edb_schema:
                        known = self.edb_schema.arity(atom.relation)
                    else:
                        known = atom.arity
                    arities[atom.relation] = known
                if atom.arity != known:
                    raise DatalogError(
                        f"relation {atom.relation!r} used with arities {known} and {atom.arity}"
                    )
        if self.goal not in idb_names and self.goal not in self.edb_schema:
            raise DatalogError(f"goal predicate {self.goal!r} is not defined")
        self._idb_arities = {
            name: arity for name, arity in arities.items() if name not in self.edb_schema
        }

    # ------------------------------------------------------------------
    @property
    def idb_names(self) -> FrozenSet[str]:
        """Names of intensional predicates."""
        return frozenset(self._idb_arities)

    def idb_schema(self) -> Schema:
        """The intensional schema inferred from the rules."""
        return Schema([Relation(name, arity) for name, arity in self._idb_arities.items()])

    def combined_schema(self) -> Schema:
        """EDB and IDB relations together."""
        return self.edb_schema.extend(self.idb_schema())

    def rules_for(self, relation: str) -> List[Rule]:
        """Rules whose head is *relation*."""
        return [rule for rule in self.rules if rule.head.relation == relation]

    def constants(self) -> FrozenSet[Constant]:
        """Constants used anywhere in the program."""
        constants: Set[Constant] = set()
        for rule in self.rules:
            for atom in (rule.head, *rule.body):
                constants |= atom.constants()
        return frozenset(constants)

    def is_nonrecursive(self) -> bool:
        """Whether the IDB dependency graph is acyclic."""
        graph: Dict[str, Set[str]] = {name: set() for name in self.idb_names}
        for rule in self.rules:
            for atom in rule.body:
                if atom.relation in self.idb_names:
                    graph[rule.head.relation].add(atom.relation)
        visited: Dict[str, int] = {}

        def has_cycle(node: str) -> bool:
            state = visited.get(node, 0)
            if state == 1:
                return True
            if state == 2:
                return False
            visited[node] = 1
            for successor in graph.get(node, ()):
                if has_cycle(successor):
                    return True
            visited[node] = 2
            return False

        return not any(has_cycle(name) for name in self.idb_names)

    def dependency_order(self) -> List[str]:
        """A topological order of the IDB predicates (nonrecursive programs)."""
        if not self.is_nonrecursive():
            raise DatalogError("dependency_order requires a nonrecursive program")
        graph: Dict[str, Set[str]] = {name: set() for name in self.idb_names}
        for rule in self.rules:
            for atom in rule.body:
                if atom.relation in self.idb_names:
                    graph[rule.head.relation].add(atom.relation)
        order: List[str] = []
        visited: Set[str] = set()

        def visit(node: str) -> None:
            if node in visited:
                return
            visited.add(node)
            for dependency in graph[node]:
                visit(dependency)
            order.append(node)

        for name in self.idb_names:
            visit(name)
        return order

    def size(self) -> int:
        """Total number of body atoms (a simple size measure)."""
        return sum(len(rule.body) + 1 for rule in self.rules)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)
