"""A small relational-algebra evaluator and a CQ-to-algebra compiler.

The library evaluates conjunctive queries by backtracking join
(:mod:`repro.queries.evaluation`).  This test oracle is the classical
alternative — a relational-algebra plan tree (scan / selection / projection
/ natural join / union / rename) with an explicit evaluator — plus a
compiler from conjunctive queries to algebra plans.  It is an independent
implementation of CQ evaluation that the tests use to cross-validate the
backtracking evaluator; nothing in the library imports it.

Plans are immutable trees; evaluation produces *named relations* — sets of
tuples together with a column-name tuple — so joins can be expressed by
column-name equality (the named perspective), while the rest of the library
stays in the unnamed perspective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Constant, Variable
from repro.relational.instance import Instance


@dataclass(frozen=True)
class NamedRelation:
    """A set of tuples with named columns (the evaluation result type)."""

    columns: Tuple[str, ...]
    rows: FrozenSet[Tuple[object, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", frozenset(tuple(r) for r in self.rows))
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match column count")

    def __len__(self) -> int:
        return len(self.rows)

    def project(self, columns: Sequence[str]) -> "NamedRelation":
        """Project onto the given columns (which must exist)."""
        indices = [self.columns.index(c) for c in columns]
        return NamedRelation(
            tuple(columns),
            frozenset(tuple(row[i] for i in indices) for row in self.rows),
        )

    def to_set(self) -> FrozenSet[Tuple[object, ...]]:
        """The bare set of tuples."""
        return self.rows


class AlgebraNode:
    """Base class of relational-algebra plan nodes."""

    def evaluate(self, instance: Instance) -> NamedRelation:  # pragma: no cover
        raise NotImplementedError

    def children(self) -> Tuple["AlgebraNode", ...]:
        return ()

    def size(self) -> int:
        """Number of operator nodes in the plan."""
        return 1 + sum(child.size() for child in self.children())


@dataclass(frozen=True)
class Scan(AlgebraNode):
    """Scan a base relation, giving its positions the supplied column names."""

    relation: str
    columns: Tuple[str, ...]

    def evaluate(self, instance: Instance) -> NamedRelation:
        if self.relation not in instance.schema:
            return NamedRelation(self.columns, frozenset())
        rows = instance.tuples(self.relation)
        for row in rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"scan of {self.relation} expects arity {len(self.columns)}"
                )
        return NamedRelation(self.columns, rows)

    def __str__(self) -> str:
        return f"Scan({self.relation} as {','.join(self.columns)})"


@dataclass(frozen=True)
class Selection(AlgebraNode):
    """Select rows where a column equals a constant or another column."""

    child: AlgebraNode
    column: str
    value: object = None
    other_column: Optional[str] = None

    def children(self) -> Tuple[AlgebraNode, ...]:
        return (self.child,)

    def evaluate(self, instance: Instance) -> NamedRelation:
        relation = self.child.evaluate(instance)
        index = relation.columns.index(self.column)
        if self.other_column is not None:
            other = relation.columns.index(self.other_column)
            rows = frozenset(r for r in relation.rows if r[index] == r[other])
        else:
            rows = frozenset(r for r in relation.rows if r[index] == self.value)
        return NamedRelation(relation.columns, rows)

    def __str__(self) -> str:
        condition = (
            f"{self.column}={self.other_column}"
            if self.other_column is not None
            else f"{self.column}={self.value!r}"
        )
        return f"σ[{condition}]({self.child})"


@dataclass(frozen=True)
class Projection(AlgebraNode):
    """Project onto a list of columns."""

    child: AlgebraNode
    columns: Tuple[str, ...]

    def children(self) -> Tuple[AlgebraNode, ...]:
        return (self.child,)

    def evaluate(self, instance: Instance) -> NamedRelation:
        return self.child.evaluate(instance).project(self.columns)

    def __str__(self) -> str:
        return f"π[{','.join(self.columns)}]({self.child})"


@dataclass(frozen=True)
class NaturalJoin(AlgebraNode):
    """Natural join on shared column names."""

    left: AlgebraNode
    right: AlgebraNode

    def children(self) -> Tuple[AlgebraNode, ...]:
        return (self.left, self.right)

    def evaluate(self, instance: Instance) -> NamedRelation:
        left = self.left.evaluate(instance)
        right = self.right.evaluate(instance)
        shared = [c for c in left.columns if c in right.columns]
        right_only = [c for c in right.columns if c not in left.columns]
        columns = left.columns + tuple(right_only)
        left_key = [left.columns.index(c) for c in shared]
        right_key = [right.columns.index(c) for c in shared]
        right_rest = [right.columns.index(c) for c in right_only]

        index: Dict[Tuple[object, ...], List[Tuple[object, ...]]] = {}
        for row in right.rows:
            index.setdefault(tuple(row[i] for i in right_key), []).append(row)

        rows = set()
        for row in left.rows:
            key = tuple(row[i] for i in left_key)
            for match in index.get(key, ()):
                rows.add(row + tuple(match[i] for i in right_rest))
        return NamedRelation(columns, frozenset(rows))

    def __str__(self) -> str:
        return f"({self.left} ⋈ {self.right})"


@dataclass(frozen=True)
class Union(AlgebraNode):
    """Union of two plans with identical column lists."""

    left: AlgebraNode
    right: AlgebraNode

    def children(self) -> Tuple[AlgebraNode, ...]:
        return (self.left, self.right)

    def evaluate(self, instance: Instance) -> NamedRelation:
        left = self.left.evaluate(instance)
        right = self.right.evaluate(instance)
        if left.columns != right.columns:
            right = right.project(left.columns)
        return NamedRelation(left.columns, left.rows | right.rows)

    def __str__(self) -> str:
        return f"({self.left} ∪ {self.right})"


@dataclass(frozen=True)
class Rename(AlgebraNode):
    """Rename the columns of a plan."""

    child: AlgebraNode
    columns: Tuple[str, ...]

    def children(self) -> Tuple[AlgebraNode, ...]:
        return (self.child,)

    def evaluate(self, instance: Instance) -> NamedRelation:
        relation = self.child.evaluate(instance)
        if len(self.columns) != len(relation.columns):
            raise ValueError("rename must preserve the number of columns")
        return NamedRelation(self.columns, relation.rows)

    def __str__(self) -> str:
        return f"ρ[{','.join(self.columns)}]({self.child})"


# ----------------------------------------------------------------------
# CQ → algebra compilation
# ----------------------------------------------------------------------
def compile_cq(query: ConjunctiveQuery) -> AlgebraNode:
    """Compile a conjunctive query (without inequalities) to an algebra plan.

    Each body atom becomes a scan whose columns are the atom's variable
    names (repeated variables and constants become selections); atoms are
    combined with natural joins (join variables are the shared names); the
    head becomes the final projection.  Boolean queries project onto the
    empty column list, so the result is non-empty iff the query holds.
    """
    if query.inequalities:
        raise ValueError("compile_cq does not support inequalities")
    if not query.atoms:
        raise ValueError("cannot compile a query with an empty body")

    plans: List[AlgebraNode] = []
    for atom_index, atom in enumerate(query.atoms):
        columns: List[str] = []
        selections: List[Tuple[str, object, Optional[str]]] = []
        seen_variables: Dict[Variable, str] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                column = f"_a{atom_index}_c{position}"
                columns.append(column)
                selections.append((column, term.value, None))
            else:
                if term in seen_variables:
                    column = f"_a{atom_index}_r{position}"
                    columns.append(column)
                    selections.append((column, None, seen_variables[term]))
                else:
                    seen_variables[term] = term.name
                    columns.append(term.name)
        plan: AlgebraNode = Scan(atom.relation, tuple(columns))
        for column, value, other in selections:
            plan = Selection(plan, column, value=value, other_column=other)
        # Drop the helper columns so joins only happen on variable names.
        plan = Projection(plan, tuple(seen_variables[v] for v in seen_variables))
        plans.append(plan)

    combined = plans[0]
    for plan in plans[1:]:
        combined = NaturalJoin(combined, plan)
    # Equality atoms become column-equality selections.
    for equality in query.equalities:
        left, right = equality.left, equality.right
        if isinstance(left, Variable) and isinstance(right, Variable):
            combined = Selection(combined, left.name, other_column=right.name)
        elif isinstance(left, Variable):
            combined = Selection(combined, left.name, value=right.value)
        elif isinstance(right, Variable):
            combined = Selection(combined, right.name, value=left.value)
        elif left != right:
            # Constant-constant disequality: the query is unsatisfiable.
            return Projection(
                Selection(combined, combined_columns(combined)[0], value=object()),
                tuple(v.name for v in query.head),
            )
    return Projection(combined, tuple(v.name for v in query.head))


def combined_columns(plan: AlgebraNode) -> Tuple[str, ...]:
    """Column names a plan produces (computed by a dry evaluation shape walk)."""
    if isinstance(plan, Scan):
        return plan.columns
    if isinstance(plan, (Selection,)):
        return combined_columns(plan.child)
    if isinstance(plan, (Projection, Rename)):
        return plan.columns
    if isinstance(plan, NaturalJoin):
        left = combined_columns(plan.left)
        right = combined_columns(plan.right)
        return left + tuple(c for c in right if c not in left)
    if isinstance(plan, Union):
        return combined_columns(plan.left)
    raise TypeError(f"unknown plan node {plan!r}")


def evaluate_cq_via_algebra(
    query: ConjunctiveQuery, instance: Instance
) -> FrozenSet[Tuple[object, ...]]:
    """Evaluate a CQ by compiling it to algebra (cross-validation helper)."""
    plan = compile_cq(query)
    return plan.evaluate(instance).to_set()
