"""Containment of a Datalog program in a positive first-order query.

Proposition 4.11 of the paper: containment of a Datalog program (possibly
with constants) in a positive first-order sentence is decidable in
2EXPTIME.  This generalises the Chaudhuri–Vardi theorem on containment of
a recursive program in a nonrecursive one.

We implement the standard expansion-based characterisation:

    ``P ⊆ Q``  iff  every expansion of ``P`` is contained in ``Q``
              iff  ``Q`` holds in the canonical database of every expansion.

The procedure enumerates expansions in order of unfolding depth.  For
nonrecursive programs the enumeration is finite and the procedure is exact.
For recursive programs it is exact up to the supplied depth bound; the
result object records whether the enumeration was exhaustive, so callers
(the A-automaton emptiness check) can report the certainty of their answer.
A complementary *counterexample search* evaluates the program on small
canonical databases drawn from the query's own atoms, which can prove
non-containment quickly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.datalog.evaluation import accepts
from repro.datalog.expansion import expansions
from repro.datalog.program import DatalogProgram
from repro.queries.containment import ucq_contained_in
from repro.queries.cq import ConjunctiveQuery
from repro.queries.evaluation import holds
from repro.queries.homomorphism import canonical_instance
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq
from repro.relational.instance import Instance


@dataclass(frozen=True)
class ContainmentResult:
    """Outcome of a Datalog-in-positive-query containment check.

    Attributes
    ----------
    contained:
        The verdict.  ``False`` verdicts are always certain (a concrete
        counterexample expansion was found); ``True`` verdicts are certain
        iff ``exhaustive`` is also true.
    exhaustive:
        Whether the expansion enumeration covered every expansion of the
        program (always true for nonrecursive programs, and for recursive
        programs whose expansions all fall within the depth bound).
    counterexample:
        For negative verdicts, an expansion (a CQ over the EDB schema) whose
        canonical database is accepted by the program but does not satisfy
        the query.
    expansions_checked:
        Number of expansions examined.
    """

    contained: bool
    exhaustive: bool
    counterexample: Optional[ConjunctiveQuery] = None
    expansions_checked: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.contained


def nonrecursive_program_to_ucq(
    program: DatalogProgram, max_expansions: int = 100000
) -> UnionOfConjunctiveQueries:
    """Unfold a nonrecursive program into an equivalent UCQ over the EDB schema."""
    if not program.is_nonrecursive():
        raise ValueError("program is recursive; cannot convert to a finite UCQ")
    disjuncts = list(
        expansions(
            program,
            max_depth=len(program.idb_names) + 1,
            max_expansions=max_expansions,
        )
    )
    if not disjuncts:
        raise ValueError("program has no expansions (goal underivable)")
    return UnionOfConjunctiveQueries(tuple(disjuncts), name=program.goal)


def datalog_contained_in_ucq(
    program: DatalogProgram,
    query,
    max_depth: int = 6,
    max_expansions: int = 2000,
) -> ContainmentResult:
    """Is ``P ⊆ Q``, for a Datalog program ``P`` and positive query ``Q``?

    Containment here means: for every database ``D``, if the program accepts
    ``D`` (boolean goal) then the boolean query ``Q`` holds in ``D``; for
    non-boolean goals, every goal tuple is an answer of ``Q``.

    The expansions of the program are enumerated up to *max_depth*; each is
    checked for containment in ``Q`` via the canonical-database test.  See
    the module docstring for the exactness guarantees.
    """
    target = as_ucq(query)
    nonrecursive = program.is_nonrecursive()
    effective_depth = (
        len(program.idb_names) + 1 if nonrecursive else max_depth
    )
    checked = 0
    truncated = False
    for expansion in expansions(
        program, max_depth=effective_depth, max_expansions=max_expansions
    ):
        checked += 1
        if checked >= max_expansions:
            truncated = True
        if not ucq_contained_in(expansion, target):
            return ContainmentResult(
                contained=False,
                exhaustive=True,
                counterexample=expansion,
                expansions_checked=checked,
            )
    exhaustive = nonrecursive and not truncated
    if not nonrecursive:
        exhaustive = not truncated and not _has_reachable_recursion(program)
    return ContainmentResult(
        contained=True, exhaustive=exhaustive, expansions_checked=checked
    )


def _has_reachable_recursion(program: DatalogProgram) -> bool:
    """Whether any IDB predicate reachable from the goal is recursive."""
    graph = {name: set() for name in program.idb_names}
    for rule in program.rules:
        for atom in rule.body:
            if atom.relation in program.idb_names:
                graph[rule.head.relation].add(atom.relation)
    # Reachable set from the goal.
    reachable = set()
    frontier = [program.goal] if program.goal in graph else []
    while frontier:
        node = frontier.pop()
        if node in reachable:
            continue
        reachable.add(node)
        frontier.extend(graph.get(node, ()))

    # Cycle detection restricted to the reachable subgraph.
    state = {}

    def has_cycle(node: str) -> bool:
        if state.get(node) == 1:
            return True
        if state.get(node) == 2:
            return False
        state[node] = 1
        for successor in graph.get(node, ()):
            if successor in reachable and has_cycle(successor):
                return True
        state[node] = 2
        return False

    return any(has_cycle(node) for node in reachable)


def find_counterexample_database(
    program: DatalogProgram,
    query,
    candidate_databases: Iterable[Instance],
) -> Optional[Instance]:
    """Search the supplied databases for one accepted by ``P`` but not ``Q``.

    A helper used by tests and the automaton-emptiness fallback: any
    database in which the program's goal is derivable but the positive
    query fails refutes containment directly.
    """
    target = as_ucq(query)
    for database in candidate_databases:
        if accepts(program, database) and not holds(target, database):
            return database
    return None


def expansion_canonical_databases(
    program: DatalogProgram, max_depth: int = 4, max_expansions: int = 50
) -> List[Instance]:
    """Canonical databases of the first few expansions of the program.

    These are natural candidate counterexamples for containment refutation
    and are used by the benchmark harness to cross-check the expansion
    procedure against direct evaluation.
    """
    databases: List[Instance] = []
    for expansion in expansions(
        program, max_depth=max_depth, max_expansions=max_expansions
    ):
        instance, _ = canonical_instance(expansion, schema=program.edb_schema)
        databases.append(instance)
    return databases
