"""Expansions (proof-tree unfoldings) of Datalog programs.

An *expansion* of a Datalog program is a conjunctive query over the EDB
schema obtained by unfolding the goal predicate through the rules: pick a
rule for the goal, replace every IDB atom in its body by (a variable-renamed
copy of) the body of one of its rules, and repeat until only EDB atoms
remain.  The classical fact used by Chaudhuri–Vardi style containment
arguments (Proposition 4.11 in the paper generalises their theorem) is:

    ``P ⊆ Q``  iff  every expansion of ``P`` is contained in ``Q``.

Recursive programs have infinitely many expansions; the containment
procedure in :mod:`repro.datalog.containment` enumerates them in order of
size up to a configurable depth, which is exact for nonrecursive programs
and for the stage-bounded programs produced by the progressive-automaton
reduction (Lemma 4.10), and is otherwise an under-approximation that is
reported as such.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.datalog.program import DatalogProgram, Rule
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery, QueryError
from repro.queries.terms import Constant, Term, Variable


class _FreshNamer:
    """Generates globally fresh variable names for rule instantiations."""

    def __init__(self) -> None:
        self._counter = itertools.count()

    def rename_rule(self, rule: Rule) -> Rule:
        index = next(self._counter)
        renaming = {v: Variable(f"{v.name}__e{index}") for v in rule.variables()}
        return rule.rename_variables(renaming)


def _unify_terms(
    pattern: Sequence[Term], target: Sequence[Term]
) -> Optional[Dict[Variable, Term]]:
    """Most general unifier mapping *pattern* variables onto *target* terms.

    Pattern terms are from a freshly renamed rule head, so its variables do
    not clash with the target's; we only substitute pattern variables.
    """
    substitution: Dict[Variable, Term] = {}
    for p, t in zip(pattern, target):
        if isinstance(p, Constant):
            if isinstance(t, Constant):
                if p.value != t.value:
                    return None
            else:
                # Constant in the head vs variable in the call: the call's
                # variable must equal the constant; we record it reversed.
                substitution[t] = p
        else:
            current = substitution.get(p)
            if current is None:
                substitution[p] = t
            elif current != t:
                # Chain the equality through a second substitution pass by
                # mapping the new occurrence onto the existing binding.
                if isinstance(current, Constant) and isinstance(t, Constant):
                    if current.value != t.value:
                        return None
                elif isinstance(t, Variable):
                    substitution[t] = current
                elif isinstance(current, Variable):
                    substitution[current] = t
                else:
                    return None
    return substitution


def _apply_substitution_atom(atom: Atom, substitution: Dict[Variable, Term]) -> Atom:
    terms = []
    for term in atom.terms:
        while isinstance(term, Variable) and term in substitution:
            term = substitution[term]
        terms.append(term)
    return Atom(atom.relation, tuple(terms))


def _apply_substitution_cmp(cmp_atom, substitution: Dict[Variable, Term]):
    def resolve(term: Term) -> Term:
        while isinstance(term, Variable) and term in substitution:
            term = substitution[term]
        return term

    return type(cmp_atom)(resolve(cmp_atom.left), resolve(cmp_atom.right))


def expansions(
    program: DatalogProgram,
    max_depth: int = 4,
    max_expansions: Optional[int] = None,
    max_atoms: Optional[int] = None,
) -> Iterator[ConjunctiveQuery]:
    """Enumerate expansions of *program*'s goal predicate.

    Parameters
    ----------
    max_depth:
        Maximal unfolding depth (number of nested rule applications along
        any branch of the proof tree).  Each IDB atom carries the number
        of rule applications above it, so unfolding one atom never uses up
        the depth of its siblings.
    max_expansions:
        Optional cap on the number of expansions yielded.
    max_atoms:
        Optional cap on the number of EDB atoms of a yielded expansion
        (larger partial unfoldings are pruned).
    """
    namer = _FreshNamer()
    goal_arity = None
    for rule in program.rules_for(program.goal):
        goal_arity = rule.head.arity
        break
    if goal_arity is None:
        if program.goal in program.edb_schema:
            goal_arity = program.edb_schema.arity(program.goal)
        else:
            return
    goal_vars = tuple(Variable(f"__goal_{i}") for i in range(goal_arity))
    initial_atom = Atom(program.goal, goal_vars)

    yielded = 0
    # Each work item: (atoms to expand with their depths, edb_atoms,
    # equalities, inequalities).
    stack: List[Tuple[Tuple[Tuple[Atom, int], ...], Tuple[Atom, ...], Tuple, Tuple]] = [
        (((initial_atom, 0),), (), (), ())
    ]
    while stack:
        idb_atoms, edb_atoms, equalities, inequalities = stack.pop()
        if not idb_atoms:
            head = tuple(
                v for v in goal_vars if any(v in atom.variables() for atom in edb_atoms)
            )
            if len(head) != len(goal_vars):
                # Some goal variable was bound to a constant during
                # unfolding; keep only variables still present.
                head = tuple(v for v in goal_vars if v in head)
            try:
                expansion = ConjunctiveQuery(
                    atoms=edb_atoms,
                    head=head,
                    equalities=equalities,
                    inequalities=inequalities,
                )
            except QueryError:
                continue  # unfolding produced an unsafe head: not a valid expansion
            yield expansion
            yielded += 1
            if max_expansions is not None and yielded >= max_expansions:
                return
            continue
        if max_atoms is not None and len(edb_atoms) > max_atoms:
            continue
        (atom, depth), rest = idb_atoms[0], idb_atoms[1:]
        if atom.relation in program.edb_schema:
            stack.append((rest, edb_atoms + (atom,), equalities, inequalities))
            continue
        if depth >= max_depth:
            continue
        for rule in program.rules_for(atom.relation):
            fresh = namer.rename_rule(rule)
            substitution = _unify_terms(fresh.head.terms, atom.terms)
            if substitution is None:
                continue
            new_idb: List[Tuple[Atom, int]] = []
            new_edb = list(edb_atoms)
            for body_atom in fresh.body:
                resolved = _apply_substitution_atom(body_atom, substitution)
                if resolved.relation in program.edb_schema:
                    new_edb.append(resolved)
                else:
                    new_idb.append((resolved, depth + 1))
            new_eq = tuple(equalities) + tuple(
                _apply_substitution_cmp(eq, substitution) for eq in fresh.equalities
            )
            new_ineq = tuple(inequalities) + tuple(
                _apply_substitution_cmp(ineq, substitution) for ineq in fresh.inequalities
            )
            stack.append(
                (
                    tuple(new_idb) + rest,
                    tuple(new_edb),
                    new_eq,
                    new_ineq,
                )
            )


def expansion_to_cq(expansion: ConjunctiveQuery) -> ConjunctiveQuery:
    """Identity helper kept for API clarity: expansions already are CQs."""
    return expansion


def count_expansions(program: DatalogProgram, max_depth: int = 4, cap: int = 10000) -> int:
    """Number of expansions up to *max_depth*, capped at *cap*."""
    count = 0
    for _ in expansions(program, max_depth=max_depth, max_expansions=cap):
        count += 1
    return count
