"""Verdict references that do not come from the path being timed.

Two kinds:

* hand-written expected answers for the paper's named scenarios and the
  Table 1 suites (``"witness"``: the automaton language is non-empty /
  the access is relevant / the formula is satisfiable / containment
  fails; ``"none"``: the opposite);
* the relations the theory guarantees between independent procedures,
  checked on every generated request: an exhausted emptiness search (or
  a certain fragment verdict) and a witness of the bounded checker can
  never coexist, and engine batches equal the direct procedures.

A capped search that does not exhaust is *undecided*, never wrong.  A
bounded search that exhausts its bounds is conclusive only within those
bounds, so it never contradicts a hand-written ``"witness"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: ``scenario name -> (long-term relevance, containment)`` expected answers.
#: directory: the full-tuple Mobile probe only re-reads a fact that AcM1
#: already reaches, so it is not relevant; the join query's names come
#: from Mobile rows whose streets the Address access then reveals, so it
#: is contained in the resident-names query under the access patterns.
#: directory-jones: the Address probe reveals the Jones address the query
#: asks for (relevant); the Jones query's answers are resident names.
SCENARIO_EXPECTED = {
    "directory": ("none", "none"),
    "directory-jones": ("witness", "none"),
}

#: Table 1 suite answers (``bench_table1.py`` asserts the satisfiable
#: rows; the Theorem 3.1/5.2 gadgets encode a dependency implication that
#: fails — an S tuple pair can break σ without touching R — so their
#: formulas are satisfiable).
TABLE1_EXPECTED = {
    "xonly-relevance": "witness",
    "access-order": "witness",
    "zeroary-ltr": "witness",
    "disjointness": "witness",
    "fd-zeroary-ltr": "witness",
    "ltr-dataflow": "witness",
    "a-automaton": "witness",
    "gadget-fd-id": "witness",
    "gadget-ineq": "witness",
}


@dataclass(frozen=True)
class Verdict:
    """The combined evidence of one decision request."""

    witness: bool  # some procedure produced a witness
    complete_none: bool  # a complete procedure exhausted without one
    bounded_none: bool  # the bounded checker exhausted its bounds

    @property
    def decided(self) -> bool:
        return self.witness or self.complete_none or self.bounded_none


def decision_verdict(kind: str, primary, bounded) -> Verdict:
    """Fold a procedure result and a bounded-check result into a verdict."""
    if kind == "emptiness":
        witness = not primary.empty and not primary.unknown
        complete_none = primary.empty and primary.exhausted and not primary.unknown
    else:  # accltl_sat: a SatResult
        witness = primary.satisfiable
        complete_none = not primary.satisfiable and primary.certain
    return Verdict(
        witness=witness or bounded.satisfiable,
        complete_none=complete_none,
        bounded_none=not bounded.satisfiable and bounded.exhausted,
    )


def check_decision(request, verdict: Verdict) -> Optional[str]:
    """A problem message when *verdict* contradicts theory or the hand list."""
    if verdict.witness and verdict.complete_none:
        return f"{request.name}: exhausted search and a witness disagree"
    expected = request.expected
    if expected == "none" and verdict.witness:
        return f"{request.name}: witness found, expected none"
    if expected == "witness" and verdict.complete_none:
        return f"{request.name}: exhausted without a witness, expected one"
    return None


def check_against_direct(request, values) -> Optional[str]:
    """Re-run a request through the direct procedures; compare fields."""
    from repro.automata.emptiness import automaton_emptiness
    from repro.core.bounded_check import bounded_satisfiability_legacy
    from repro.core.solver import AccLTLSolver

    primary_task, bounded_task = request.build()
    if primary_task.kind == "emptiness":
        automaton, vocabulary, snap, kwargs = primary_task.args
        direct = automaton_emptiness(automaton, vocabulary, initial=snap, **kwargs)
    else:
        schema, formula, snap, grounded, max_paths, length = primary_task.args
        direct = AccLTLSolver(schema).satisfiable_legacy(
            formula,
            initial=snap,
            grounded_only=grounded,
            max_paths=max_paths,
            bounded_path_length=length,
        )
    vocabulary, formula, bounds = bounded_task.args[:3]
    direct_bounded = bounded_satisfiability_legacy(vocabulary, formula, bounds)
    if direct != values[0]:
        return f"{request.name}: engine and direct {primary_task.kind} differ"
    if direct_bounded != values[1]:
        return f"{request.name}: engine and direct bounded check differ"
    return None
