"""Satisfiability for the ``X``-only 0-ary languages (Theorem 4.14).

``AccLTL(X)(FO∃+(,≠)_0-Acc)`` uses only the temporal operator ``X``, so a
formula can only constrain a prefix of fixed length: if the ``X``-nesting
depth is ``d``, only the first ``d+1`` transitions matter.  Combined with
the Boundedness Lemma this yields the ΣP2 upper bound of Theorem 4.14: guess
polynomially many polynomially-sized instances and bindings, then verify
the (now fixed-length) propositional structure with NP / coNP oracles.

Our implementation mirrors the structure: the path-length bound is the
``X``-depth plus one, the fact/value pools come from Lemma 4.13, and the
verification is the concrete evaluation of the embedded queries on the
candidate prefix.  The paper also notes the application: long-term
relevance over *general* accesses needs only paths of length ``|Q|``, so it
can be expressed and decided in this fragment (see
:func:`repro.core.properties.ltr_formula_zeroary` restricted with ``X``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.access.path import AccessPath
from repro.core.bounded_check import Bounds, bounded_satisfiability
from repro.core.formulas import AccFormula
from repro.core.fragments import classify
from repro.core.sat_zeroary import FragmentError, lemma_4_13_bounds
from repro.core.vocabulary import AccessVocabulary
from repro.relational.instance import Instance


@dataclass(frozen=True)
class XOnlySatResult:
    """Result of the ``X``-only satisfiability procedure."""

    satisfiable: bool
    witness: Optional[AccessPath]
    path_length_bound: int
    paths_explored: int
    exhausted: bool


def xonly_satisfiable(
    vocabulary: AccessVocabulary,
    formula: AccFormula,
    initial: Optional[Instance] = None,
    grounded_only: bool = False,
    max_paths: int = 60000,
) -> XOnlySatResult:
    """Decide satisfiability of an ``AccLTL(X)(FO∃+,≠_0-Acc)`` formula.

    Raises :class:`~repro.core.sat_zeroary.FragmentError` when the formula
    uses an n-ary binding predicate or a temporal operator other than ``X``.
    """
    report = classify(formula)
    if report.uses_nary_binding:
        raise FragmentError("the X-only procedure requires 0-ary binding predicates")
    if not report.only_next:
        raise FragmentError(
            "the X-only procedure requires formulas whose only temporal operator is X"
        )
    if initial is None:
        initial = vocabulary.access_schema.empty_instance()

    length_bound = formula.next_depth() + 1
    bounds = lemma_4_13_bounds(vocabulary, formula, initial=initial)
    search_bounds = Bounds(
        max_path_length=length_bound,
        max_response_size=bounds.max_response_size,
        max_paths=max_paths,
    )
    result = bounded_satisfiability(
        vocabulary,
        formula,
        search_bounds,
        initial=initial,
        fact_pool=list(bounds.fact_pool),
        value_pool=list(bounds.value_pool),
        grounded_only=grounded_only,
    )
    return XOnlySatResult(
        satisfiable=result.satisfiable,
        witness=result.witness,
        path_length_bound=length_bound,
        paths_explored=result.paths_explored,
        exhausted=result.exhausted,
    )
