"""The dispatching AccLTL solver.

:class:`AccLTLSolver` classifies a formula into the hierarchy of Table 1
and dispatches satisfiability to the cheapest applicable procedure:

* ``AccLTL(X)(FO∃+,≠_0-Acc)`` → :mod:`repro.core.sat_xonly` (ΣP2 procedure);
* ``AccLTL(FO∃+(,≠)_0-Acc)``  → :mod:`repro.core.sat_zeroary` (PSPACE procedure);
* ``AccLTL+``                 → :mod:`repro.core.sat_accltl_plus`
  (automaton pipeline of Theorems 4.2/4.6);
* the undecidable fragments   → the bounded reference search of
  :mod:`repro.core.bounded_check` (sound positive answers; negative answers
  are explicitly flagged as bounded).

Validity (over all paths, or over grounded paths) is handled by checking
the negation for satisfiability, as in the paper's discussion of the
validity problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.access.methods import AccessSchema
from repro.access.path import AccessPath
from repro.core.bounded_check import Bounds, bounded_satisfiability
from repro.core.formulas import AccFormula, AccNot
from repro.core.fragments import Fragment, FragmentReport, classify
from repro.core.sat_accltl_plus import accltl_plus_satisfiable
from repro.core.sat_xonly import xonly_satisfiable
from repro.core.sat_zeroary import zeroary_satisfiable
from repro.core.vocabulary import AccessVocabulary
from repro.relational.instance import Instance


@dataclass(frozen=True)
class SatResult:
    """Uniform result of a satisfiability query.

    Attributes
    ----------
    satisfiable:
        The verdict.
    witness:
        A witnessing access path for positive verdicts.
    fragment:
        The fragment the formula was classified into.
    procedure:
        Name of the decision procedure used.
    certain:
        Whether the verdict is guaranteed exact.  Positive verdicts are
        always certain (they carry a witness); negative verdicts are
        certain when the underlying procedure exhausted its (complete)
        search space — in particular they are never certain for the
        undecidable fragments, where only the bounded reference search is
        available.
    """

    satisfiable: bool
    witness: Optional[AccessPath]
    fragment: Fragment
    procedure: str
    certain: bool


class AccLTLSolver:
    """Facade over the fragment-specific satisfiability procedures."""

    def __init__(self, access_schema: AccessSchema) -> None:
        self.access_schema = access_schema
        self.vocabulary = AccessVocabulary.of(access_schema)

    # ------------------------------------------------------------------
    def classify(self, formula: AccFormula) -> FragmentReport:
        """Fragment classification of a formula (Table 1 / Figure 2)."""
        return classify(formula)

    def satisfiable(
        self,
        formula: AccFormula,
        initial: Optional[Instance] = None,
        grounded_only: bool = False,
        max_paths: int = 40000,
        bounded_path_length: int = 4,
    ) -> SatResult:
        """Decide satisfiability, dispatching on the formula's fragment.

        This public signature runs :meth:`satisfiable_legacy`, the direct
        procedure (looked up at call time, so instrumentation that patches
        the method sees every call).
        """
        return self.satisfiable_legacy(
            formula,
            initial=initial,
            grounded_only=grounded_only,
            max_paths=max_paths,
            bounded_path_length=bounded_path_length,
        )

    def satisfiable_legacy(
        self,
        formula: AccFormula,
        initial: Optional[Instance] = None,
        grounded_only: bool = False,
        max_paths: int = 40000,
        bounded_path_length: int = 4,
    ) -> SatResult:
        """The direct (engine-free) satisfiability dispatch."""
        report = classify(formula)
        fragment = report.fragment

        if fragment == Fragment.ACCLTL_X_ZEROARY:
            result = xonly_satisfiable(
                self.vocabulary,
                formula,
                initial=initial,
                grounded_only=grounded_only,
                max_paths=max_paths,
            )
            return SatResult(
                satisfiable=result.satisfiable,
                witness=result.witness,
                fragment=fragment,
                procedure="sat_xonly (Theorem 4.14)",
                certain=result.satisfiable or result.exhausted,
            )
        if fragment in (Fragment.ACCLTL_ZEROARY, Fragment.ACCLTL_ZEROARY_INEQ):
            result = zeroary_satisfiable(
                self.vocabulary,
                formula,
                initial=initial,
                grounded_only=grounded_only,
                max_paths=max_paths,
            )
            return SatResult(
                satisfiable=result.satisfiable,
                witness=result.witness,
                fragment=fragment,
                procedure="sat_zeroary (Theorems 4.12/5.1)",
                certain=result.satisfiable or result.exhausted,
            )
        if fragment == Fragment.ACCLTL_PLUS:
            result = accltl_plus_satisfiable(
                self.vocabulary,
                formula,
                initial=initial,
                grounded_only=grounded_only,
                max_paths=max_paths,
            )
            return SatResult(
                satisfiable=result.satisfiable,
                witness=result.witness,
                fragment=fragment,
                procedure="automaton pipeline (Theorems 4.2/4.6)",
                certain=result.satisfiable or result.emptiness.exhausted,
            )

        # Undecidable fragments: only the bounded reference search applies.
        bounded = bounded_satisfiability(
            self.vocabulary,
            formula,
            Bounds(max_path_length=bounded_path_length, max_paths=max_paths),
            initial=initial,
            grounded_only=grounded_only,
        )
        return SatResult(
            satisfiable=bounded.satisfiable,
            witness=bounded.witness,
            fragment=fragment,
            procedure="bounded reference search (fragment is undecidable)",
            certain=bounded.satisfiable,
        )

    def valid(
        self,
        formula: AccFormula,
        initial: Optional[Instance] = None,
        grounded_only: bool = False,
        max_paths: int = 40000,
        bounded_path_length: int = 4,
    ) -> SatResult:
        """Validity over (grounded) paths: the negation is unsatisfiable.

        The returned :class:`SatResult` describes the *negation*'s
        satisfiability search; ``satisfiable=False`` means the original
        formula is valid (within the certainty reported), and a witness, if
        present, is a counterexample path to validity.
        """
        return self.satisfiable(
            AccNot(formula),
            initial=initial,
            grounded_only=grounded_only,
            max_paths=max_paths,
            bounded_path_length=bounded_path_length,
        )
