"""AccLTL: the paper's query languages over access paths.

The core package provides:

* the access vocabulary ``SchAcc`` (``R_pre``, ``R_post``, ``IsBind_AcM``)
  and its 0-ary-binding restriction ``Sch0-Acc`` (:mod:`repro.core.vocabulary`);
* transition structures ``M(t)`` / ``M'(t)`` (:mod:`repro.core.transition`)
  and the refuter of conjunctions no transition can satisfy, which both
  witness searches consult before they search (:mod:`repro.core.refuter`);
* the AccLTL formula AST and its semantics over access paths
  (:mod:`repro.core.formulas`, :mod:`repro.core.semantics`);
* fragment classification — binding-positive AccLTL+, the 0-ary languages,
  the X-only languages, inequalities (:mod:`repro.core.fragments`);
* a library of the paper's example properties (:mod:`repro.core.properties`);
* decision procedures for each fragment and a dispatching solver
  (:mod:`repro.core.solver` and the ``sat_*`` modules);
* the undecidability gadgets of Theorems 3.1 and 5.2
  (:mod:`repro.core.undecidable`).
"""

from repro.core.vocabulary import AccessVocabulary, pre_name, post_name, isbind_name, isbind0_name
from repro.core.transition import TransitionStructure, transition_structure
from repro.core.formulas import (
    AccFormula,
    EmbeddedSentence,
    AccAtom,
    AccNot,
    AccAnd,
    AccOr,
    AccNext,
    AccUntil,
    AccEventually,
    AccGlobally,
    AccTrue,
    atom,
    lnot,
    land,
    lor,
    lnext,
    until,
    eventually,
    globally,
)
from repro.core.fragments import classify, Fragment, FragmentReport
from repro.core.semantics import path_satisfies, satisfies_at
from repro.core.solver import AccLTLSolver, SatResult
from repro.core import properties

__all__ = [
    "AccessVocabulary",
    "pre_name",
    "post_name",
    "isbind_name",
    "isbind0_name",
    "TransitionStructure",
    "transition_structure",
    "AccFormula",
    "EmbeddedSentence",
    "AccAtom",
    "AccNot",
    "AccAnd",
    "AccOr",
    "AccNext",
    "AccUntil",
    "AccEventually",
    "AccGlobally",
    "AccTrue",
    "atom",
    "lnot",
    "land",
    "lor",
    "lnext",
    "until",
    "eventually",
    "globally",
    "classify",
    "Fragment",
    "FragmentReport",
    "path_satisfies",
    "satisfies_at",
    "AccLTLSolver",
    "SatResult",
    "properties",
]
