"""A-automata: the paper's automaton model for access paths (Section 4).

An Access-automaton runs over access paths; its transition guards are
relational conditions on the transition structures (binding, pre- and
post-instances).  AccLTL+ formulas compile into A-automata (Lemma 4.5),
emptiness of A-automata is decidable (Theorem 4.6) via progressive automata
(Lemma 4.9) and Datalog containment (Lemma 4.10, Proposition 4.11), and
important static-analysis problems compile directly into A-automata
(Proposition 4.4).
"""

from repro.automata.aautomaton import AAutomaton, Guard, ATransition
from repro.automata.run import accepts_path, accepts_structures, accepting_runs
from repro.automata.compile import clear_template_cache, compile_accltl_plus
from repro.automata.progressive import (
    strongly_connected_components,
    scc_chain,
    is_progressive,
    ProgressivityReport,
)
from repro.automata.emptiness import automaton_emptiness, EmptinessResult
from repro.automata.library import (
    containment_automaton,
    ltr_automaton,
)

__all__ = [
    "AAutomaton",
    "Guard",
    "ATransition",
    "accepts_path",
    "accepts_structures",
    "accepting_runs",
    "clear_template_cache",
    "compile_accltl_plus",
    "strongly_connected_components",
    "scc_chain",
    "is_progressive",
    "ProgressivityReport",
    "automaton_emptiness",
    "EmptinessResult",
    "containment_automaton",
    "ltr_automaton",
]
