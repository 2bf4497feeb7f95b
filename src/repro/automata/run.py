"""Running A-automata over access paths.

A run of an A-automaton on a path ``t1 ... tn`` assigns to every transition
``ti`` an automaton transition ``(s_i, φ_i, s_{i+1})`` whose guard is
satisfied by the structure ``M(ti)``; the run is accepting if it starts in
the initial state and ends in an accepting state (Definition 4.3,
semantics).  Acceptance is decided by standard NFA-style subset simulation;
explicit runs can also be enumerated (used in tests and by the
compilation-correctness checks).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set

from repro.access.path import AccessPath
from repro.automata.aautomaton import AAutomaton, ATransition
from repro.core.transition import TransitionStructure, path_structures
from repro.core.vocabulary import AccessVocabulary
from repro.relational.instance import Instance


def accepts_structures(
    automaton: AAutomaton, structures: Sequence[TransitionStructure]
) -> bool:
    """Whether the automaton accepts the given (non-empty) structure sequence."""
    if not structures:
        return False
    current: Set[str] = {automaton.initial}
    for structure in structures:
        following: Set[str] = set()
        for state in current:
            for transition in automaton.transitions_from(state):
                if transition.guard.satisfied_by(structure):
                    following.add(transition.target)
        current = following
        if not current:
            return False
    return bool(current & automaton.accepting)


def accepts_path(
    automaton: AAutomaton,
    vocabulary: AccessVocabulary,
    path: AccessPath,
    initial: Optional[Instance] = None,
) -> bool:
    """Whether the automaton accepts the access path."""
    if len(path) == 0:
        return False
    return accepts_structures(automaton, path_structures(vocabulary, path, initial))


def accepting_runs(
    automaton: AAutomaton,
    structures: Sequence[TransitionStructure],
    limit: Optional[int] = None,
) -> Iterator[List[ATransition]]:
    """Enumerate accepting runs (sequences of automaton transitions)."""
    if not structures:
        return

    found = 0

    def extend(position: int, state: str, run: List[ATransition]) -> Iterator[List[ATransition]]:
        nonlocal found
        if position == len(structures):
            if state in automaton.accepting:
                yield list(run)
            return
        for transition in automaton.transitions_from(state):
            if transition.guard.satisfied_by(structures[position]):
                run.append(transition)
                yield from extend(position + 1, transition.target, run)
                run.pop()

    for run in extend(0, automaton.initial, []):
        yield run
        found += 1
        if limit is not None and found >= limit:
            return


def language_subset_on_samples(
    smaller: AAutomaton,
    larger: AAutomaton,
    vocabulary: AccessVocabulary,
    sample_paths: Sequence[AccessPath],
    initial: Optional[Instance] = None,
) -> bool:
    """Whether ``L(smaller) ⊆ L(larger)`` holds on every sampled path.

    A sampling-based inclusion check used by the Figure 2 benchmark (full
    language inclusion of A-automata is as hard as emptiness).
    """
    for path in sample_paths:
        if accepts_path(smaller, vocabulary, path, initial) and not accepts_path(
            larger, vocabulary, path, initial
        ):
            return False
    return True
