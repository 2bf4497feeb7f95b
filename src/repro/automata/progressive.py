"""Progressive A-automata (Definition 4.8) and SCC utilities (Lemma 4.9).

A *progressive* A-automaton has its maximal strongly connected components
arranged in a chain ``C1, ..., Ch`` (exactly one transition between
consecutive components), the initial state in ``C1`` and all accepting
states in ``Ch``; within an SCC the post-condition type is constant, and
SCC-crossing transitions may only use constant bindings.  Lemma 4.9 shows
that every A-automaton is equivalent (for emptiness) to a union of
polynomially-sized progressive automata, exponentially many in the worst
case.

This module provides:

* Tarjan-style SCC computation over the automaton's state graph;
* :func:`scc_chain` — the condensation of the automaton, topologically
  ordered, with a flag telling whether it already forms a chain;
* :func:`is_progressive` — a checker for the syntactic conditions of
  Definition 4.8 that we can verify structurally (chain shape, placement of
  initial/accepting states, constant bindings on crossing transitions);
* :func:`chain_restrictions` — the decomposition step of Lemma 4.9 used by
  the emptiness procedure: every accepting run visits a chain of SCCs of
  the condensation, so emptiness of the automaton reduces to emptiness of
  the (boundedly many) restrictions of the automaton to maximal
  source-to-accepting chains in the condensation DAG.  A chain whose
  components are a proper subset of another chain's, ending at the same
  component, is *subsumed*: its restriction is a sub-automaton of the
  other's, so it is dropped.  On the emptiness quotient
  (:meth:`~repro.automata.aautomaton.AAutomaton.minimise`), where every
  accepting state but the initial one is a sink, this removes each
  direct exit a longer chain through a loop also takes — a union
  automaton keeps one chain per branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.automata.aautomaton import AAutomaton, ATransition
from repro.queries.terms import Variable


def strongly_connected_components(automaton: AAutomaton) -> List[FrozenSet[str]]:
    """Tarjan's algorithm over the automaton's state graph.

    Returns the SCCs in reverse topological order (standard Tarjan output
    order); use :func:`scc_chain` for a topologically sorted condensation.
    """
    graph: Dict[str, List[str]] = {state: [] for state in automaton.states}
    for transition in automaton.transitions:
        graph[transition.source].append(transition.target)

    index_counter = [0]
    stack: List[str] = []
    lowlink: Dict[str, int] = {}
    index: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    components: List[FrozenSet[str]] = []

    def strongconnect(node: str) -> None:
        # Iterative Tarjan to avoid recursion limits on large automata.
        work = [(node, iter(graph[node]))]
        index[node] = lowlink[node] = index_counter[0]
        index_counter[0] += 1
        stack.append(node)
        on_stack[node] = True
        while work:
            current, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index:
                    index[successor] = lowlink[successor] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack[successor] = True
                    work.append((successor, iter(graph[successor])))
                    advanced = True
                    break
                if on_stack.get(successor):
                    lowlink[current] = min(lowlink[current], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])
            if lowlink[current] == index[current]:
                component: Set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.add(member)
                    if member == current:
                        break
                components.append(frozenset(component))

    for state in automaton.states:
        if state not in index:
            strongconnect(state)
    return components


@dataclass(frozen=True)
class Condensation:
    """The condensation (SCC DAG) of an A-automaton."""

    components: Tuple[FrozenSet[str], ...]
    edges: Tuple[Tuple[int, int], ...]

    def component_of(self, state: str) -> int:
        """Index of the component containing *state*."""
        for idx, component in enumerate(self.components):
            if state in component:
                return idx
        raise KeyError(state)

    @property
    def is_chain(self) -> bool:
        """Whether the condensation is a single path ``C1 → C2 → ... → Ch``."""
        n = len(self.components)
        if n <= 1:
            return True
        out_degree = [0] * n
        in_degree = [0] * n
        for source, target in self.edges:
            out_degree[source] += 1
            in_degree[target] += 1
        starts = [i for i in range(n) if in_degree[i] == 0]
        ends = [i for i in range(n) if out_degree[i] == 0]
        if len(starts) != 1 or len(ends) != 1:
            return False
        return all(d <= 1 for d in out_degree) and all(d <= 1 for d in in_degree)


def scc_chain(automaton: AAutomaton) -> Condensation:
    """The condensation of the automaton, with components topologically ordered."""
    components = strongly_connected_components(automaton)
    component_index = {
        state: idx for idx, component in enumerate(components) for state in component
    }
    edge_set: Set[Tuple[int, int]] = set()
    for transition in automaton.transitions:
        src = component_index[transition.source]
        dst = component_index[transition.target]
        if src != dst:
            edge_set.add((src, dst))

    # Topological sort of the condensation DAG.
    order: List[int] = []
    visited: Dict[int, int] = {}

    def visit(node: int) -> None:
        if visited.get(node) == 2:
            return
        visited[node] = 1
        for src, dst in edge_set:
            if src == node:
                visit(dst)
        visited[node] = 2
        order.append(node)

    for node in range(len(components)):
        visit(node)
    order.reverse()

    renumber = {old: new for new, old in enumerate(order)}
    ordered_components = tuple(components[old] for old in order)
    ordered_edges = tuple(
        sorted((renumber[src], renumber[dst]) for src, dst in edge_set)
    )
    return Condensation(components=ordered_components, edges=ordered_edges)


@dataclass(frozen=True)
class ProgressivityReport:
    """Which conditions of Definition 4.8 an automaton satisfies structurally."""

    chain_shaped: bool
    single_crossing_transitions: bool
    initial_in_first: bool
    accepting_in_last: bool
    crossing_bindings_constant: bool
    height: int

    @property
    def progressive(self) -> bool:
        """Whether all checked conditions hold."""
        return (
            self.chain_shaped
            and self.single_crossing_transitions
            and self.initial_in_first
            and self.accepting_in_last
            and self.crossing_bindings_constant
        )


def _guard_binding_uses_variables(transition: ATransition) -> bool:
    """Whether the guard's binding atoms use variables (forbidden when crossing SCCs)."""
    for sentence in transition.guard.positives:
        for disjunct in sentence.query.disjuncts:
            for atom in disjunct.atoms:
                if atom.relation.startswith("IsBind"):
                    if any(isinstance(term, Variable) for term in atom.terms):
                        return True
    return False


def is_progressive(automaton: AAutomaton) -> ProgressivityReport:
    """Check the structural conditions of Definition 4.8.

    Conditions (2) and (4) of the definition (constant post-types within an
    SCC) are semantic conditions on the guards; what we verify here are the
    structural conditions — chain shape (5), placement of the initial and
    accepting states (6), uniqueness of crossing transitions (5) and
    constant bindings on crossing transitions (5) — which is what the
    emptiness decomposition needs.
    """
    condensation = scc_chain(automaton)
    chain = condensation.is_chain
    component_index = {
        state: idx
        for idx, component in enumerate(condensation.components)
        for state in component
    }

    crossing: Dict[Tuple[int, int], List[ATransition]] = {}
    crossing_bindings_ok = True
    for transition in automaton.transitions:
        src = component_index[transition.source]
        dst = component_index[transition.target]
        if src == dst:
            continue
        crossing.setdefault((src, dst), []).append(transition)
        if _guard_binding_uses_variables(transition):
            crossing_bindings_ok = False
    single_crossing = all(len(ts) == 1 for ts in crossing.values())

    initial_component = component_index[automaton.initial]
    initial_in_first = initial_component == 0 or not condensation.components
    accepting_in_last = True
    if automaton.accepting:
        last = len(condensation.components) - 1
        accepting_in_last = all(
            component_index[state] == last for state in automaton.accepting
        )

    return ProgressivityReport(
        chain_shaped=chain,
        single_crossing_transitions=single_crossing,
        initial_in_first=initial_in_first,
        accepting_in_last=accepting_in_last,
        crossing_bindings_constant=crossing_bindings_ok,
        height=len(condensation.components),
    )


def chain_restrictions(automaton: AAutomaton, max_chains: int = 256) -> List[AAutomaton]:
    """The Lemma 4.9 decomposition used for emptiness.

    Every accepting run traverses a chain of SCCs in the condensation DAG,
    from the initial state's component to an accepting component.  For each
    such chain we restrict the automaton to the states of the chain's
    components; the language of the original automaton is empty iff the
    languages of all restrictions are empty.  A restriction keeps every
    transition between its states, so a chain whose components are a
    proper subset of another chain's, ending at the same component,
    accepts a sub-language of that chain's and is dropped (the kept
    chains keep their enumeration order).  The number of chains is at
    most exponential in the automaton size (Lemma 4.9); *max_chains* caps
    the enumeration (before subsumed chains are dropped).
    """
    condensation = scc_chain(automaton)
    component_index = {
        state: idx
        for idx, component in enumerate(condensation.components)
        for state in component
    }
    adjacency: Dict[int, List[int]] = {}
    for src, dst in condensation.edges:
        adjacency.setdefault(src, []).append(dst)

    start = component_index[automaton.initial]
    accepting_components = {component_index[s] for s in automaton.accepting}

    chains: List[Tuple[int, ...]] = []

    def extend(chain: Tuple[int, ...]) -> None:
        if len(chains) >= max_chains:
            return
        last = chain[-1]
        if last in accepting_components:
            chains.append(chain)
        for successor in adjacency.get(last, ()):
            if successor not in chain:
                extend(chain + (successor,))

    extend((start,))
    # A chain whose components are a proper subset of another chain's,
    # ending at the same component, restricts to a sub-automaton of that
    # chain's restriction: its language is contained, so it is dropped.
    component_sets = [frozenset(chain) for chain in chains]
    chains = [
        chain
        for chain, components in zip(chains, component_sets)
        if not any(
            components < other and chain[-1] == longer[-1]
            for longer, other in zip(chains, component_sets)
        )
    ]

    restrictions: List[AAutomaton] = []
    for chain in chains:
        allowed_states: Set[str] = set()
        for idx in chain:
            allowed_states |= set(condensation.components[idx])
        transitions = [
            t
            for t in automaton.transitions
            if t.source in allowed_states and t.target in allowed_states
        ]
        accepting = [
            s
            for s in automaton.accepting
            if s in allowed_states and component_index[s] == chain[-1]
        ]
        restrictions.append(
            AAutomaton(
                states=sorted(allowed_states),
                initial=automaton.initial,
                accepting=accepting,
                transitions=transitions,
                name=f"{automaton.name or 'A'}|chain{chain}",
            )
        )
    return restrictions
