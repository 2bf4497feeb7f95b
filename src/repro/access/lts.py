"""The labelled transition system (LTS) induced by an access schema.

Section 2 of the paper: with a schema and an initial instance ``I0`` we
associate an LTS whose nodes are the instances containing ``I0``, whose
labels are accesses, and with a transition ``(I, AC, I')`` whenever some
response ``r`` to ``AC`` satisfies ``Conf((AC, r), I) = I'``.  Paths through
the LTS correspond one-to-one to access paths.

The LTS is infinite (every access has infinitely many possible responses
over an infinite domain), so this module provides *bounded* exploration:
the caller fixes a finite candidate value pool, a maximal response size and
a depth, and the explorer enumerates the reachable fragment.  This bounded
LTS is what Figure 1 of the paper depicts and what the reference
(bounded-path) model checkers search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.access.methods import Access, AccessMethod, AccessSchema
from repro.access.path import AccessPath, PathStep, conf
from repro.relational.instance import FrozenInstance, Instance
from repro.relational.schema import SchemaError


@dataclass(frozen=True)
class Transition:
    """A transition ``(source, access/response, target)`` of the LTS."""

    source: FrozenInstance
    access: Access
    response: FrozenSet[Tuple[object, ...]]
    target: FrozenInstance

    def as_step(self) -> PathStep:
        """The path step corresponding to this transition."""
        return PathStep(self.access, self.response)


@dataclass
class LabelledTransitionSystem:
    """An explicit (finite fragment of an) LTS.

    Attributes
    ----------
    nodes:
        Frozen instances reachable within the exploration bounds.
    transitions:
        Explicit transitions between them.
    initial:
        The frozen initial instance.
    """

    schema: AccessSchema
    initial: FrozenInstance
    nodes: Set[FrozenInstance] = field(default_factory=set)
    transitions: List[Transition] = field(default_factory=list)

    def successors(self, node: FrozenInstance) -> List[Transition]:
        """Transitions leaving *node*."""
        return [t for t in self.transitions if t.source == node]

    def out_degree(self, node: FrozenInstance) -> int:
        """Number of transitions leaving *node*."""
        return len(self.successors(node))

    def paths(self, max_length: int) -> Iterator[AccessPath]:
        """Enumerate access paths of the explored fragment up to a length."""
        index: Dict[FrozenInstance, List[Transition]] = {}
        for transition in self.transitions:
            index.setdefault(transition.source, []).append(transition)

        def walk(node: FrozenInstance, steps: Tuple[PathStep, ...]) -> Iterator[AccessPath]:
            yield AccessPath(steps)
            if len(steps) >= max_length:
                return
            for transition in index.get(node, ()):
                yield from walk(transition.target, steps + (transition.as_step(),))

        yield from walk(self.initial, ())

    def size(self) -> Tuple[int, int]:
        """``(number of nodes, number of transitions)``."""
        return (len(self.nodes), len(self.transitions))

    def render_tree(self, max_depth: int = 3, max_children: int = 4) -> str:
        """ASCII rendering of the path tree (the shape of Figure 1)."""
        index: Dict[FrozenInstance, List[Transition]] = {}
        for transition in self.transitions:
            index.setdefault(transition.source, []).append(transition)
        lines: List[str] = []

        def describe(node: FrozenInstance) -> str:
            if not node:
                return "Known Facts = ∅"
            facts = ", ".join(
                f"{name}{tup!r}" for name, tup in sorted(node, key=repr)
            )
            return f"Known Facts = {{{facts}}}"

        def walk(node: FrozenInstance, depth: int, prefix: str) -> None:
            if depth > max_depth:
                return
            children = index.get(node, [])[:max_children]
            for child in children:
                lines.append(
                    f"{prefix}--[{child.access}]--> {describe(child.target)}"
                )
                walk(child.target, depth + 1, prefix + "    ")

        lines.append(describe(self.initial))
        walk(self.initial, 1, "  ")
        return "\n".join(lines)


def candidate_bindings(
    method: AccessMethod,
    value_pool: Sequence[object],
    grounded_values: Optional[FrozenSet[object]] = None,
) -> Iterator[Tuple[object, ...]]:
    """Enumerate candidate bindings for a method from a value pool.

    When *grounded_values* is given only bindings over those values are
    produced (the grounded restriction of the LTS).
    """
    pool: Sequence[object]
    if grounded_values is not None:
        pool = [v for v in value_pool if v in grounded_values]
    else:
        pool = list(value_pool)
    if method.num_inputs == 0:
        yield ()
        return
    for combo in itertools.product(pool, repeat=method.num_inputs):
        yield combo


def candidate_responses(
    access: Access,
    hidden_instance: Optional[Instance],
    value_pool: Sequence[object],
    relation,
    max_response_size: int,
    exact: bool,
) -> Iterator[FrozenSet[Tuple[object, ...]]]:
    """Enumerate candidate well-formed responses to an access.

    If a *hidden_instance* is supplied, responses are subsets of the
    matching tuples of that instance (all of them when *exact*); otherwise
    responses are built from the value pool (skipping combinations that are
    ill-typed for the relation), bounded by *max_response_size*.
    """
    if hidden_instance is not None:
        matching = sorted(
            (
                tup
                for tup in hidden_instance.tuples(access.relation)
                if access.matches(tup)
            ),
            key=repr,
        )
        if exact:
            yield frozenset(matching)
            return
        for size in range(0, min(len(matching), max_response_size) + 1):
            for subset in itertools.combinations(matching, size):
                yield frozenset(subset)
        return

    arity = relation.arity
    binding_map = access.binding_map()
    free_positions = [i for i in range(arity) if i not in binding_map]
    candidate_tuples = []
    for combo in itertools.product(value_pool, repeat=len(free_positions)):
        values: List[object] = [None] * arity
        for position, value in binding_map.items():
            values[position] = value
        for position, value in zip(free_positions, combo):
            values[position] = value
        try:
            candidate_tuples.append(relation.validate_tuple(tuple(values)))
        except SchemaError:
            continue  # ill-typed for the relation: not a candidate response
    for size in range(0, max_response_size + 1):
        for subset in itertools.combinations(candidate_tuples, size):
            yield frozenset(subset)


def explore(
    schema: AccessSchema,
    initial: Optional[Instance] = None,
    hidden_instance: Optional[Instance] = None,
    value_pool: Optional[Sequence[object]] = None,
    max_depth: int = 2,
    max_response_size: int = 1,
    grounded_only: bool = False,
    max_nodes: int = 2000,
    transition_filter: Optional[Callable[[Transition], bool]] = None,
) -> LabelledTransitionSystem:
    """Bounded exploration of the LTS of *schema*.

    Parameters
    ----------
    initial:
        Initial instance ``I0`` (empty by default).
    hidden_instance:
        If given, responses are drawn from this instance (the "real" hidden
        web source); otherwise responses are synthesised from the value pool.
    value_pool:
        Candidate values for bindings and synthesised responses.  Defaults
        to the active domain of the hidden/initial instance, or a small
        symbolic pool.
    max_depth:
        Maximal path length explored.
    max_response_size:
        Maximal number of tuples in a synthesised response.
    grounded_only:
        Restrict to grounded accesses (binding values already known).
    max_nodes:
        Safety cap on the number of explored nodes.
    transition_filter:
        Optional predicate to prune transitions (used to impose access-order
        or dataflow restrictions directly on the LTS).
    """
    if initial is None:
        initial = schema.empty_instance()
    if value_pool is None:
        pool: Set[object] = set(initial.active_domain())
        if hidden_instance is not None:
            pool |= set(hidden_instance.active_domain())
        if not pool:
            pool = {f"v{i}" for i in range(2)}
        value_pool = sorted(pool, key=repr)

    lts = LabelledTransitionSystem(schema=schema, initial=initial.freeze())
    lts.nodes.add(lts.initial)

    frontier: List[Tuple[FrozenInstance, int]] = [(lts.initial, 0)]
    seen_edges: Set[Tuple[FrozenInstance, str, Tuple[object, ...], FrozenSet]] = set()

    while frontier:
        node, depth = frontier.pop(0)
        if depth >= max_depth or len(lts.nodes) >= max_nodes:
            continue
        current = Instance.from_frozen(schema.schema, node)
        known_values = frozenset(current.active_domain()) if grounded_only else None
        for method in schema:
            relation = schema.schema.relation(method.relation)
            for binding in candidate_bindings(method, value_pool, known_values):
                access = Access(method, binding)
                for response in candidate_responses(
                    access,
                    hidden_instance,
                    value_pool,
                    relation,
                    max_response_size,
                    exact=method.exact,
                ):
                    target_instance = conf(
                        AccessPath((PathStep(access, response),)), current
                    )
                    target = target_instance.freeze()
                    edge_key = (node, method.name, binding, response)
                    if edge_key in seen_edges:
                        continue
                    seen_edges.add(edge_key)
                    transition = Transition(node, access, response, target)
                    if transition_filter is not None and not transition_filter(transition):
                        continue
                    lts.transitions.append(transition)
                    if target not in lts.nodes:
                        lts.nodes.add(target)
                        frontier.append((target, depth + 1))
                    if len(lts.nodes) >= max_nodes:
                        break
                if len(lts.nodes) >= max_nodes:
                    break
            if len(lts.nodes) >= max_nodes:
                break
    return lts
