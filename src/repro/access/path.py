"""Access paths: sequences of accesses and well-formed responses.

Definitions from Section 2 of the paper:

* A **well-formed response** to an access ``(AcM, b̄)`` on an instance ``I``
  is any set of tuples of the relation of ``AcM`` compatible with ``b̄`` on
  the input positions.
* An **access path** is a sequence of accesses and responses; every such
  sequence is an access path *for some* instance (the one containing all
  returned tuples).
* ``Conf(p, I0)`` is the configuration reached by path ``p`` from an
  initial instance ``I0``: each relation holds the initial tuples plus all
  tuples returned by accesses to it.
* Sanity conditions: a path is **idempotent** if repeated identical
  accesses return identical responses; **exact** (for a set ``S`` of
  methods) if there is an instance on which every access through a method
  in ``S`` returns exactly the matching tuples; **grounded** in ``I0`` if
  every binding value was previously known (in ``I0`` or in an earlier
  response).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Container, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.access.methods import Access, AccessMethod, AccessSchema
from repro.relational.instance import Fact, Instance
from repro.relational.schema import SchemaError

Response = FrozenSet[Tuple[object, ...]]


@dataclass(frozen=True)
class PathStep:
    """One step of an access path: an access and its response."""

    access: Access
    response: Response

    def __post_init__(self) -> None:
        object.__setattr__(self, "response", frozenset(
            tuple(tup) for tup in self.response
        ))
        for tup in self.response:
            if not self.access.matches(tup):
                raise SchemaError(
                    f"response tuple {tup!r} does not match the binding of {self.access}"
                )

    @property
    def relation(self) -> str:
        return self.access.relation

    @property
    def method(self) -> AccessMethod:
        return self.access.method

    def returned_values(self) -> FrozenSet[object]:
        """All values occurring in the response."""
        values: Set[object] = set()
        for tup in self.response:
            values.update(tup)
        return frozenset(values)

    def __str__(self) -> str:
        return f"{self.access} -> {{{', '.join(map(repr, sorted(self.response, key=repr)))}}}"


@dataclass(frozen=True)
class AccessPath:
    """An access path: a finite sequence of :class:`PathStep`."""

    steps: Tuple[PathStep, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[PathStep]:
        return iter(self.steps)

    def __getitem__(self, index):
        return self.steps[index]

    @property
    def is_empty(self) -> bool:
        return not self.steps

    def append(self, step: PathStep) -> "AccessPath":
        """A new path with *step* appended."""
        return AccessPath(self.steps + (step,))

    def prefix(self, length: int) -> "AccessPath":
        """The prefix of the given length."""
        return AccessPath(self.steps[:length])

    def drop_first(self) -> "AccessPath":
        """The path with its first step removed (used by the LTR definition)."""
        return AccessPath(self.steps[1:])

    def accesses(self) -> List[Access]:
        """The sequence of accesses along the path."""
        return [step.access for step in self.steps]

    def methods_used(self) -> FrozenSet[str]:
        """Names of access methods used anywhere in the path."""
        return frozenset(step.method.name for step in self.steps)

    def __str__(self) -> str:
        return " ; ".join(str(step) for step in self.steps)


def path_from_pairs(
    schema: AccessSchema,
    pairs: Iterable[Tuple[str, Sequence[object], Iterable[Sequence[object]]]],
) -> AccessPath:
    """Build a path from ``(method_name, binding, response_tuples)`` triples."""
    steps = []
    for method_name, binding, response in pairs:
        access = schema.access(method_name, binding)
        steps.append(PathStep(access, frozenset(tuple(t) for t in response)))
    return AccessPath(tuple(steps))


# ----------------------------------------------------------------------
# Configurations
# ----------------------------------------------------------------------
def conf(path: AccessPath, initial: Instance) -> Instance:
    """``Conf(p, I0)``: the configuration resulting from *path* on *initial*.

    The deep copy is deliberate: this is the witness *replay* path (one
    call per path, not per search node — the searches themselves run on
    :mod:`repro.store.snapshot` snapshots) and the caller owns the
    returned instance, mutations included.
    """
    result = initial.copy()
    for step in path:
        for tup in step.response:
            result.add(step.relation, tup)
    return result


def configurations(path: AccessPath, initial: Instance) -> List[Instance]:
    """The sequence ``I0, I1, ..., In`` of configurations along the path.

    Like :func:`conf`, this replays a single concrete path for
    verification/reporting, so the per-step deep copies are O(n·|p|) once
    per path — acceptable where an in-search copy would not be.
    """
    result = [initial.copy()]
    for step in path:
        nxt = result[-1].copy()
        for tup in step.response:
            nxt.add(step.relation, tup)
        result.append(nxt)
    return result


# ----------------------------------------------------------------------
# Well-formedness and sanity conditions
# ----------------------------------------------------------------------
def well_formed_response(
    access: Access, response: Iterable[Sequence[object]]
) -> bool:
    """Whether *response* is a well-formed output for *access*."""
    return all(access.matches(tuple(tup)) for tup in response)


def is_idempotent(path: AccessPath) -> bool:
    """Whether repeated identical accesses always return identical responses."""
    seen: Dict[Tuple[str, Tuple[object, ...]], Response] = {}
    for step in path:
        key = (step.method.name, step.access.binding)
        if key in seen and seen[key] != step.response:
            return False
        seen.setdefault(key, step.response)
    return True


def is_exact_for(
    path: AccessPath,
    methods: Iterable[str],
    initial: Optional[Instance] = None,
    schema: Optional[AccessSchema] = None,
) -> bool:
    """Whether the path is S-exact for the given set of methods.

    A path is S-exact if there exists an instance ``I`` such that every
    access through a method in S returns exactly the matching tuples of
    ``I``.  The *least* candidate instance is the final configuration of
    the path (every returned tuple must be in ``I``); exactness for S then
    requires that no later response through an S-method reveals a matching
    tuple that an earlier S-access failed to return.  We check the final
    configuration as the canonical witness, which is sound and complete:
    if any instance works, the final configuration (restricted to returned
    facts plus the initial instance) works too, because adding tuples can
    only break exactness of accesses that failed to return them.
    """
    method_set = set(methods)
    if schema is None and initial is None:
        raise ValueError("is_exact_for needs either a schema or an initial instance")
    if initial is None:
        initial = schema.empty_instance()
    final = conf(path, initial)
    for step in path:
        if step.method.name not in method_set:
            continue
        expected = frozenset(
            tup for tup in final.tuples(step.relation) if step.access.matches(tup)
        )
        if step.response != expected:
            return False
    return True


def is_exact(path: AccessPath, initial: Optional[Instance] = None,
             schema: Optional[AccessSchema] = None) -> bool:
    """Whether the path is exact for *all* its methods."""
    return is_exact_for(path, path.methods_used(), initial=initial, schema=schema)


def is_grounded(path: AccessPath, initial: Instance) -> bool:
    """Whether every binding value was previously known.

    A value is "known" at step *i* if it occurs in the initial instance or
    in the response of some earlier step ``j < i``.
    """
    return grounded_prefix_length(path, initial) == len(path)


def grounded_prefix_length(
    path: AccessPath, initial: Instance, seeded: Iterable[object] = ()
) -> int:
    """Length of the longest grounded prefix of the path.

    The *seeded* values count as known from the start, as the values of
    *initial* do.
    """
    known: Set[object] = set(initial.active_domain()).union(seeded)
    for index, step in enumerate(path):
        for value in step.access.binding:
            if value not in known:
                return index
        known |= step.returned_values()
    return len(path)


def revealing_steps(
    schema: AccessSchema,
    facts: Iterable[Fact],
    known: Iterable[object],
    grounded: bool,
    configuration: Container[Fact],
) -> Optional[List[PathStep]]:
    """Steps revealing every fact of *facts* not already in *configuration*.

    Each step accesses one fact's tuple through the first usable method of
    its relation and responds with that tuple alone.  Over general
    accesses any binding may be guessed, so every method is usable.  Over
    grounded accesses a method is usable once its input values are all
    known: *known* at the start, growing with every revealed fact.  The
    facts are revealed in greedy passes over the list until a pass reveals
    nothing; the greedy order is complete because revealing a fact never
    removes knowledge.  ``None`` when some fact cannot be revealed.
    """
    known_values: Set[object] = set(known)
    remaining = [fact for fact in facts if fact not in configuration]
    steps: List[PathStep] = []
    progress = True
    while remaining and progress:
        pending: List[Fact] = []
        for fact in remaining:
            relation, tup = fact
            for method in schema.methods_for(relation):
                binding = tuple(tup[i] for i in method.input_positions)
                if grounded and not all(value in known_values for value in binding):
                    continue
                steps.append(PathStep(Access(method, binding), frozenset({tup})))
                known_values.update(tup)
                break
            else:
                pending.append(fact)
        progress = len(pending) < len(remaining)
        remaining = pending
    return None if remaining else steps


def satisfies_sanity_conditions(
    path: AccessPath,
    schema: AccessSchema,
    initial: Optional[Instance] = None,
    require_grounded: bool = False,
) -> bool:
    """Check the schema-prescribed sanity conditions on a path.

    Idempotent methods must behave idempotently, exact methods exactly, and
    (optionally) the path must be grounded in the initial instance.
    """
    if initial is None:
        initial = schema.empty_instance()
    idempotent_methods = schema.idempotent_methods()
    if idempotent_methods:
        seen: Dict[Tuple[str, Tuple[object, ...]], Response] = {}
        for step in path:
            if step.method.name not in idempotent_methods:
                continue
            key = (step.method.name, step.access.binding)
            if key in seen and seen[key] != step.response:
                return False
            seen.setdefault(key, step.response)
    exact_methods = schema.exact_methods()
    if exact_methods and not is_exact_for(path, exact_methods, initial=initial):
        return False
    if require_grounded and not is_grounded(path, initial):
        return False
    return True


def values_revealed(path: AccessPath, initial: Instance) -> FrozenSet[object]:
    """All values known after the path (initial values plus responses)."""
    values: Set[object] = set(initial.active_domain())
    for step in path:
        values |= step.returned_values()
    return frozenset(values)
