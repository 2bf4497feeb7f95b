"""Access methods, accesses and access schemas.

An **access method** (Section 2) is a relation plus a set of *input
positions*: the user must supply values for the input positions and
receives all matching tuples.  A **boolean access method** has every
position as input — it is a membership test.  An **access** is an access
method together with a *binding* for the input positions.

An :class:`AccessSchema` bundles a relational schema with its access
methods and the per-method sanity flags (exact / idempotent) that the paper
allows schemas to prescribe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.immutable import cached_hash
from repro.relational.instance import Instance
from repro.relational.schema import Schema, SchemaError


@cached_hash
@dataclass(frozen=True)
class AccessMethod:
    """An access method on a relation.

    Parameters
    ----------
    name:
        Method name (e.g. ``"AcM1"``), unique within an access schema.
    relation:
        Name of the relation the method accesses.
    input_positions:
        0-based positions that must be bound when using the method.
    exact:
        Whether responses through this method are required to be *exact*
        (sound and complete views of the underlying instance).
    idempotent:
        Whether repeating the same access must return the same response.
        Exact methods are idempotent by definition.
    """

    name: str
    relation: str
    input_positions: Tuple[int, ...]
    exact: bool = False
    idempotent: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "input_positions", tuple(sorted(set(self.input_positions)))
        )
        if self.exact and not self.idempotent:
            object.__setattr__(self, "idempotent", True)

    @property
    def num_inputs(self) -> int:
        """Number of input positions (the arity of ``IsBind_AcM``)."""
        return len(self.input_positions)

    def is_boolean(self, schema: Schema) -> bool:
        """Whether every position of the relation is an input position."""
        return self.num_inputs == schema.arity(self.relation)

    def is_input_free(self) -> bool:
        """Whether the method has no input positions (a full scan)."""
        return not self.input_positions

    def output_positions(self, schema: Schema) -> Tuple[int, ...]:
        """Positions that are not inputs."""
        return tuple(
            i for i in range(schema.arity(self.relation)) if i not in self.input_positions
        )

    def __str__(self) -> str:
        inputs = ",".join(str(i) for i in self.input_positions)
        return f"{self.name}[{self.relation}; in={{{inputs}}}]"


@cached_hash
@dataclass(frozen=True)
class Access:
    """An access: a method plus a binding for its input positions.

    The binding is stored as a tuple of values in the order of the method's
    (sorted) input positions.
    """

    method: AccessMethod
    binding: Tuple[object, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "binding", tuple(self.binding))
        if len(self.binding) != self.method.num_inputs:
            raise SchemaError(
                f"access to {self.method.name} expects {self.method.num_inputs} "
                f"binding values, got {len(self.binding)}"
            )

    @property
    def relation(self) -> str:
        """The relation being accessed."""
        return self.method.relation

    def binding_map(self) -> Dict[int, object]:
        """The binding as a ``{position: value}`` mapping."""
        return dict(zip(self.method.input_positions, self.binding))

    def matches(self, tup: Sequence[object]) -> bool:
        """Whether *tup* agrees with the binding on the input positions."""
        for position, value in zip(self.method.input_positions, self.binding):
            if tup[position] != value:
                return False
        return True

    def binding_values(self) -> FrozenSet[object]:
        """The set of values used in the binding."""
        return frozenset(self.binding)

    def __str__(self) -> str:
        parts = []
        mapping = self.binding_map()
        arity = max(
            [p + 1 for p in self.method.input_positions], default=0
        )
        for position in range(arity):
            if position in mapping:
                parts.append(repr(mapping[position]))
            else:
                parts.append("?")
        return f"{self.method.name}:{self.relation}({', '.join(parts)})"


@dataclass
class AccessSchema:
    """A relational schema together with its access methods.

    This is the "schema with access restrictions" the paper verifies
    properties of.  It also optionally carries an *initial instance* ``I0``
    (the initially known facts) and a set of integrity constraints used by
    the constraint-aware analyses.
    """

    schema: Schema
    methods: Dict[str, AccessMethod] = field(default_factory=dict)

    def __init__(
        self,
        schema: Schema,
        methods: Iterable[AccessMethod] = (),
    ) -> None:
        self.schema = schema
        self.methods = {}
        for method in methods:
            self.add_method(method)

    def add_method(self, method: AccessMethod) -> AccessMethod:
        """Register an access method, validating it against the schema."""
        if method.name in self.methods:
            raise SchemaError(f"duplicate access method name {method.name!r}")
        relation = self.schema.relation(method.relation)
        for position in method.input_positions:
            if position < 0 or position >= relation.arity:
                raise SchemaError(
                    f"access method {method.name}: input position {position} out of "
                    f"range for {relation}"
                )
        self.methods[method.name] = method
        return method

    def add(
        self,
        name: str,
        relation: str,
        input_positions: Sequence[int],
        exact: bool = False,
        idempotent: bool = False,
    ) -> AccessMethod:
        """Convenience constructor-and-register for an access method."""
        return self.add_method(
            AccessMethod(name, relation, tuple(input_positions), exact, idempotent)
        )

    def method(self, name: str) -> AccessMethod:
        """Return the method named *name*."""
        try:
            return self.methods[name]
        except KeyError:
            raise SchemaError(f"unknown access method {name!r}") from None

    def methods_for(self, relation: str) -> List[AccessMethod]:
        """All methods accessing *relation*."""
        return [m for m in self.methods.values() if m.relation == relation]

    def exact_methods(self) -> FrozenSet[str]:
        """Names of methods declared exact."""
        return frozenset(name for name, m in self.methods.items() if m.exact)

    def idempotent_methods(self) -> FrozenSet[str]:
        """Names of methods declared idempotent (includes exact methods)."""
        return frozenset(name for name, m in self.methods.items() if m.idempotent)

    def access(self, method_name: str, binding: Sequence[object]) -> Access:
        """Build an access through the named method."""
        return Access(self.method(method_name), tuple(binding))

    def __iter__(self):
        return iter(self.methods.values())

    def __len__(self) -> int:
        return len(self.methods)

    def __contains__(self, name: str) -> bool:
        return name in self.methods

    def empty_instance(self) -> Instance:
        """A fresh empty instance over the underlying relational schema."""
        return Instance(self.schema)

    def __str__(self) -> str:
        return (
            "AccessSchema("
            + str(self.schema)
            + "; "
            + ", ".join(str(m) for m in self.methods.values())
            + ")"
        )


def respond(
    access: Access, hidden_instance: Instance, exact: bool = True
) -> FrozenSet[Tuple[object, ...]]:
    """The response of a *hidden* instance to an access.

    When *exact* is true the response is the set of **all** matching tuples
    (the exact semantics); otherwise callers may subset it to model
    non-exact sources (see :func:`repro.access.path.well_formed_response`).
    """
    matching = frozenset(
        tup
        for tup in hidden_instance.tuples(access.relation)
        if access.matches(tup)
    )
    return matching
