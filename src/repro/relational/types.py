"""Datatypes and domains.

The paper (Section 2) fixes a set ``Types`` of datatypes that contains at
least the integers and the booleans.  Schemas assign a datatype to every
position of every relation.  For finite model search (used by the bounded
reference model checkers, the ΣP2 procedure of Theorem 4.14 and the
workload generators) it is also convenient to have explicitly finite
*enum* domains; the hardness argument for Theorem 4.14 relies on positions
with finite datatypes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple


def is_placeholder(value: object) -> bool:
    """Whether *value* is a labelled-null placeholder.

    Canonical databases, frozen query images and the bounded model checkers
    use string values prefixed with ``"~"`` as labelled nulls standing for
    "some value of the appropriate type".  Placeholders are members of
    every datatype, so typed schemas accept canonical instances.
    """
    return isinstance(value, str) and value.startswith("~")


@dataclass(frozen=True)
class DataType:
    """A named datatype.

    Parameters
    ----------
    name:
        Human readable name of the type (``"int"``, ``"string"`` ...).
    python_types:
        Python types whose values are considered members of the datatype.
        Membership is checked structurally by :meth:`contains`; labelled
        null placeholders (see :func:`is_placeholder`) belong to every type.
    """

    name: str
    python_types: Tuple[type, ...] = (object,)

    def contains(self, value: object) -> bool:
        """Return ``True`` if *value* is a member of this datatype."""
        if is_placeholder(value):
            return True
        if isinstance(value, bool):
            # ``bool`` subclasses ``int``; a boolean belongs only to types
            # that list ``bool`` itself or accept every value.
            return bool in self.python_types or object in self.python_types
        return isinstance(value, self.python_types)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


#: The integer datatype required by the paper.
INT = DataType("int", (int,))

#: The boolean datatype required by the paper.
BOOL = DataType("bool", (bool,))

#: Strings, used pervasively by the web-directory examples.
STRING = DataType("string", (str,))

#: A catch-all datatype accepting any hashable value.
ANY = DataType("any", (object,))


@dataclass(frozen=True)
class Domain:
    """A (possibly infinite) domain of values of a given datatype.

    An unbounded :class:`Domain` simply wraps a :class:`DataType`; use
    :class:`EnumDomain` when the set of possible values is finite and known,
    which enables exhaustive enumeration in the bounded model checkers.
    """

    datatype: DataType = ANY

    @property
    def is_finite(self) -> bool:
        """Whether the domain can be exhaustively enumerated."""
        return False

    def contains(self, value: object) -> bool:
        """Return ``True`` if *value* belongs to the domain."""
        return self.datatype.contains(value)

    def sample(self, count: int) -> Sequence[object]:
        """Return *count* representative values from the domain.

        For unbounded domains we synthesise fresh values; the concrete
        values are irrelevant (the logics only compare for equality), only
        their distinctness matters.
        """
        if self.datatype is INT:
            return list(range(count))
        if self.datatype is BOOL:
            return [False, True][:count]
        return [f"{self.datatype.name}_{i}" for i in range(count)]


@dataclass(frozen=True)
class EnumDomain(Domain):
    """A finite, explicitly enumerated domain.

    Finite datatypes matter for the lower bound of Theorem 4.14 (hardness
    via non-containment of positive queries over enum types) and are handy
    for workload generation.
    """

    values: Tuple[object, ...] = field(default=())

    @property
    def is_finite(self) -> bool:
        return True

    def contains(self, value: object) -> bool:
        return value in self.values

    def sample(self, count: int) -> Sequence[object]:
        return list(self.values[:count])

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def enum_domain(values: Iterable[object], datatype: DataType = ANY) -> EnumDomain:
    """Build an :class:`EnumDomain` from any iterable of values."""
    return EnumDomain(datatype=datatype, values=tuple(values))
