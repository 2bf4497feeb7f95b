"""Terms: variables and constants appearing in query atoms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.immutable import cached_hash


@cached_hash
@dataclass(frozen=True)
class Variable:
    """A first-order variable, identified by its name."""

    name: str

    def __str__(self) -> str:
        return self.name


@cached_hash
@dataclass(frozen=True)
class Constant:
    """A constant value.

    The wrapped value can be any hashable Python object; equality of
    constants is equality of values.  Constants matter for the paper's
    A-automata (whose guards may use a fixed set of constants ``C``) and
    for the Datalog-containment procedure of Proposition 4.11, which
    explicitly allows constants.
    """

    value: object

    def __str__(self) -> str:
        return repr(self.value)


Term = Union[Variable, Constant]


def var(name: str) -> Variable:
    """Shorthand constructor for a :class:`Variable`."""
    return Variable(name)


def const(value: object) -> Constant:
    """Shorthand constructor for a :class:`Constant`."""
    return Constant(value)


def is_variable(term: Term) -> bool:
    """Whether *term* is a variable."""
    return isinstance(term, Variable)


def is_constant(term: Term) -> bool:
    """Whether *term* is a constant."""
    return isinstance(term, Constant)
