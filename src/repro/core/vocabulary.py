"""The access vocabulary ``SchAcc`` and its 0-ary restriction ``Sch0-Acc``.

Section 2 of the paper: for a schema ``Sch``, the vocabulary ``SchAcc``
contains two copies ``R_pre`` and ``R_post`` of every schema relation
``R``, plus a predicate ``IsBind_AcM`` for every access method, whose arity
is the number of input positions of the method.  The restricted vocabulary
``Sch0-Acc`` (Section 4.2) replaces the ``IsBind_AcM`` predicates by 0-ary
propositions recording only *which* method was used.

This module fixes the naming conventions used throughout the library and
builds the corresponding relational :class:`~repro.relational.schema.Schema`
objects.  We include both the n-ary and the 0-ary binding predicates in a
single combined schema so that one transition structure serves formulas of
either vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List

from repro.access.methods import AccessSchema
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq
from repro.relational.schema import Relation, Schema

PRE_SUFFIX = "__pre"
POST_SUFFIX = "__post"
ISBIND_PREFIX = "IsBind__"
ISBIND0_PREFIX = "IsBind0__"


def pre_name(relation: str) -> str:
    """Name of the pre-access copy of a relation."""
    return relation + PRE_SUFFIX


def post_name(relation: str) -> str:
    """Name of the post-access copy of a relation."""
    return relation + POST_SUFFIX


def isbind_name(method: str) -> str:
    """Name of the n-ary binding predicate of an access method."""
    return ISBIND_PREFIX + method


def isbind0_name(method: str) -> str:
    """Name of the 0-ary binding predicate of an access method."""
    return ISBIND0_PREFIX + method


def base_relation_of(vocabulary_name: str) -> str:
    """Invert :func:`pre_name` / :func:`post_name` (raises if neither)."""
    if vocabulary_name.endswith(PRE_SUFFIX):
        return vocabulary_name[: -len(PRE_SUFFIX)]
    if vocabulary_name.endswith(POST_SUFFIX):
        return vocabulary_name[: -len(POST_SUFFIX)]
    raise ValueError(f"{vocabulary_name!r} is not a pre/post relation name")


def is_pre(name: str) -> bool:
    """Whether *name* is a pre-copy relation name."""
    return name.endswith(PRE_SUFFIX)


def is_post(name: str) -> bool:
    """Whether *name* is a post-copy relation name."""
    return name.endswith(POST_SUFFIX)


def is_isbind(name: str) -> bool:
    """Whether *name* is an n-ary binding predicate name."""
    return name.startswith(ISBIND_PREFIX)


def is_isbind0(name: str) -> bool:
    """Whether *name* is a 0-ary binding predicate name."""
    return name.startswith(ISBIND0_PREFIX)


def method_of_isbind(name: str) -> str:
    """The access-method name of a binding predicate name (either arity)."""
    if is_isbind0(name):
        return name[len(ISBIND0_PREFIX):]
    if is_isbind(name):
        return name[len(ISBIND_PREFIX):]
    raise ValueError(f"{name!r} is not a binding predicate name")


@dataclass(frozen=True)
class AccessVocabulary:
    """The combined access vocabulary of an access schema.

    Attributes
    ----------
    access_schema:
        The underlying schema with access methods.
    schema:
        Relational schema containing ``R_pre``/``R_post`` for every relation
        plus n-ary and 0-ary binding predicates for every method.
    """

    access_schema: AccessSchema
    schema: Schema

    @classmethod
    def of(cls, access_schema: AccessSchema) -> "AccessVocabulary":
        """Build the combined vocabulary of *access_schema*."""
        relations: List[Relation] = []
        for relation in access_schema.schema:
            relations.append(Relation(pre_name(relation.name), relation.arity))
            relations.append(Relation(post_name(relation.name), relation.arity))
        for method in access_schema:
            relations.append(Relation(isbind_name(method.name), method.num_inputs))
            relations.append(Relation(isbind0_name(method.name), 0))
        return cls(access_schema=access_schema, schema=Schema(relations))

    # ------------------------------------------------------------------
    def pre_renaming(self) -> Dict[str, str]:
        """Mapping from base relation names to their pre-copies."""
        return {rel.name: pre_name(rel.name) for rel in self.access_schema.schema}

    def post_renaming(self) -> Dict[str, str]:
        """Mapping from base relation names to their post-copies."""
        return {rel.name: post_name(rel.name) for rel in self.access_schema.schema}

    def query_pre(self, query) -> UnionOfConjunctiveQueries:
        """``Q^pre``: the query with every schema predicate replaced by its pre-copy."""
        return as_ucq(query).rename_relations(self.pre_renaming())

    def query_post(self, query) -> UnionOfConjunctiveQueries:
        """``Q^post``: the query with every schema predicate replaced by its post-copy."""
        return as_ucq(query).rename_relations(self.post_renaming())

    def binding_relations(self) -> FrozenSet[str]:
        """Names of all n-ary binding predicates."""
        return frozenset(isbind_name(m.name) for m in self.access_schema)

    def binding0_relations(self) -> FrozenSet[str]:
        """Names of all 0-ary binding predicates."""
        return frozenset(isbind0_name(m.name) for m in self.access_schema)

    def mentions_nary_binding(self, query) -> bool:
        """Whether a (U)CQ over the vocabulary uses an n-ary binding predicate."""
        return bool(as_ucq(query).relations() & self.binding_relations())

    def mentions_binding(self, query) -> bool:
        """Whether a (U)CQ uses any binding predicate (n-ary or 0-ary)."""
        relations = as_ucq(query).relations()
        return bool(
            relations & (self.binding_relations() | self.binding0_relations())
        )
