"""The web telephone-directory example of the paper's introduction.

Relations (Section 1):

* ``Mobile#(name, postcode, street, phoneno)`` with access method ``AcM1``
  whose sole input position is the customer name;
* ``Address(street, postcode, name, houseno)`` with access method ``AcM2``
  whose inputs are the street name and postcode.

The module also provides the queries discussed in the introduction (the
unanswerable "address of Jones" query and an answerable variant), a small
hidden instance used to draw Figure 1's tree of possible paths, and the
corresponding access vocabulary.
"""

from __future__ import annotations


from repro.access.methods import AccessSchema
from repro.core.vocabulary import AccessVocabulary
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_cq
from repro.relational.instance import Instance
from repro.relational.schema import Relation, Schema
from repro.relational.types import STRING, INT

MOBILE = "Mobile"
ADDRESS = "Address"


def directory_schema() -> Schema:
    """The two-relation directory schema."""
    return Schema(
        [
            Relation(MOBILE, 4, (STRING, STRING, STRING, INT)),
            Relation(ADDRESS, 4, (STRING, STRING, STRING, INT)),
        ]
    )


def directory_access_schema(
    mobile_exact: bool = False, address_exact: bool = False
) -> AccessSchema:
    """The directory schema with the paper's two access methods.

    ``AcM1`` binds the name position of ``Mobile``; ``AcM2`` binds the
    street and postcode positions of ``Address``.  The exactness flags
    model "canonical" sources (e.g. a trusted government form).
    """
    access_schema = AccessSchema(directory_schema())
    access_schema.add("AcM1", MOBILE, (0,), exact=mobile_exact)
    access_schema.add("AcM2", ADDRESS, (0, 1), exact=address_exact)
    return access_schema


def directory_vocabulary(
    mobile_exact: bool = False, address_exact: bool = False
) -> AccessVocabulary:
    """The access vocabulary of the directory schema."""
    return AccessVocabulary.of(
        directory_access_schema(mobile_exact=mobile_exact, address_exact=address_exact)
    )


def directory_hidden_instance(size: str = "small") -> Instance:
    """A hidden directory instance.

    ``size`` is ``"small"`` (the handful of tuples behind Figure 1),
    ``"medium"`` or ``"large"`` (grown deterministically for benchmarks).
    """
    instance = Instance(directory_schema())
    base_mobile = [
        ("Smith", "OX13QD", "Parks Rd", 5551212),
        ("Jones", "OX26NN", "Banbury Rd", 5553434),
        ("Patel", "OX13QD", "Parks Rd", 5559876),
    ]
    base_address = [
        ("Parks Rd", "OX13QD", "Smith", 13),
        ("Parks Rd", "OX13QD", "Jones", 16),
        ("Banbury Rd", "OX26NN", "Jones", 101),
        ("Banbury Rd", "OX26NN", "Novak", 99),
        # A street no mobile customer lives on: unreachable through the
        # access methods unless its street/postcode are known up front, so
        # the Jones query of the introduction is not fully answerable.
        ("Hidden Lane", "OX99ZZ", "Jones", 7),
    ]
    instance.add_all(MOBILE, base_mobile)
    instance.add_all(ADDRESS, base_address)
    if size == "small":
        return instance
    scale = {"medium": 10, "large": 40}.get(size)
    if scale is None:
        raise ValueError(f"unknown size {size!r}")
    for index in range(scale):
        name = f"Person{index}"
        street = f"Street{index % 7}"
        postcode = f"OX{index % 5}AA"
        instance.add(MOBILE, (name, postcode, street, 5000000 + index))
        instance.add(ADDRESS, (street, postcode, name, index))
        if index % 3 == 0:
            instance.add(ADDRESS, (street, postcode, f"Resident{index}", 200 + index))
    return instance


def jones_address_query() -> ConjunctiveQuery:
    """``Address(X, Y, "Jones", Z)`` — not answerable under the access methods."""
    return parse_cq('Q(x, y, z) :- Address(x, y, "Jones", z)')


def smith_phone_query() -> ConjunctiveQuery:
    """The phone number of Smith — answerable, since AcM1 binds the name."""
    return parse_cq('Q(p) :- Mobile("Smith", pc, s, p)')


def join_query() -> ConjunctiveQuery:
    """Names whose mobile street/postcode also appears in the Address table."""
    return parse_cq("Q(n) :- Mobile(n, pc, s, p), Address(s, pc, n2, h)")


def resident_names_query() -> ConjunctiveQuery:
    """All resident names listed in the Address table."""
    return parse_cq("Q(n) :- Address(s, pc, n, h)")
