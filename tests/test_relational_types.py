"""Tests for repro.relational.types."""

import pytest

from repro.relational.types import (
    ANY,
    BOOL,
    INT,
    STRING,
    DataType,
    Domain,
    EnumDomain,
    enum_domain,
    is_placeholder,
)


class TestDataTypes:
    def test_int_contains_integers(self):
        assert INT.contains(5)
        assert INT.contains(-3)

    def test_int_rejects_strings_and_bools(self):
        assert not INT.contains("5")
        assert not INT.contains(True)

    def test_bool_contains_booleans_only(self):
        assert BOOL.contains(True)
        assert BOOL.contains(False)
        assert not BOOL.contains(1)
        assert not BOOL.contains("true")

    def test_string_contains_strings(self):
        assert STRING.contains("abc")
        assert not STRING.contains(3)

    def test_any_contains_everything(self):
        assert ANY.contains(3)
        assert ANY.contains("x")
        assert ANY.contains((1, 2))

    def test_any_contains_booleans(self):
        assert ANY.contains(True)
        assert ANY.contains(False)

    def test_placeholders_belong_to_every_type(self):
        assert INT.contains("~null1")
        assert BOOL.contains("~x")
        assert STRING.contains("~frozen_value")

    def test_is_placeholder(self):
        assert is_placeholder("~abc")
        assert not is_placeholder("abc")
        assert not is_placeholder(7)

    def test_str_of_type_is_name(self):
        assert str(DataType("custom")) == "custom"


class TestDomains:
    def test_unbounded_domain_is_not_finite(self):
        assert not Domain(INT).is_finite

    def test_unbounded_domain_membership_follows_type(self):
        domain = Domain(INT)
        assert domain.contains(4)
        assert not domain.contains("x")

    def test_unbounded_int_sample_distinct(self):
        sample = Domain(INT).sample(5)
        assert len(set(sample)) == 5

    def test_unbounded_string_sample_distinct(self):
        sample = Domain(STRING).sample(4)
        assert len(set(sample)) == 4
        assert all(isinstance(value, str) for value in sample)

    def test_bool_sample_capped_at_two(self):
        assert list(Domain(BOOL).sample(5)) == [False, True]

    def test_enum_domain_is_finite(self):
        domain = enum_domain(["a", "b", "c"])
        assert domain.is_finite
        assert len(domain) == 3
        assert list(domain) == ["a", "b", "c"]

    def test_enum_domain_membership(self):
        domain = enum_domain([1, 2])
        assert domain.contains(1)
        assert not domain.contains(3)

    def test_enum_domain_sample_prefix(self):
        domain = enum_domain(["x", "y", "z"])
        assert list(domain.sample(2)) == ["x", "y"]


class TestBooleanBindings:
    def test_bool_input_binding_reaches_the_isbind_relation(self):
        """``IsBind_*`` relations are untyped, so they accept a ``True`` binding."""
        from repro.access.methods import AccessSchema
        from repro.core import properties
        from repro.core.bounded_check import Bounds, bounded_satisfiability
        from repro.core.solver import AccLTLSolver
        from repro.queries.parser import parse_cq
        from repro.relational.schema import Relation, Schema

        access_schema = AccessSchema(Schema([Relation("R", 2, (BOOL, STRING))]))
        access_schema.add("AcR", "R", (0,))
        vocabulary = AccLTLSolver(access_schema).vocabulary
        formula = properties.ltr_formula(
            vocabulary, access_schema.access("AcR", (True,)), parse_cq("Q() :- R(x, y)")
        )
        result = bounded_satisfiability(
            vocabulary, formula, Bounds(max_path_length=2, max_paths=200)
        )
        assert result.satisfiable
        assert result.witness.steps[0].access.binding == (True,)
