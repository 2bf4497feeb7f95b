"""Tests for classical (U)CQ containment."""

import pytest

from repro.queries.containment import (
    cq_contained_in,
    equivalent,
    minimize_cq,
    ucq_contained_in,
)
from repro.queries.parser import parse_cq, parse_ucq


class TestCQContainment:
    def test_identity(self):
        q = parse_cq("Q(x) :- R(x, y)")
        assert cq_contained_in(q, q)

    def test_more_atoms_is_contained_in_fewer(self):
        q1 = parse_cq("Q(x) :- R(x, y), S(y, z)")
        q2 = parse_cq("Q(x) :- R(x, y)")
        assert cq_contained_in(q1, q2)
        assert not cq_contained_in(q2, q1)

    def test_constant_specialisation(self):
        specific = parse_cq('Q(x) :- R(x, "a")')
        general = parse_cq("Q(x) :- R(x, y)")
        assert cq_contained_in(specific, general)
        assert not cq_contained_in(general, specific)

    def test_different_constants_not_contained(self):
        q1 = parse_cq('Q(x) :- R(x, "a")')
        q2 = parse_cq('Q(x) :- R(x, "b")')
        assert not cq_contained_in(q1, q2)

    def test_head_arity_mismatch(self):
        q1 = parse_cq("Q(x) :- R(x, y)")
        q2 = parse_cq("Q(x, y) :- R(x, y)")
        assert not cq_contained_in(q1, q2)

    def test_repeated_variable_pattern(self):
        loop = parse_cq("Q(x) :- R(x, x)")
        edge = parse_cq("Q(x) :- R(x, y)")
        assert cq_contained_in(loop, edge)
        assert not cq_contained_in(edge, loop)

    def test_path_containment_classic(self):
        # A path of length 2 is contained in "there is an edge from x".
        path2 = parse_cq("Q(x) :- R(x, y), R(y, z)")
        edge = parse_cq("Q(x) :- R(x, y)")
        assert cq_contained_in(path2, edge)

    def test_boolean_containment(self):
        q1 = parse_cq("Q :- R(x, y), S(y, z)")
        q2 = parse_cq("Q :- S(u, v)")
        assert cq_contained_in(q1, q2)
        assert not cq_contained_in(q2, q1)

    def test_containee_inequality_makes_it_smaller(self):
        with_ineq = parse_cq("Q(x) :- R(x, y), x != y")
        without = parse_cq("Q(x) :- R(x, y)")
        assert cq_contained_in(with_ineq, without)

    def test_container_inequality_not_implied(self):
        without = parse_cq("Q(x) :- R(x, y)")
        with_ineq = parse_cq("Q(x) :- R(x, y), x != y")
        assert not cq_contained_in(without, with_ineq)

    def test_container_inequality_against_a_constant(self):
        # R('a') is a counterexample: the variable may equal the constant.
        assert not cq_contained_in(
            parse_cq("Q :- R(x)"), parse_cq('Q :- R(x), x != "a"')
        )
        assert cq_contained_in(
            parse_cq('Q :- R(x), x != "a"'), parse_cq('Q :- R(x), x != "a"')
        )

    def test_head_variable_equal_to_a_constant(self):
        # Q('a') is an answer of the containee on R('a') but not of the container.
        assert not cq_contained_in(
            parse_cq("Q(x) :- R(x)"), parse_cq('Q(x) :- R(x), x != "a"')
        )
        assert cq_contained_in(
            parse_cq('Q(x) :- R(x), x != "a"'), parse_cq("Q(x) :- R(x)")
        )


class TestUCQContainment:
    def test_container_inequality_needs_every_equality_type(self):
        # R(a,a) satisfies the containee but not the container.
        assert not ucq_contained_in(
            parse_ucq("Q :- R(x, y)"), parse_ucq("Q :- R(x, y), x != y")
        )
        assert not ucq_contained_in(
            parse_ucq("Q :- R(x, y)"), parse_ucq("Q :- R(x, y), x != y ; Q :- S(x)")
        )

    def test_container_inequality_split_across_disjuncts(self):
        # Every R(x,y) has x≠y or x=y: neither disjunct alone contains it.
        assert ucq_contained_in(
            parse_ucq("Q :- R(x, y)"), parse_ucq("Q :- R(x, y), x != y ; Q :- R(x, x)")
        )
        assert ucq_contained_in(
            parse_ucq("Q :- R(x)"), parse_ucq('Q :- R(x), x != "a" ; Q :- R("a")')
        )

    def test_disjunct_in_union(self):
        small = parse_ucq("Q(x) :- R(x, y)")
        big = parse_ucq("Q(x) :- R(x, y) ; Q(x) :- S(x, y)")
        assert ucq_contained_in(small, big)
        assert not ucq_contained_in(big, small)

    def test_union_both_sides(self):
        left = parse_ucq("Q(x) :- R(x, y), S(y, z) ; Q(x) :- S(x, x)")
        right = parse_ucq("Q(x) :- S(x, v) ; Q(x) :- R(x, y)")
        assert ucq_contained_in(left, right)

    def test_equivalence(self):
        q1 = parse_cq("Q(x) :- R(x, y), R(x, z)")
        q2 = parse_cq("Q(x) :- R(x, y)")
        assert equivalent(q1, q2)

    def test_non_equivalence(self):
        q1 = parse_cq("Q(x) :- R(x, y)")
        q2 = parse_cq("Q(x) :- S(x, y)")
        assert not equivalent(q1, q2)


class TestMinimization:
    def test_redundant_atom_removed(self):
        q = parse_cq("Q(x) :- R(x, y), R(x, z)")
        core = minimize_cq(q)
        assert len(core.atoms) == 1
        assert equivalent(core, q)

    def test_non_redundant_query_unchanged(self):
        q = parse_cq("Q(x) :- R(x, y), S(y, z)")
        assert len(minimize_cq(q).atoms) == 2

    def test_core_keeps_head_variables(self):
        q = parse_cq("Q(x, y) :- R(x, y), R(x, z)")
        core = minimize_cq(q)
        assert set(core.head) == set(q.head)

    def test_query_with_inequalities_left_alone(self):
        q = parse_cq("Q(x) :- R(x, y), R(x, z), y != z")
        assert minimize_cq(q) is q
