"""Tests for long-term relevance and containment under access patterns."""

import pytest

from repro.access.containment_ap import (
    contained_under_access_patterns,
    equivalent_under_access_patterns,
)
from repro.access.methods import AccessSchema
from repro.access.path import conf, is_grounded, revealing_steps
from repro.access.relevance import long_term_relevant, relevant_accesses
from repro.automata.emptiness import automaton_emptiness
from repro.automata.library import containment_automaton
from repro.core.vocabulary import AccessVocabulary
from repro.queries.evaluation import holds
from repro.queries.parser import parse_cq
from repro.queries.ucq import as_ucq
from repro.relational.instance import Instance
from repro.relational.schema import make_schema
from repro.workloads.directory import join_query, resident_names_query


@pytest.fixture
def probe_schema(directory):
    """Directory schema extended with boolean probe methods."""
    directory.add("MobileProbe", "Mobile", (0, 1, 2, 3))
    directory.add("AddressProbe", "Address", (0, 1, 2, 3))
    return directory


class TestLongTermRelevance:
    def test_relevant_access_found_with_witness(self, probe_schema):
        access = probe_schema.access(
            "MobileProbe", ("Smith", "OX13QD", "Parks Rd", 5551212)
        )
        result = long_term_relevant(probe_schema, access, join_query())
        assert result.relevant
        witness = result.witness_path
        assert witness is not None
        assert witness[0].access == access
        # Re-validate the definition: Q holds after the path, fails without
        # the first access.
        initial = probe_schema.empty_instance()
        assert holds(as_ucq(join_query()).boolean_version(), conf(witness, initial))
        assert not holds(
            as_ucq(join_query()).boolean_version(),
            conf(witness.drop_first(), initial),
        )

    def test_irrelevant_access(self, probe_schema):
        # An Address probe cannot be relevant to a query that only needs
        # Mobile facts.
        query = parse_cq("Q(n) :- Mobile(n, pc, s, p)")
        access = probe_schema.access(
            "AddressProbe", ("Parks Rd", "OX13QD", "Smith", 13)
        )
        result = long_term_relevant(probe_schema, access, query)
        assert not result.relevant

    def test_relevance_respects_existing_knowledge(self, probe_schema):
        # Relevance is about *new* query results (the definition in [3]).
        # With a non-boolean query, a probe that reveals a new answer stays
        # relevant even if other answers are already known; the boolean
        # version of the same query is already satisfied, so nothing can
        # reveal it anew.
        query = parse_cq("Q(n) :- Mobile(n, pc, s, p)")
        initial = Instance(probe_schema.schema)
        initial.add("Mobile", ("Jones", "OX26NN", "Banbury Rd", 5553434))
        access = probe_schema.access(
            "MobileProbe", ("Smith", "OX13QD", "Parks Rd", 5551212)
        )
        per_answer = long_term_relevant(probe_schema, access, query, initial=initial)
        assert per_answer.relevant
        boolean = long_term_relevant(
            probe_schema, access, query.boolean_version(), initial=initial
        )
        assert not boolean.relevant
        # The already-known answer itself cannot be revealed anew either.
        known_probe = probe_schema.access(
            "MobileProbe", ("Jones", "OX26NN", "Banbury Rd", 5553434)
        )
        assert not long_term_relevant(
            probe_schema, known_probe, query, initial=initial
        ).relevant

    def test_grounded_relevance_requires_reachable_support(self, probe_schema):
        access = probe_schema.access(
            "MobileProbe", ("Smith", "OX13QD", "Parks Rd", 5551212)
        )
        grounded_result = long_term_relevant(
            probe_schema, access, join_query(), grounded=True
        )
        assert grounded_result.relevant
        assert grounded_result.grounded
        # The tail of the witness is grounded once the probed access's own
        # values are known: seed an initial instance with them and check.
        seeded = Instance(probe_schema.schema)
        seeded.add("Mobile", ("Smith", "OX13QD", "Parks Rd", 5551212))
        assert is_grounded(grounded_result.witness_path.drop_first(), seeded)

    def test_non_boolean_access_requires_flag(self, probe_schema):
        access = probe_schema.access("AcM1", ("Smith",))
        with pytest.raises(ValueError):
            long_term_relevant(probe_schema, access, join_query())
        result = long_term_relevant(
            probe_schema, access, join_query(), require_boolean_access=False
        )
        assert result.relevant

    def test_relevant_accesses_filter(self, probe_schema):
        accesses = [
            probe_schema.access("MobileProbe", ("Smith", "OX13QD", "Parks Rd", 5551212)),
            probe_schema.access("AddressProbe", ("Parks Rd", "OX13QD", "Smith", 13)),
        ]
        query = parse_cq("Q(n) :- Mobile(n, pc, s, p)")
        relevant = relevant_accesses(probe_schema, query, accesses)
        assert len(relevant) == 1
        assert relevant[0].relation == "Mobile"


class TestGroundedReachability:
    def test_reachable_ordering_found(self, directory):
        facts = [
            ("Mobile", ("Smith", "OX1", "Parks Rd", 1)),
            ("Address", ("Parks Rd", "OX1", "Jones", 2)),
        ]
        steps = revealing_steps(directory, facts, ["Smith"], True, configuration=())
        assert steps is not None

    def test_unreachable_without_seed(self, directory):
        facts = [("Mobile", ("Smith", "OX1", "Parks Rd", 1))]
        assert revealing_steps(directory, facts, [], True, configuration=()) is None

    def test_order_matters_but_fixedpoint_finds_it(self, directory):
        # The Address fact unlocks nothing; the Mobile fact must come first.
        facts = [
            ("Address", ("Parks Rd", "OX1", "Jones", 2)),
            ("Mobile", ("Smith", "OX1", "Parks Rd", 1)),
        ]
        steps = revealing_steps(directory, facts, ["Smith"], True, configuration=())
        assert steps is not None
        assert [step.relation for step in steps] == ["Mobile", "Address"]


class TestContainmentUnderAccessPatterns:
    def test_classical_containment_implies_ap_containment(self, directory):
        result = contained_under_access_patterns(
            directory, join_query(), resident_names_query()
        )
        assert result.contained

    def test_non_containment_with_counterexample(self, directory):
        # Make the Address table reachable from nothing (an input-free scan
        # method), so residents can be revealed while the join cannot.
        directory.add("AddrScan", "Address", ())
        result = contained_under_access_patterns(
            directory, resident_names_query(), join_query()
        )
        assert not result.contained
        assert result.counterexample is not None
        # The counterexample satisfies Q1 and not Q2.
        assert holds(
            as_ucq(resident_names_query()).boolean_version(), result.counterexample
        )
        assert not holds(as_ucq(join_query()).boolean_version(), result.counterexample)

    def test_access_restrictions_can_make_containment_hold(self):
        # Without access restrictions Q1 ⊄ Q2, but if R is unreachable by
        # any grounded path then Q1 can never fire, so containment holds.
        schema = AccessSchema(make_schema({"R": 1, "S": 1}))
        schema.add("MS", "S", ())  # S is freely scannable
        schema.add("MR", "R", (0,))  # R needs its value as input
        q1 = parse_cq("Q :- R(x)")
        q2 = parse_cq("Q :- S(x)")
        unrestricted = contained_under_access_patterns(
            AccessSchema(make_schema({"R": 1, "S": 1}), []), q1, q2
        )
        # With no access methods at all, nothing is reachable, so containment
        # holds vacuously.
        assert unrestricted.contained
        restricted = contained_under_access_patterns(schema, q1, q2)
        # R tuples can only be revealed by guessing... which grounded paths
        # forbid, so Q1 never holds on a reachable configuration.
        assert restricted.contained

    def test_containment_fails_when_source_scannable(self):
        schema = AccessSchema(make_schema({"R": 1, "S": 1}))
        schema.add("MR", "R", ())
        schema.add("MS", "S", (0,))
        q1 = parse_cq("Q :- R(x)")
        q2 = parse_cq("Q :- S(x)")
        result = contained_under_access_patterns(schema, q1, q2)
        assert not result.contained

    def test_initial_facts_need_no_access(self):
        # R has no access method, yet R("a") is in the initial instance: the
        # grounded path mS("a") -> {("a", "b")} satisfies Q1 and not Q2.
        schema = AccessSchema(make_schema({"R": 1, "S": 2, "T": 1}))
        schema.add("mS", "S", (0,))
        initial = Instance(schema.schema)
        initial.add("R", ("a",))
        q1 = parse_cq('Q :- R("a"), S("a", y)')
        q2 = parse_cq("Q :- T(z)")
        direct = contained_under_access_patterns(schema, q1, q2, initial=initial)
        assert not direct.contained
        assert holds(as_ucq(q1), direct.counterexample)
        assert not holds(as_ucq(q2), direct.counterexample)
        vocab = AccessVocabulary.of(schema)
        automaton = automaton_emptiness(
            containment_automaton(vocab, q1, q2, grounded=True),
            vocab,
            initial=initial,
        )
        assert automaton.empty == direct.contained

    def test_equivalence_under_access_patterns(self, directory):
        directory.add("AddrScan", "Address", ())
        q = join_query()
        assert equivalent_under_access_patterns(directory, q, q)
        assert not equivalent_under_access_patterns(
            directory, resident_names_query(), join_query()
        )
