"""Executable access plans over schemas with binding patterns (a test oracle).

The paper's introduction motivates the static-analysis machinery with query
*plans* over limited-access sources: recursive plans that repeatedly feed
values obtained from one access into the bindings of the next ([4, 16] in
the paper's bibliography).  This module is a small, executable plan
language that the tests run against the library's analyses (relevance,
answerability); nothing in the library imports it:

* an :class:`AccessStep` performs every grounded access through one method,
  drawing bindings from the values collected so far (optionally filtered to
  the values seen in specific earlier relations/positions — a dataflow
  annotation);
* a :class:`Plan` is a sequence of steps iterated to a fixedpoint (the
  recursive plan of the literature), followed by the evaluation of a
  conjunctive query over the collected facts;
* :func:`canonical_plan` builds the standard plan that implements the
  accessible-part computation (one step per access method), and
  :func:`relevance_pruned_plan` drops the steps whose accesses can never be
  long-term relevant to the query — the optimisation the paper's framework
  is designed to justify.

Plan execution records a trace of the accesses made, so tests can compare
the work performed by different plans.  Executing :func:`canonical_plan`
is a third computation of the accessible part, next to
:func:`~repro.access.answerability.accessible_part` and
:func:`~repro.access.answerability.accessible_part_program`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.access.answerability import accessible_part
from repro.access.methods import Access, AccessMethod, AccessSchema, respond
from repro.access.path import AccessPath, PathStep
from repro.access.relevance import long_term_relevant
from repro.queries.evaluation import evaluate_ucq
from repro.queries.ucq import as_ucq
from repro.relational.instance import Instance


@dataclass(frozen=True)
class AccessStep:
    """One step of a plan: exhaust a method over the currently known values.

    Parameters
    ----------
    method_name:
        The access method to use.
    binding_sources:
        Optional dataflow annotation: for each input position of the method,
        a ``(relation, position)`` pair restricting where binding values may
        be drawn from (``None`` entries mean "any known value").  This is the
        executable counterpart of the dataflow restrictions of Example 2.3.
    """

    method_name: str
    binding_sources: Tuple[Optional[Tuple[str, int]], ...] = ()

    def describe(self) -> str:
        sources = (
            ", ".join(
                "any" if source is None else f"{source[0]}.{source[1]}"
                for source in self.binding_sources
            )
            if self.binding_sources
            else "any"
        )
        return f"access {self.method_name} with bindings from [{sources}]"


@dataclass
class PlanTrace:
    """What a plan execution did: accesses made, facts revealed, answers."""

    accesses: List[Access] = field(default_factory=list)
    revealed: Optional[Instance] = None
    answers: FrozenSet[Tuple[object, ...]] = frozenset()
    rounds: int = 0

    @property
    def num_accesses(self) -> int:
        return len(self.accesses)

    def as_path(self, schema: AccessSchema, hidden: Instance) -> AccessPath:
        """Reconstruct the access path (with exact responses) the plan took."""
        steps = [
            PathStep(access, respond(access, hidden)) for access in self.accesses
        ]
        return AccessPath(tuple(steps))


@dataclass(frozen=True)
class Plan:
    """A recursive access plan: steps iterated to fixedpoint, then a query."""

    schema: AccessSchema
    steps: Tuple[AccessStep, ...]
    query: object = None

    def describe(self) -> str:
        lines = [f"Plan over {len(self.steps)} step(s):"]
        lines += [f"  {index + 1}. {step.describe()}" for index, step in enumerate(self.steps)]
        if self.query is not None:
            lines.append(f"  finally evaluate: {self.query}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def execute(
        self,
        hidden: Instance,
        initial_values: Iterable[object] = (),
        max_rounds: int = 50,
    ) -> PlanTrace:
        """Run the plan against a hidden instance with exact responses."""
        trace = PlanTrace()
        revealed = Instance(self.schema.schema)
        known: Set[object] = set(initial_values)
        # Values seen per (relation, position), for dataflow-annotated steps.
        seen_at: Dict[Tuple[str, int], Set[object]] = {}

        def note(relation: str, tup: Tuple[object, ...]) -> None:
            for position, value in enumerate(tup):
                seen_at.setdefault((relation, position), set()).add(value)
                known.add(value)

        made: Set[Tuple[str, Tuple[object, ...]]] = set()
        for round_number in range(1, max_rounds + 1):
            changed = False
            for step in self.steps:
                method = self.schema.method(step.method_name)
                for binding in self._candidate_bindings(method, step, known, seen_at):
                    key = (method.name, binding)
                    if key in made:
                        continue
                    made.add(key)
                    access = Access(method, binding)
                    trace.accesses.append(access)
                    for tup in respond(access, hidden):
                        if not revealed.contains(method.relation, tup):
                            revealed.add(method.relation, tup)
                            note(method.relation, tup)
                            changed = True
            trace.rounds = round_number
            if not changed:
                break

        trace.revealed = revealed
        if self.query is not None:
            trace.answers = evaluate_ucq(as_ucq(self.query), revealed)
        return trace

    def _candidate_bindings(
        self,
        method: AccessMethod,
        step: AccessStep,
        known: Set[object],
        seen_at: Dict[Tuple[str, int], Set[object]],
    ) -> List[Tuple[object, ...]]:
        if method.num_inputs == 0:
            return [()]
        pools: List[List[object]] = []
        for index in range(method.num_inputs):
            source = (
                step.binding_sources[index]
                if index < len(step.binding_sources)
                else None
            )
            if source is None:
                pools.append(sorted(known, key=repr))
            else:
                pools.append(sorted(seen_at.get(source, set()), key=repr))
        import itertools

        return [combo for combo in itertools.product(*pools)]


# ----------------------------------------------------------------------
# Plan construction
# ----------------------------------------------------------------------
def canonical_plan(schema: AccessSchema, query) -> Plan:
    """The canonical recursive plan: one unrestricted step per access method.

    Executing it computes exactly the accessible part of the hidden
    instance, so its answers are the maximal answers of the query (the
    classical [15] construction the paper's introduction recalls).
    """
    steps = tuple(AccessStep(method.name) for method in schema)
    return Plan(schema=schema, steps=steps, query=query)


def relevance_pruned_plan(
    schema: AccessSchema,
    query,
    initial: Optional[Instance] = None,
) -> Tuple[Plan, List[str]]:
    """Drop plan steps whose method can never contribute to the query.

    A method is kept iff some access through it is long-term relevant for
    the query on the given initial instance (checked with the free-binding
    variant of the Example 2.3 relevance test).  Returns the pruned plan
    and the names of the dropped methods.
    """
    if initial is None:
        initial = schema.empty_instance()
    normalized = as_ucq(query)
    kept: List[AccessStep] = []
    dropped: List[str] = []
    for method in schema:
        # Candidate probe bindings: one "fully unspecified" probe, plus one
        # probe per query atom over the method's relation using the atom's
        # constants at the input positions (so constants in the query do not
        # spuriously rule the method out).
        candidates: List[Tuple[object, ...]] = [
            tuple(f"~probe{i}" for i in range(method.num_inputs))
        ]
        from repro.queries.terms import Constant as _Constant

        for disjunct in normalized.disjuncts:
            for atom in disjunct.atoms:
                if atom.relation != method.relation:
                    continue
                binding = tuple(
                    atom.terms[position].value
                    if isinstance(atom.terms[position], _Constant)
                    else f"~probe{position}"
                    for position in method.input_positions
                )
                if binding not in candidates:
                    candidates.append(binding)
        relevant = False
        for binding in candidates:
            probe = Access(method, binding)
            result = long_term_relevant(
                schema, probe, query, initial=initial, require_boolean_access=False
            )
            if result.relevant:
                relevant = True
                break
        if relevant:
            kept.append(AccessStep(method.name))
        else:
            dropped.append(method.name)
    return Plan(schema=schema, steps=tuple(kept), query=query), dropped


def plans_equivalent_on(
    plan_a: Plan,
    plan_b: Plan,
    hidden: Instance,
    initial_values: Iterable[object] = (),
) -> bool:
    """Whether two plans return the same answers on a given hidden instance."""
    answers_a = plan_a.execute(hidden, initial_values).answers
    answers_b = plan_b.execute(hidden, initial_values).answers
    return answers_a == answers_b


def verify_canonical_plan(
    schema: AccessSchema,
    query,
    hidden: Instance,
    initial_values: Iterable[object] = (),
) -> bool:
    """The canonical plan's revealed facts equal the accessible part."""
    trace = canonical_plan(schema, query).execute(hidden, initial_values)
    part = accessible_part(schema, hidden, initial_values)
    return trace.revealed is not None and trace.revealed.freeze() == part.freeze()
