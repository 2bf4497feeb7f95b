"""Emptiness of A-automata (Theorem 4.6).

The paper decides emptiness in 2EXPTIME by decomposing the automaton into
progressive automata (Lemma 4.9) and reducing each to a containment of a
Datalog program in a positive query (Lemma 4.10 + Proposition 4.11).

This module provides two procedures:

* :func:`automaton_emptiness` — the primary, certificate-producing
  procedure.  It first quotients the automaton for emptiness
  (:meth:`~repro.automata.aautomaton.AAutomaton.minimise`) and applies
  the Lemma 4.9 decomposition into SCC-chain restrictions, dropping
  chains another chain subsumes; for each restriction it runs
  a guided witness search: candidate accesses and responses are drawn from
  the canonical databases of the guard sentences (the same small-witness
  pools used elsewhere), and the automaton is simulated alongside the path
  construction.  A non-emptiness verdict comes with an accepted access
  path.  An emptiness verdict with ``exhausted`` set means the search
  tried every path the candidate pools can build within the length
  bound, which is not the same as "no accepted path exists": the pools
  come from the guards' canonical databases alone, so they never
  identify two variables (``R_pre(x,y) ∧ ¬(R_pre(u,v) ∧ u≠v)`` needs a
  fact ``R(a,a)``) and never use a value of the initial instance
  (``T_pre(x) ∧ S_post(x)`` over an initial ``T('a')`` needs ``'a'``);
  such automata can be reported exhausted EMPTY while they have a
  witness.  Guard work that does not depend on the candidate step —
  sentences over the pre configuration, plan binding — is done once per
  node or once per search, outside the candidate loop (see
  :class:`_WitnessSearch`), and the chains of one call share the
  candidate tables of equal pools (:class:`CallMemo`).

* :func:`datalog_emptiness_precheck` — the Lemma 4.10 connection made
  concrete: a transition whose guard no transition can satisfy is
  pruned, and an automaton left without a reachable accepting state is
  empty.  The guards are refuted by the transition refuter of
  :mod:`repro.core.refuter` (:func:`~repro.core.refuter.transitions_refute_guard`),
  which the bounded checker consults too: it enumerates each guard's
  canonical transition structures — the transition encoding of Lemma
  4.10: ``R_post = R_pre ∪ response``, the response agrees with the
  ``IsBind`` binding, each step uses one method, the initial facts are
  in ``pre`` — and refutes the guard when every structure is impossible
  or satisfies a negated sentence.  That settles the loop-then-exit
  automata of long-term relevance (the exit guard ``IsBind[probe] ∧
  Q_post ∧ ¬Q_pre`` is refuted when every way of making ``Q`` true needs
  a fact the probe cannot return) and of containment (``Q1_pre ∧
  ¬Q2_pre`` is refuted when ``Q1 ⊆ Q2``).  The guards into accepting
  states go first, so an exit guard refuted that way settles a chain
  without its loop guards.  Guards with a negated inequality are
  declined and fall back to :func:`guard_to_datalog`: containment of the
  positive part's Datalog program in a negated sentence (Proposition
  4.11).  Both are sound for any automaton, grounded runs, exact methods
  and access orders, and never claim a witness.  When the precheck
  proves emptiness the witness search is skipped entirely (``exhausted``
  with 0 paths).  The verdict depends on the guard and the initial
  instance alone, so one emptiness call checks each distinct guard once
  and every chain reuses the answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.access.path import AccessPath, PathStep
from repro.automata.aautomaton import AAutomaton
from repro.automata.progressive import chain_restrictions
from repro.core.bounded_check import candidate_table, fact_pool_from_sentences
from repro.core.budget import INTERRUPT_STRIDE, Budget, BudgetClock
from repro.core.refuter import TransitionRefuter
from repro.obs import metrics as _metrics
from repro.obs import trace
from repro.core.transition import (
    SentenceRecord,
    bind_sentence,
    plans_hold,
    prepost_names,
    seed_structure_mirror,
)
from repro.core.vocabulary import AccessVocabulary
from repro.datalog.containment import ContainmentResult, datalog_contained_in_ucq
from repro.datalog.program import DatalogProgram, Rule
from repro.queries.atoms import Atom
from repro.relational.instance import Instance
from repro.store.snapshot import Snapshot, SnapshotInstance

Fact = Tuple[str, Tuple[object, ...]]

#: Guard verdicts of one precheck scope: ``id(guard) -> (guard, verdict)``.
#: Holding the guard keeps its ``id`` from being reused while the entry
#: lives; the verdict depends only on the guard, the vocabulary and the
#: scope's initial instance.
GuardVerdicts = Dict[int, Tuple[object, bool]]

#: Candidate tables of one emptiness call: ``(fact pool, value pool,
#: max_response_size, nary) -> (candidates, candidate facts)`` —
#: everything :class:`_WitnessSearch` derives from its pools.
CandidateTables = Dict[Tuple, Tuple[List, List]]


@dataclass
class CallMemo:
    """Memos scoped to one :func:`automaton_emptiness` call.

    The chain loop passes one memo to all its chains, which share their
    transitions and mostly their pools: each distinct guard's Lemma 4.10
    verdict (``guard_verdicts``) and each distinct pool's candidate tables
    (``candidate_tables``) are then computed once per call.  The memo is
    call-scoped, not process-wide, so it never outlives the call's
    automata.
    """

    guard_verdicts: GuardVerdicts = field(default_factory=dict)
    candidate_tables: CandidateTables = field(default_factory=dict)


@dataclass(frozen=True)
class EmptinessResult:
    """Result of an A-automaton emptiness check.

    ``stats`` carries informational search instrumentation (memo hit/miss
    counters, see :class:`_WitnessSearch`); it is excluded from equality
    so that the determinism guarantees of the resumed mode are stated
    over the semantic fields only.
    Cache hit rates legitimately depend on how work was scheduled;
    verdicts, witnesses and exploration counters do not.

    ``unknown`` tags the anytime verdict: a budget
    (:class:`~repro.core.budget.Budget`) expired before the check could
    conclude.  ``empty`` is then ``False`` by convention but carries no
    information — consult :attr:`verdict`.  ``frontier`` holds the
    picklable resume state (:class:`ResumeFrontier`); pass it back via
    ``automaton_emptiness(resume_from=...)`` to continue exactly where
    the interrupted run stopped.  The frontier is excluded from equality
    (like ``stats``) so completed results compare over semantics alone —
    ``unknown`` itself *is* semantic and does participate.
    """

    empty: bool
    witness: Optional[AccessPath]
    exhausted: bool
    paths_explored: int
    chains_checked: int = 1
    stats: Optional[Dict[str, int]] = field(default=None, compare=False)
    unknown: bool = False
    frontier: Optional["ResumeFrontier"] = field(default=None, compare=False)

    @property
    def verdict(self) -> str:
        """``"EMPTY"``, ``"NONEMPTY"`` or ``"UNKNOWN"`` (budget expired)."""
        if self.unknown:
            return "UNKNOWN"
        return "EMPTY" if self.empty else "NONEMPTY"

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.empty


def _guard_pools(
    automaton: AAutomaton, vocabulary: AccessVocabulary, fresh_values: int = 1
) -> Tuple[List[Fact], List[object]]:
    """Fact and value pools derived from the automaton's guard sentences."""
    sentences = automaton.guard_sentences()
    fact_pool = fact_pool_from_sentences(vocabulary, sentences)
    values: Set[object] = set()
    for sentence in sentences:
        for constant in sentence.query.constants():
            values.add(constant.value)
    for _, tup in fact_pool:
        values.update(tup)
    pool = sorted(values, key=repr)
    pool.extend(f"~fresh{i}" for i in range(fresh_values))
    return fact_pool, pool


#: "No limit" for the exploration counters of :meth:`_WitnessSearch.run`.
_UNBOUNDED = 1 << 62


@dataclass(frozen=True)
class ChainCheckpoint:
    """Where a budget-interrupted witness search stopped inside one chain.

    This is the state of the plain DFS at the interruption: the deepening
    round (``depth_limit``), the exploration count so far (``explored``),
    the candidate index at each depth of the interrupted DFS (``path``:
    every index but the last was counted and descended into, the last is
    the candidate the search stopped before) and the expansion memo as
    ``(node key, remaining depth)`` pairs (``expanded``; ``None`` under
    ``memoize=False``).  Everything is picklable — memo keys hold
    automaton states, store snapshots (which rebuild themselves on
    unpickling) and value sets — so a checkpoint survives process
    boundaries and disk.
    """

    depth_limit: int
    explored: int
    path: Tuple[int, ...]
    expanded: Optional[Tuple[Tuple[Tuple, int], ...]]


@dataclass(frozen=True)
class ResumeFrontier:
    """The picklable resume state of a budget-expired emptiness check.

    Attached to the tagged ``UNKNOWN`` :class:`EmptinessResult`:
    ``completed`` holds the chains already decided (in restriction
    order), ``chain_index`` the chain the budget expired in, and
    ``checkpoint`` where inside that chain (``None``: the chain had not
    started — resume runs it from scratch, precheck included).
    ``signature`` fingerprints the originating call; resuming against a
    different automaton or different search parameters raises
    ``ValueError`` instead of silently mixing incompatible state.
    """

    chain_index: int
    checkpoint: Optional[ChainCheckpoint]
    completed: Tuple[ChainOutcome, ...]
    num_chains: int
    signature: Tuple


class _WitnessSearch:
    """The guided witness search: an iterative-deepening DFS, set up once.

    The search runs over ``(automaton state set, configuration)`` nodes.
    Construction performs all the per-automaton work (candidate pools,
    compiled transitions, canonicalised guard sentences); :meth:`run` is
    the one DFS driver.  Under a started budget clock it stops before a
    candidate and returns a :class:`ChainCheckpoint` of its DFS stack;
    ``run(checkpoint=...)`` replays that stack and continues at the
    recorded candidate, so resuming to completion gives the result of
    the uninterrupted run, field for field.

    The **last level** of a deepening round — a node one step short of
    the round's depth limit — only asks whether a candidate reaches an
    accepting state: its child would be cut by the depth limit before
    trying anything.  There :meth:`node_guards` evaluates only the
    transitions into accepting states, so a candidate's following set is
    either empty or a witness, and :meth:`run` never applies a delta,
    descends or restores for it.  Candidates are tried and counted exactly
    as under a full evaluation, so results, checkpoints and the expansion
    memo do not depend on the rule; only the informational guard-cache
    counters do.

    Three memoisation layers (disabled together by ``memoize=False``,
    which must not change any verdict of a search that stays under its
    ``max_paths`` cap — a property the regression tests assert) keep the
    re-exploration inherent in iterative deepening cheap:

    * **expansion memo** — a visited table mapping ``(state set, frozen
      configuration[, known values])`` to the largest remaining depth
      budget with which the node was already expanded; a node is pruned
      whenever it reappears with no more budget than before (the revisit
      is dominated: every continuation available now was available then).
      One table serves the whole search, and a checkpoint carries it.
    * **guard cache** — sentence verdicts keyed by the sentence, the
      configuration fingerprint and as much of the candidate step as the
      sentence can read (see below); a pure cache of deterministic
      computations, so sharing it (or not) never affects results, only
      time.
    * **persistent snapshots** — the configuration is a single
      :class:`~repro.store.snapshot.SnapshotInstance`; each node takes an
      O(1) snapshot, candidates layer their response on top, and
      backtracking is an O(1) ``restore``.  The snapshots double as memo
      fingerprints.

    Guards are evaluated over ``base``, a dict-backed ``Instance`` that
    mirrors the configuration into the combined ``R_pre``/``R_post``
    transition structure and is maintained incrementally alongside it.
    Construction canonicalises the guard sentences (equal sentences of
    different guards become one), binds each to the compiled boolean plans
    of its disjuncts, and sorts it by *kind*, i.e. by what part of a
    candidate step its verdict can depend on:

    * kind 0 reads only ``R_pre`` relations — one verdict per node.
      :meth:`node_guards` decides these once at node entry (after the
      expansion-memo and export checks), drops the transitions they
      reject and marks the transitions they fully decide, so the
      candidate loop never sees them.  Cache key ``(sentence,
      fingerprint)``.
    * kind 1 also reads ``R_post`` — the verdict depends on the response
      and its relation, not on the method or binding.  Cache key
      ``(sentence, fingerprint, relation, response)``.
    * kind 2 mentions a binding predicate — fully candidate-dependent.
      Cache key ``(sentence, fingerprint, candidate index)``.  Only the
      used method's binding predicates are non-empty in ``M(t)``, so a
      kind-2 sentence whose ``methods`` (see
      :func:`~repro.core.transition.bind_sentence`) exclude the
      candidate's method is false without staging, evaluation or cache
      lookup.

    Per candidate, only the residual kind-1/kind-2 sentences run: the
    response (and for kind 2 the binding facts) is staged over ``base``,
    the bound plans execute directly on it, and exactly the staged facts
    are removed again — O(|response|) per candidate instead of an
    O(|configuration|) structure rebuild.  Paths are tuples of candidate
    indices; a :class:`~repro.access.path.PathStep` is built only for a
    returned witness.

    ``stats`` accumulates instrumentation: ``node_memo_hits`` /
    ``node_memo_expansions`` for the expansion memo,
    ``sentence_cache_hits`` / ``sentence_cache_misses`` for guard cache
    lookups (kind-0 lookups count once per node, not once per candidate,
    and kind-2 sentences rejected by the method filter are not looked up
    at all, so these counters are informational).
    """

    def __init__(
        self,
        automaton: AAutomaton,
        vocabulary: AccessVocabulary,
        initial: Instance,
        *,
        max_length: int,
        max_response_size: int,
        max_paths: int,
        fact_pool: Optional[Sequence[Fact]] = None,
        value_pool: Optional[Sequence[object]] = None,
        grounded_only: bool = False,
        memoize: bool = True,
        candidate_tables: Optional[CandidateTables] = None,
    ) -> None:
        self.vocabulary = vocabulary
        self.max_length = max_length
        self.max_response_size = max_response_size
        self.max_paths = max_paths
        self.grounded_only = grounded_only
        # One switch for the expansion memo and the guard cache; the
        # memo's measured effect is in :func:`automaton_emptiness`.
        self.memoize = memoize
        if fact_pool is None or value_pool is None:
            derived_facts, derived_values = _guard_pools(automaton, vocabulary)
            fact_pool = derived_facts if fact_pool is None else fact_pool
            value_pool = derived_values if value_pool is None else value_pool
        # The resolved pools key the call's shared candidate tables.
        self.fact_pool: List[Fact] = list(fact_pool)
        self.value_pool: List[object] = list(value_pool)
        nary = any(
            sentence.mentions_nary_binding()
            for sentence in automaton.guard_sentences()
        )
        self.structure_names = prepost_names(vocabulary.access_schema.schema)
        # The candidate tables depend only on the pools, the response
        # bound and the binding arity; the chains of one emptiness call
        # share them through *candidate_tables*.
        tables_key = (
            tuple(self.fact_pool), tuple(self.value_pool), max_response_size, nary
        )
        tables = None if candidate_tables is None else candidate_tables.get(tables_key)
        if tables is None:
            tables = self._candidate_tables(nary)
            if candidate_tables is not None:
                candidate_tables[tables_key] = tables
        self.candidates, self.candidate_facts = tables
        self.accepting = automaton.accepting

        # Canonicalise guard sentences (different guards frequently embed
        # equal sentences) and bind each canonical sentence, once, to the
        # compiled boolean plans of its disjuncts (``bind_sentence``), so
        # evaluating a sentence is a direct plan execution — no per-call
        # UCQ normalisation, boolean rewriting or plan-cache lookup.
        records: Dict[object, SentenceRecord] = {}
        numbers = itertools.count()

        def _record(sentence) -> SentenceRecord:
            try:
                record = records.get(sentence)
            except TypeError:  # pragma: no cover - unhashable constants
                return bind_sentence(sentence, next(numbers))
            if record is None:
                record = records[sentence] = bind_sentence(sentence, next(numbers))
            return record

        # Transitions per source state with their guards pre-split into
        # kind-0 and kind>=1 sentence records:
        # ``(target, kind-0 positives, kind-0 negated, positives, negated)``.
        guard_parts: Dict[int, Tuple[Tuple, Tuple, Tuple, Tuple]] = {}
        compiled_transitions: Dict[str, List[Tuple]] = {}
        for transition in automaton.transitions:
            guard = transition.guard
            parts = guard_parts.get(id(guard))
            if parts is None:
                positives = [_record(s) for s in guard.positives]
                negated = [_record(s) for s in guard.negated]
                parts = guard_parts[id(guard)] = (
                    tuple(r for r in positives if r[1] == 0),
                    tuple(r for r in negated if r[1] == 0),
                    tuple(r for r in positives if r[1] > 0),
                    tuple(r for r in negated if r[1] > 0),
                )
            compiled_transitions.setdefault(transition.source, []).append(
                (transition.target,) + parts
            )
        self.compiled_transitions = compiled_transitions
        # The same lists cut to the transitions into accepting states: all
        # a last-level node evaluates (see :meth:`node_guards`).
        self.accepting_transitions: Dict[str, List[Tuple]] = {
            source: [entry for entry in entries if entry[0] in automaton.accepting]
            for source, entries in compiled_transitions.items()
        }

        # Sentence cache: (sentence number, config fingerprint[, the
        # part of the candidate its kind reads]) -> verdict.  Keying
        # sentences instead of whole guards shares work between guards
        # that embed the same sentence and across the re-exploration
        # inherent in iterative deepening.
        self.sentence_verdicts: Dict[Tuple, bool] = {}
        # Lookups of that cache as ``[hits, misses]``, folded into
        # ``stats`` once per DFS run.
        self._guard_tally = [0, 0]
        # Snapshot interning: revisiting a configuration (the norm under
        # iterative deepening) produces a structurally equal but distinct
        # Snapshot; mapping it to the first-seen object makes every later
        # memo lookup resolve through the identity fast path instead of a
        # structural comparison.
        self.interned_fingerprints: Dict[Snapshot, Snapshot] = {}

        self.initial_snapshot = SnapshotInstance.from_instance(initial).snapshot()
        self.initial_known = frozenset(initial.active_domain())
        self.start_states = frozenset({automaton.initial})

        self.stats: Dict[str, int] = {
            "node_memo_hits": 0,
            "node_memo_expansions": 0,
            "sentence_cache_hits": 0,
            "sentence_cache_misses": 0,
        }
        self.config: Optional[SnapshotInstance] = None
        self.base: Optional[Instance] = None

    def _candidate_tables(self, nary: bool) -> Tuple[List, List]:
        """The candidate steps (revealing first) and their structure facts."""
        return candidate_table(
            self.vocabulary,
            self.fact_pool,
            self.value_pool,
            self.max_response_size,
            nary,
        )

    # ------------------------------------------------------------------
    # Positioning
    # ------------------------------------------------------------------
    def _position(self, snapshot: Snapshot) -> None:
        """Point the configuration (and its structure mirror) at *snapshot*.

        The configuration lives in the persistent fact store: per-node
        snapshots are O(1), backtracking is an O(1) restore.  The combined
        transition structure ``base`` mirrors the configuration into the
        ``R_pre``/``R_post`` relations *once* and is then maintained by
        bounded local deltas: a candidate's facts are laid on top, its
        kind>=1 sentences evaluated, and exactly those facts removed
        again.  The structure never outlives a candidate, so it
        deliberately stays a dict-backed ``Instance`` — persistence would
        buy nothing there, while the delta maintenance turns the
        O(|configuration|) per-candidate structure rebuild into
        O(|response|), keeping the untouched relations' caches and
        indexes warm across candidates.
        """
        config = SnapshotInstance.from_snapshot(snapshot)
        base = Instance(self.vocabulary.schema)
        seed_structure_mirror(base, self.structure_names, config)
        self.config = config
        self.base = base

    # ------------------------------------------------------------------
    # Guard evaluation
    # ------------------------------------------------------------------
    def node_guards(
        self,
        states: FrozenSet[str],
        fingerprint: Optional[Snapshot],
        last_level: bool = False,
    ) -> Callable[[int], AbstractSet[str]]:
        """The guard evaluator of the positioned node: candidate index -> following states.

        *fingerprint* is the node's interned configuration snapshot, the
        key of the verdict cache (``None`` exactly when ``memoize`` is
        off).  The returned function gives, for one candidate step, the
        automaton states reached from *states* (empty when no transition
        fires).

        Guard work that cannot depend on the candidate happens here, once:
        every kind-0 sentence of the transitions out of *states* is decided
        against the node's structure, transitions failing one are dropped,
        and transitions whose whole guard is kind-0 contribute their target
        to every candidate's set.  Per candidate only the residual kind>=1
        sentences remain; they see the candidate's response (and, for kind
        2, its binding facts) staged over ``base``, and ``base`` is clean
        again when the function returns, so the caller may descend between
        calls.

        At a *last_level* node (one step short of the round's depth limit)
        the search only asks whether a candidate reaches an accepting
        state, so only the transitions into accepting states are
        evaluated, in the kind-0 pass and in the residual list alike: the
        returned sets hold the accepting states reached, and a
        non-accepting target, which could only feed a descent the last
        level never makes, costs no guard work.
        """
        base = self.base
        memoize = self.memoize
        sentence_verdicts = self.sentence_verdicts
        tally = self._guard_tally
        candidates = self.candidates
        candidate_facts = self.candidate_facts

        node_verdicts: Dict[int, bool] = {}

        def node_holds(record) -> bool:
            sentence_id = record[0]
            if memoize:
                key = (sentence_id, fingerprint)
                verdict = sentence_verdicts.get(key)
            else:
                verdict = node_verdicts.get(sentence_id)
            if verdict is None:
                tally[1] += 1
                verdict = plans_hold(record[2], base)
                if memoize:
                    sentence_verdicts[key] = verdict
                else:
                    node_verdicts[sentence_id] = verdict
            else:
                tally[0] += 1
            return verdict

        transitions = (
            self.accepting_transitions if last_level else self.compiled_transitions
        )
        always: Set[str] = set()
        residual: List[Tuple[str, Tuple, Tuple]] = []
        for state in states:
            for target, positives0, negated0, positives, negated in (
                transitions.get(state, ())
            ):
                if target in always:
                    continue
                if all(node_holds(r) for r in positives0) and not any(
                    node_holds(r) for r in negated0
                ):
                    if positives or negated:
                        residual.append((target, positives, negated))
                    else:
                        always.add(target)
        always_frozen = frozenset(always)
        if not residual:
            return lambda index: always_frozen
        if always:
            residual = [entry for entry in residual if entry[0] not in always]

        # The current candidate, shared by the two closures below.
        current = 0
        access = None
        response: FrozenSet[Tuple[object, ...]] = frozenset()
        stage = 0
        applied: List[Tuple[str, Tuple[object, ...]]] = []
        local_verdicts: Dict[int, bool] = {}

        def candidate_holds(record) -> bool:
            nonlocal stage
            sentence_id, kind, plans, methods = record
            if methods is not None and access.method.name not in methods:
                # Every disjunct names another method's binding predicate.
                return False
            if memoize:
                if kind == 1:
                    key = (
                        (sentence_id, fingerprint)
                        if not response
                        else (sentence_id, fingerprint, access.relation, response)
                    )
                else:
                    key = (sentence_id, fingerprint, current)
                verdict = sentence_verdicts.get(key)
            else:
                verdict = local_verdicts.get(sentence_id)
            if verdict is not None:
                tally[0] += 1
                return verdict
            tally[1] += 1
            # Lay the candidate's delta over the node's structure in stages
            # matched to what the sentence can observe: kind 1 needs the
            # response in the post relations, only kind 2 needs the binding
            # facts.  Each stage is applied at most once per candidate and
            # recorded for the undo.
            if stage < kind:
                _pre, post_rel, isbind_rel, binding_tup, isbind0_rel = (
                    candidate_facts[current]
                )
                if stage < 1:
                    for tup in response:
                        if base.add_unchecked(post_rel, tup):
                            applied.append((post_rel, tup))
                    stage = 1
                if stage < kind:
                    if base.add_unchecked(isbind_rel, binding_tup):
                        applied.append((isbind_rel, binding_tup))
                    if base.add_unchecked(isbind0_rel, ()):
                        applied.append((isbind0_rel, ()))
                    stage = 2
            verdict = plans_hold(plans, base)
            if memoize:
                sentence_verdicts[key] = verdict
            else:
                local_verdicts[sentence_id] = verdict
            return verdict

        def following_of(index: int) -> AbstractSet[str]:
            nonlocal current, access, response, stage, local_verdicts
            current = index
            access, response = candidates[index]
            stage = 0
            if not memoize:
                local_verdicts = {}
            following = set(always)
            for target, positives, negated in residual:
                if target in following:
                    continue
                if all(candidate_holds(r) for r in positives) and not any(
                    candidate_holds(r) for r in negated
                ):
                    following.add(target)
            if applied:
                # Undo exactly the candidate facts laid over the base.
                for relation_name, tup in applied:
                    base.discard(relation_name, tup)
                applied.clear()
            return following

        return following_of

    # ------------------------------------------------------------------
    # The DFS driver
    # ------------------------------------------------------------------
    def run(
        self,
        clock: Optional[BudgetClock] = None,
        checkpoint: Optional[ChainCheckpoint] = None,
    ) -> Tuple[
        Optional[AccessPath], int, bool, Dict[str, int], Optional[ChainCheckpoint]
    ]:
        """Iterative-deepening search for an accepted path.

        Returns ``(witness, explored, exhausted, stats, checkpoint)``.
        Short witnesses are found before the search commits to deep
        branches, and the final round (depth = ``max_length``) determines
        exhaustiveness.  Every candidate step tried counts as one explored
        path; the search gives up, undecided, when the count passes
        ``max_paths`` (``explored == max_paths + 1``).

        On the last level of a round (``remaining == 1``) the guards are
        evaluated for accepting targets only (:meth:`node_guards`): a
        counted candidate either is a witness or has no following state,
        so no delta is applied and undone there for a child the depth
        limit would stop at once.  A node that replays a checkpoint
        through one of its candidates is never on the last level.

        A started budget *clock* is charged the same count.  The search
        stops before the candidate that would pass the clock's node cap,
        and before any candidate at which it reads the wall clock (every
        :data:`~repro.core.budget.INTERRUPT_STRIDE` candidates) past the
        deadline.  It then returns a :class:`ChainCheckpoint` of its DFS
        stack instead of a verdict.  Passed back as *checkpoint* to a
        search built with the same arguments, the checkpoint's path is
        replayed from the initial snapshot and the search continues at
        the recorded candidate.
        """
        self._position(self.initial_snapshot)
        config = self.config
        base = self.base
        candidates = self.candidates
        num_candidates = len(candidates)
        candidate_facts = self.candidate_facts
        node_guards = self.node_guards
        accepting = self.accepting
        interned_fingerprints = self.interned_fingerprints
        memoize = self.memoize
        grounded_only = self.grounded_only
        max_paths = self.max_paths

        if checkpoint is None:
            first_round, explored, replay = 1, 0, ()
            expanded: Dict[Tuple, int] = {}
        else:
            first_round = checkpoint.depth_limit
            explored = checkpoint.explored
            replay = checkpoint.path
            expanded = dict(checkpoint.expanded or ())
        started = explored
        # The loop compares the count with ``check_at`` alone; past it,
        # the node cap and (for a deadline) the wall clock are consulted.
        stop_at = check_at = _UNBOUNDED
        deadline_hit: Optional[Callable[[], bool]] = None
        if clock is not None:
            cap = clock.budget.node_cap
            if cap is not None:
                stop_at = explored + max(0, cap - clock.charged)
            check_at = stop_at
            if clock.budget.deadline_s is not None:
                deadline_hit = clock.deadline_hit
                check_at = explored

        path: List[int] = []
        stop_path: Optional[Tuple[int, ...]] = None
        stopped = False
        node_hits = 0
        node_expansions = 0
        depth_limit = first_round

        def dfs(
            states: FrozenSet[str], known: FrozenSet[object], replay: Tuple[int, ...]
        ) -> Optional[Tuple[int, ...]]:
            """Candidate indices of a witness below the current node, if any.

            *replay* is the rest of a checkpoint's path: this node was
            expanded before the interruption, and the search continues at
            ``replay[0]``.
            """
            nonlocal explored, stopped, stop_path, check_at
            nonlocal node_hits, node_expansions
            depth = len(path)
            if depth >= depth_limit:
                return None
            remaining = depth_limit - depth
            node_config = config.snapshot()
            if memoize:
                # The snapshot is an exact content fingerprint: O(1) to
                # hash, structural (identity-short-circuited) equality on
                # collision.  The guard cache and the expansion memo both
                # key on it.
                fingerprint: Optional[Snapshot] = interned_fingerprints.setdefault(
                    node_config, node_config
                )
                if not replay:
                    node_key = (
                        (states, fingerprint, known)
                        if grounded_only
                        else (states, fingerprint)
                    )
                    if expanded.get(node_key, 0) >= remaining:
                        node_hits += 1
                        return None
                    expanded[node_key] = remaining
                    node_expansions += 1
            else:
                fingerprint = None
            # A checkpoint's path stops at most at the depth limit, so a
            # node that replays through a candidate is above the last level
            # and keeps the full evaluation its candidate needs.
            following_of = node_guards(states, fingerprint, remaining == 1)
            # Below a replayed candidate the DFS was already descending.
            through = replay[1:]
            for index in range(replay[0] if replay else 0, num_candidates):
                access, response = candidates[index]
                if through:
                    following_frozen = frozenset(following_of(index))
                    child_replay, through = through, ()
                else:
                    child_replay = ()
                    if grounded_only and not all(
                        value in known for value in access.binding
                    ):
                        continue
                    if explored >= check_at:
                        if explored >= stop_at or deadline_hit():
                            stop_path = tuple(path) + (index,)
                            stopped = True
                            return None
                        check_at = min(stop_at, explored + INTERRUPT_STRIDE)
                    explored += 1
                    if explored > max_paths:
                        stopped = True
                        return None
                    following = following_of(index)
                    if not following:
                        continue
                    if following & accepting:
                        return tuple(path) + (index,)
                    following_frozen = frozenset(following)
                    if not response and following_frozen == states:
                        # An information-free step that does not move the
                        # automaton is a stutter: any accepting
                        # continuation from the child is also available
                        # from the current node.
                        continue
                # Apply the delta to the configuration (snapshot-restored
                # on the way back: O(1) undo) and its structure mirror
                # (undone by the recorded delta), then recurse.
                pre_rel, post_rel = candidate_facts[index][:2]
                descended: List[Tuple[object, ...]] = []
                for tup in response:
                    if config.add_unchecked(access.relation, tup):
                        base.add_unchecked(pre_rel, tup)
                        base.add_unchecked(post_rel, tup)
                        descended.append(tup)
                path.append(index)
                new_known = known | frozenset(access.binding) | frozenset(
                    value for tup in response for value in tup
                )
                witness = dfs(following_frozen, new_known, child_replay)
                path.pop()
                config.restore(node_config)
                for tup in descended:
                    base.discard(pre_rel, tup)
                    base.discard(post_rel, tup)
                if witness is not None or stopped:
                    return witness
            return None

        witness = None
        for depth_limit in range(first_round, self.max_length + 1):
            witness = dfs(self.start_states, self.initial_known, replay)
            replay = ()
            if witness is not None or stopped:
                break
        if clock is not None:
            clock.charge(explored - started)
        stats = self.stats
        stats["node_memo_hits"] += node_hits
        stats["node_memo_expansions"] += node_expansions
        tally = self._guard_tally
        stats["sentence_cache_hits"] += tally[0]
        stats["sentence_cache_misses"] += tally[1]
        tally[0] = tally[1] = 0
        if witness is not None:
            path_steps = AccessPath(tuple(PathStep(*candidates[i]) for i in witness))
            return path_steps, explored, False, dict(stats), None
        if stop_path is not None:
            return None, explored, False, dict(stats), ChainCheckpoint(
                depth_limit,
                explored,
                stop_path,
                tuple(expanded.items()) if memoize else None,
            )
        return None, explored, not stopped, dict(stats), None


@dataclass(frozen=True)
class ChainOutcome:
    """The verdict of one Lemma 4.9 chain restriction.

    A non-``None`` ``checkpoint`` means the budget expired inside the
    chain: it is *undecided*, ``explored``/``stats`` only carry the
    partial work for the UNKNOWN result's accounting, and the outcome
    must not enter the chain fold.
    """

    prechecked_empty: bool
    witness: Optional[AccessPath]
    explored: int
    exhausted: bool
    stats: Optional[Dict[str, int]] = None
    checkpoint: Optional[ChainCheckpoint] = None


def check_restriction(
    restriction: AAutomaton,
    vocabulary: AccessVocabulary,
    initial: Instance,
    search_kwargs: Dict[str, object],
    use_datalog_precheck: bool,
    clock: Optional[BudgetClock] = None,
    checkpoint: Optional[ChainCheckpoint] = None,
    memo: Optional[CallMemo] = None,
) -> ChainOutcome:
    """Precheck + witness search for a single chain restriction.

    This is the unit of work of :func:`_check_chains`.  *search_kwargs*
    are the :class:`_WitnessSearch` arguments.

    With a started budget *clock* the search can stop before a candidate
    (:meth:`_WitnessSearch.run`); the outcome then carries a
    :class:`ChainCheckpoint`, and passing it back as *checkpoint* resumes
    the chain.  A resumed call skips the precheck: a chain that
    checkpoints necessarily passed it already.  The precheck itself is
    not interruptible, so a deadline can overshoot by at most one
    chain's precheck.

    The precheck decides each distinct guard once (its verdict depends on
    the guard and *initial* alone), and the search derives its candidate
    tables from its pools alone.  *memo* holds both (:class:`CallMemo`):
    the chain loop of one :func:`automaton_emptiness` call passes one
    memo to all its chains, so each guard is checked, and each distinct
    pool's candidates are built, once per call.  Without it the chain
    keeps its own.
    """
    if memo is None:
        memo = CallMemo()
    with trace.trace_span(
        "emptiness.chain",
        states=len(restriction.states),
        budgeted=clock is not None,
        resumed=checkpoint is not None,
    ):
        if checkpoint is None and use_datalog_precheck:
            prechecked = _precheck_empty(
                restriction, vocabulary, memo.guard_verdicts, initial
            )
            if prechecked is True:
                trace.annotate(outcome="prechecked_empty")
                return ChainOutcome(
                    prechecked_empty=True, witness=None, explored=0, exhausted=True
                )
        search = _WitnessSearch(
            restriction,
            vocabulary,
            initial,
            candidate_tables=memo.candidate_tables,
            **search_kwargs,
        )
        witness, explored, exhausted, stats, checkpoint = search.run(
            clock, checkpoint
        )
        trace.annotate(
            outcome="interrupted"
            if checkpoint is not None
            else ("witness" if witness is not None else "no_witness"),
            explored=explored,
        )
    return ChainOutcome(
        prechecked_empty=False,
        witness=witness,
        explored=explored,
        exhausted=exhausted,
        stats=stats,
        checkpoint=checkpoint,
    )


def _frontier_signature(
    quotient: AAutomaton, num_chains: int, search_kwargs: Dict[str, object]
) -> Tuple:
    """A structural fingerprint of one anytime emptiness call.

    Stored on the frontier and re-derived on resume: a mismatch means the
    caller is trying to continue a different check (another automaton, or
    the same one under different search parameters), which would silently
    corrupt the resumed arithmetic — so it raises instead.  Budgets are
    deliberately *not* part of the signature: resuming with a different
    (or no) budget is the point of the anytime mode.
    """
    return (
        getattr(quotient, "name", None),
        quotient.size(),
        num_chains,
        tuple(sorted((key, repr(value)) for key, value in search_kwargs.items())),
    )


def _tally(outcomes: Iterable[ChainOutcome]) -> Tuple[int, Dict[str, int]]:
    """Paths explored and the merged search stats of *outcomes*."""
    explored = 0
    stats: Dict[str, int] = {}
    for outcome in outcomes:
        explored += outcome.explored
        for key, value in (outcome.stats or {}).items():
            stats[key] = stats.get(key, 0) + value
    return explored, stats


def _unknown_result(
    completed: Sequence[ChainOutcome],
    partial: Optional[ChainOutcome],
    num_chains: int,
    frontier: ResumeFrontier,
) -> EmptinessResult:
    """The tagged UNKNOWN verdict: budget spent, frontier attached."""
    total_explored, stats = _tally(
        list(completed) + ([partial] if partial is not None else [])
    )
    _metrics.counter("emptiness.unknown_results")
    _metrics.absorb("emptiness", stats)
    return EmptinessResult(
        empty=False,
        witness=None,
        exhausted=False,
        paths_explored=total_explored,
        chains_checked=num_chains,
        stats=stats or None,
        unknown=True,
        frontier=frontier,
    )


def _check_chains(
    restrictions: Sequence[AAutomaton],
    vocabulary: AccessVocabulary,
    initial: Instance,
    search_kwargs: Dict[str, object],
    use_datalog_precheck: bool,
    clock: Optional[BudgetClock] = None,
    resume_from: Optional[ResumeFrontier] = None,
    signature: Tuple = (),
) -> EmptinessResult:
    """The chain loop, budgeted when *clock* is given.

    Chains run in restriction order (the resume order) up to the first
    witness, sharing one :class:`CallMemo`, and their outcomes fold in
    that order.  With a started *clock* the loop stops before a chain
    once the budget has run out, or inside a chain via a
    :class:`ChainCheckpoint`, and returns the tagged UNKNOWN result;
    *resume_from* continues such a run.  A finished budgeted call folds
    the same outcomes as the unbudgeted one, so the two results are
    field-identical.
    """
    completed: List[ChainOutcome] = []
    start_chain = 0
    checkpoint = None
    if resume_from is not None:
        completed = list(resume_from.completed)
        start_chain = resume_from.chain_index
        checkpoint = resume_from.checkpoint
    num_chains = len(restrictions)
    memo = CallMemo()
    for index in range(start_chain, num_chains):
        if clock is not None and checkpoint is None and clock.expired():
            return _unknown_result(
                completed,
                None,
                num_chains,
                ResumeFrontier(index, None, tuple(completed), num_chains, signature),
            )
        outcome = check_restriction(
            restrictions[index],
            vocabulary,
            initial,
            search_kwargs,
            use_datalog_precheck,
            clock=clock,
            checkpoint=checkpoint,
            memo=memo,
        )
        checkpoint = None
        if outcome.checkpoint is not None:
            return _unknown_result(
                completed,
                outcome,
                num_chains,
                ResumeFrontier(
                    index, outcome.checkpoint, tuple(completed), num_chains, signature
                ),
            )
        completed.append(outcome)
        if outcome.witness is not None:
            break
    for outcome in completed:
        if outcome.prechecked_empty:
            _metrics.counter("emptiness.prechecked_chains")
    total_explored, stats = _tally(completed)
    # Only the last outcome can carry a witness: the loop stops there.
    witness = completed[-1].witness
    _metrics.counter(
        "emptiness.empty_results" if witness is None else "emptiness.nonempty_results"
    )
    _metrics.absorb("emptiness", stats)
    return EmptinessResult(
        empty=witness is None,
        witness=witness,
        exhausted=witness is None and all(outcome.exhausted for outcome in completed),
        paths_explored=total_explored,
        chains_checked=num_chains,
        stats=stats or None,
    )


def automaton_emptiness(
    automaton: AAutomaton,
    vocabulary: AccessVocabulary,
    initial: Optional[Instance] = None,
    max_length: Optional[int] = None,
    max_response_size: int = 2,
    max_paths: int = 40000,
    use_chain_decomposition: bool = True,
    use_datalog_precheck: bool = True,
    fact_pool: Optional[Sequence[Fact]] = None,
    value_pool: Optional[Sequence[object]] = None,
    grounded_only: bool = False,
    memoize: bool = True,
    parallel: Optional[bool] = None,
    subtree_parallel: Optional[bool] = None,
    budget: Optional[Budget] = None,
    resume_from: Optional[ResumeFrontier] = None,
) -> EmptinessResult:
    """Decide (within bounds) whether ``L(A)`` is empty.

    The pipeline follows the proof of Theorem 4.6: trim, minimise
    (:meth:`~repro.automata.aautomaton.AAutomaton.minimise`: accepting
    states become sinks, a forward bisimulation merges the rest — the
    quotient preserves emptiness, not the language), decompose into
    SCC-chain restrictions (Lemma 4.9, subsumed chains dropped),
    optionally (``use_datalog_precheck``) prune the transitions whose
    guard no transition from a configuration containing *initial* can
    satisfy (:func:`datalog_emptiness_precheck`: canonical transition
    structures, or Datalog containment for guards with a negated
    inequality — Lemma 4.10 direction "containment ⇒ empty"), and return
    an exhausted EMPTY with 0 paths for a chain left without a reachable
    accepting state; then search each remaining chain for an accepted
    path.  The precheck orders the guards accepting-first: a chain whose
    initial state is not accepting and whose guards into accepting
    states are all refuted is EMPTY without its loop guards being
    checked.  Every witness is accepted by the quotient, hence by
    *automaton* itself; task fingerprints stay keyed on the caller's
    automaton.

    ``memoize`` toggles the witness search's visited-node and guard-verdict
    caches together (see :class:`_WitnessSearch`); it exists so tests and
    the ablation benchmark can demonstrate that memoisation changes only
    the work performed, never the verdict or the validity of the witness
    of a search that finishes under ``max_paths``.  At that cap the memo
    decides more: on the ``synthetic-1`` containment automaton capped at
    120 paths, the memoised search finds its witness after 94 paths
    while the unmemoised one stops undecided at 121 (it needs 149).
    Engine-run emptiness tasks keep the default (on);
    ``EmptinessResult.stats`` reports both caches
    (``node_memo_hits``/``node_memo_expansions`` and
    ``sentence_cache_hits``/``sentence_cache_misses``).  The guard-cache
    counters are informational: sentences over the pre configuration are
    looked up once per node rather than once per candidate, and binding
    sentences naming another method than the candidate's are rejected
    without a lookup, so their totals and hit ratio move with those
    filters, not with the work a verdict needs.

    ``parallel`` and ``subtree_parallel`` are accepted and ignored: every
    chain runs the one witness search in process, and they stay only
    because the ``chains_pooled`` benchmark still passes them.

    ``budget`` makes the check *anytime*: when the
    :class:`~repro.core.budget.Budget` (wall-clock deadline and/or
    explored-node cap) expires before a verdict, the result is tagged
    ``unknown=True`` and carries a picklable :class:`ResumeFrontier`;
    pass it back via ``resume_from`` — with a fresh budget, or none — to
    continue exactly where the interrupted call stopped.  The node cap
    counts candidate steps, the unit of ``paths_explored``, so a capped
    call stops after exactly that many (plus the completed chains'
    count).  Resuming to completion yields a result field-identical to
    the uninterrupted run (the property the anytime tests pin); a
    ``resume_from`` whose signature does not match this call raises
    ``ValueError``.
    """
    if initial is None:
        initial = vocabulary.access_schema.empty_instance()
    quotient = automaton.minimise()
    if not quotient.accepting:
        return EmptinessResult(
            empty=True, witness=None, exhausted=True, paths_explored=0, chains_checked=0
        )
    restrictions = (
        chain_restrictions(quotient) if use_chain_decomposition else [quotient]
    )
    if not restrictions:
        restrictions = [quotient]

    if max_length is None:
        if fact_pool is None:
            fact_pool_size = len(_guard_pools(quotient, vocabulary)[0])
        else:
            fact_pool_size = len(fact_pool)
        max_length = max(2, fact_pool_size + 2)

    search_kwargs: Dict[str, object] = {
        "max_length": max_length,
        "max_response_size": max_response_size,
        "max_paths": max_paths,
        "fact_pool": fact_pool,
        "value_pool": value_pool,
        "grounded_only": grounded_only,
        "memoize": memoize,
    }

    clock = None
    signature: Tuple = ()
    if budget is not None or resume_from is not None:
        signature = _frontier_signature(quotient, len(restrictions), search_kwargs)
        if resume_from is not None and resume_from.signature != signature:
            raise ValueError(
                "resume_from frontier does not match this emptiness call "
                "(different automaton or search parameters)"
            )
        if resume_from is not None:
            _metrics.counter("emptiness.resume_hops")
            trace.event(
                "emptiness.resume_hop",
                chain_index=resume_from.chain_index,
                completed=len(resume_from.completed),
            )
        clock = (budget if budget is not None else Budget()).start()
    return _check_chains(
        restrictions,
        vocabulary,
        initial,
        search_kwargs,
        use_datalog_precheck,
        clock,
        resume_from,
        signature,
    )


# ----------------------------------------------------------------------
# The Datalog-containment connection (Lemma 4.10 / Proposition 4.11),
# the guard-pruning pre-check's fallback for negated inequalities.
# ----------------------------------------------------------------------
def guard_to_datalog(
    guard, vocabulary: AccessVocabulary
) -> Optional[DatalogProgram]:
    """The positive part of a guard as a (nonrecursive) Datalog program.

    The program's EDB is the access vocabulary itself.  Each positive
    conjunct ``Sᵢ`` of ``ψ⁺`` gets an intensional 0-ary predicate
    ``Holds_i`` with one rule per disjunct of ``Sᵢ``, and the goal
    ``GuardHolds`` requires all of them.  A transition structure satisfies
    ``ψ⁺`` iff the program accepts it, which is how the guard enters the
    Datalog-containment machinery of Proposition 4.11 below.  Returns
    ``None`` for guards whose positive part is trivial or contains an
    atom-free disjunct (always true).
    """
    if not guard.positives:
        return None
    rules: List[Rule] = []
    goal_body: List[Atom] = []
    for index, sentence in enumerate(guard.positives):
        holds_atom = Atom(f"Holds_{index}", ())
        goal_body.append(holds_atom)
        for disjunct in sentence.query.disjuncts:
            if not disjunct.atoms:
                return None
            rules.append(
                Rule(
                    head=holds_atom,
                    body=disjunct.atoms,
                    equalities=disjunct.equalities,
                    inequalities=disjunct.inequalities,
                )
            )
    rules.append(Rule(head=Atom("GuardHolds", ()), body=tuple(goal_body)))
    return DatalogProgram(rules=rules, edb_schema=vocabulary.schema, goal="GuardHolds")


def guard_unsatisfiable_via_datalog(guard, vocabulary: AccessVocabulary) -> bool:
    """Whether the guard can be proven unsatisfiable by Datalog containment.

    A guard ``ψ⁺ ∧ ⋀ᵢ ¬Nᵢ`` is unsatisfiable whenever the Datalog program
    of ``ψ⁺`` is contained (Proposition 4.11) in one of the ``Nᵢ``: every
    structure meeting the positive requirement then violates the negative
    one.  This is the direction of Lemma 4.10 in which containment implies
    emptiness of the transitions using the guard; it is sound (a ``True``
    answer is always correct) and is exactly what collapses, e.g., the
    counterexample automaton for ``Q1 ⊆ Q2`` when the containment holds
    classically.

    It stays as the fallback of the transition refuter
    (:func:`~repro.core.refuter.transitions_refute_guard`), which declines
    every guard whose negated sentence has inequalities: for those guards
    this is the only pruner left.
    ``tests/test_transition_precheck.py::test_negated_inequality_still_prunes_through_containment``
    pins that case.  It runs 0 times on a seed-1 ``decide_cold`` round,
    where the refuter decides every guard.
    """
    program = guard_to_datalog(guard, vocabulary)
    if program is None:
        return False
    for sentence in guard.negated:
        result: ContainmentResult = datalog_contained_in_ucq(program, sentence.query)
        if result.contained and result.exhaustive:
            return True
    return False


def prune_unsatisfiable_guards(
    automaton: AAutomaton,
    vocabulary: AccessVocabulary,
    initial: Optional[Instance] = None,
) -> AAutomaton:
    """Remove transitions whose guards are provably unsatisfiable, then trim.

    A guard is unsatisfiable when no transition from a configuration
    containing *initial* (``None``: the empty instance) satisfies it
    (:func:`~repro.core.refuter.transitions_refute_guard`, or the Datalog
    containment of :func:`guard_unsatisfiable_via_datalog` for the guards
    that check declines).
    """
    initial = _initial_or_empty(vocabulary, initial)
    return _prune_guards(automaton, _GuardRefuter(vocabulary, {}, initial))


def datalog_emptiness_precheck(
    automaton: AAutomaton,
    vocabulary: AccessVocabulary,
    initial: Optional[Instance] = None,
) -> Optional[bool]:
    """``True`` when guard pruning proves the language empty, else ``None``.

    The guards of the transitions into accepting states are refuted
    first: when the initial state is not accepting and every one of them
    is unsatisfiable, no accepting state is reachable and the loop guards
    are never checked.  Otherwise every transition with a provably
    unsatisfiable guard is removed (see :func:`prune_unsatisfiable_guards`;
    *initial* ``None`` means the empty instance), and an automaton left
    with no reachable accepting state has an empty language.  Both orders
    give the same verdict: an accepted path from a non-accepting initial
    state ends with a transition into an accepting state.  The check never
    claims non-emptiness (the caller's witness search is responsible for
    that).  Each distinct guard object is checked once, however many
    transitions share it; :func:`check_restriction` goes further and
    shares those verdicts across every chain of one
    :func:`automaton_emptiness` call (the chains share their transitions
    and their initial instance).
    """
    return _precheck_empty(
        automaton, vocabulary, {}, _initial_or_empty(vocabulary, initial)
    )


def _initial_or_empty(
    vocabulary: AccessVocabulary, initial: Optional[Instance]
) -> Instance:
    if initial is None:
        return vocabulary.access_schema.empty_instance()
    return initial


class _GuardRefuter:
    """Whether a guard is unsatisfiable, memoised in one precheck scope.

    Verdicts go to *verdicts* (:data:`GuardVerdicts`); ``checked`` counts
    the guards this instance decided rather than found there.
    """

    def __init__(
        self, vocabulary: AccessVocabulary, verdicts: GuardVerdicts, initial: Instance
    ) -> None:
        self.vocabulary = vocabulary
        self.verdicts = verdicts
        self.initial = initial
        self.refuter: Optional[TransitionRefuter] = None
        self.checked = 0

    def __call__(self, guard) -> bool:
        entry = self.verdicts.get(id(guard))
        if entry is None:
            if self.refuter is None:
                self.refuter = TransitionRefuter(self.vocabulary, self.initial)
            verdict = self.refuter.refutes(guard.positives, guard.negated)
            if verdict is None:
                verdict = guard_unsatisfiable_via_datalog(guard, self.vocabulary)
            entry = self.verdicts[id(guard)] = (guard, verdict)
            self.checked += 1
        return entry[1]


def _prune_guards(automaton: AAutomaton, refuted: _GuardRefuter) -> AAutomaton:
    pruned = AAutomaton(
        states=automaton.states,
        initial=automaton.initial,
        accepting=automaton.accepting,
        transitions=[t for t in automaton.transitions if not refuted(t.guard)],
        name=automaton.name,
    )
    return pruned.trim()


def _precheck_empty(
    automaton: AAutomaton,
    vocabulary: AccessVocabulary,
    verdicts: GuardVerdicts,
    initial: Instance,
) -> Optional[bool]:
    with trace.trace_span("emptiness.precheck"):
        refuted = _GuardRefuter(vocabulary, verdicts, initial)
        accepting = automaton.accepting
        shortcut = automaton.initial not in accepting and all(
            refuted(t.guard) for t in automaton.transitions if t.target in accepting
        )
        if shortcut:
            empty = True
        else:
            pruned = _prune_guards(automaton, refuted)
            empty = not (pruned.reachable_states() & pruned.accepting)
        trace.annotate(guards_checked=refuted.checked, shortcut=shortcut)
    return True if empty else None
