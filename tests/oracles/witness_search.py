"""The witness search before its last-level rule (a test oracle).

:class:`ReferenceWitnessSearch` is
:class:`~repro.automata.emptiness._WitnessSearch` with the earlier
``node_guards`` and ``run``, copied unchanged: every node evaluates the
guards of every transition out of its states, and every counted
candidate with a successor state descends, including into a child at the
round's depth limit, which returns at once.  The library's search skips
that work on the last level of each round; :func:`reference_emptiness`
runs :func:`~repro.automata.emptiness.automaton_emptiness` on this
search instead, so the two can be compared field by field.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Dict, FrozenSet, List, Optional, Set, Tuple
from unittest import mock

from repro.access.path import AccessPath, PathStep
from repro.automata import emptiness
from repro.automata.emptiness import (
    _UNBOUNDED,
    ChainCheckpoint,
    EmptinessResult,
    _WitnessSearch,
)
from repro.core.budget import INTERRUPT_STRIDE, BudgetClock
from repro.core.transition import plans_hold
from repro.store.snapshot import Snapshot


def reference_emptiness(*args, **kwargs) -> EmptinessResult:
    """``automaton_emptiness(*args, **kwargs)`` on the reference search."""
    with mock.patch.object(emptiness, "_WitnessSearch", ReferenceWitnessSearch):
        return emptiness.automaton_emptiness(*args, **kwargs)


class ReferenceWitnessSearch(_WitnessSearch):
    """The witness search with full evaluation and descent at every level."""

    def node_guards(
        self, states: FrozenSet[str], fingerprint: Optional[Snapshot]
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

        always: Set[str] = set()
        residual: List[Tuple[str, Tuple, Tuple]] = []
        for state in states:
            for target, positives0, negated0, positives, negated in (
                self.compiled_transitions.get(state, ())
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
            following_of = node_guards(states, fingerprint)
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
