"""Anytime budgets for the decision procedures.

The paper's procedures run to completion or not at all; the serving
north-star needs every decision surface to return *something* bounded in
time (the BlinkDB shape: bounded time, explicitly tagged approximation).
A :class:`Budget` caps one call of :func:`repro.automata.emptiness.automaton_emptiness`,
:func:`repro.core.bounded_check.bounded_satisfiability` or
:meth:`repro.engine.DecisionEngine.run_batch` along two axes:

* ``deadline_s`` — wall-clock seconds measured from call entry (a
  *duration*, not an absolute timestamp, so a budget ships to worker
  processes unchanged and each holder starts its own clock);
* ``node_cap`` — a cap on explored search nodes (candidate steps, the
  unit of ``paths_explored``).  Unlike the wall clock it is
  deterministic: a capped search stops after exactly that many, which is
  what lets the resume property tests interrupt a search at scripted
  points and pin the resumed result against the uninterrupted run.

A budget never changes a completed verdict — it only decides *whether*
the procedure finishes.  On expiry, emptiness returns a tagged
``UNKNOWN`` result carrying a picklable frontier
(:class:`repro.automata.emptiness.ResumeFrontier`) from which
``automaton_emptiness(resume_from=...)`` continues exactly where the
interrupted call stopped; the bounded checker returns a result tagged
``interrupted=True`` (sound: never a wrong witness, never a claimed
exhaustion).

:class:`BudgetClock` is the mutable per-call state: it is started once
per call (:meth:`Budget.start`) and charged with the work each search
did.  The searches compare their own count with the node cap before
every candidate and read the wall clock every :data:`INTERRUPT_STRIDE`
candidates (:meth:`BudgetClock.deadline_hit`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Budget:
    """An anytime budget: wall-clock deadline and/or explored-node cap.

    Both axes are optional; ``Budget()`` never expires (useful as a
    neutral element).  The dataclass is frozen, hashable and picklable,
    so budgets can ride inside task fingerprints and pool payloads.
    """

    deadline_s: Optional[float] = None
    node_cap: Optional[int] = None

    def start(self, clock: Callable[[], float] = time.monotonic) -> "BudgetClock":
        """Begin charging this budget now (``clock`` is injectable for tests)."""
        return BudgetClock(self, clock=clock)

    @property
    def unbounded(self) -> bool:
        return self.deadline_s is None and self.node_cap is None


#: How many search candidates between two reads of the wall clock: small
#: enough that a deadline overshoot is bounded by a few hundred guard
#: evaluations.
INTERRUPT_STRIDE = 128


class BudgetClock:
    """Mutable per-call state of one started :class:`Budget`.

    ``charge`` records completed work (explored nodes); ``expired``
    reports whether either axis ran out.  The node cap is checked only
    against *charged* work, so expiry points are a pure function of the
    work done — deterministic and resumable.
    """

    __slots__ = ("budget", "_clock", "_deadline", "_charged")

    def __init__(
        self, budget: Budget, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.budget = budget
        self._clock = clock
        self._deadline = (
            clock() + budget.deadline_s if budget.deadline_s is not None else None
        )
        self._charged = 0

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def charge(self, nodes: int) -> None:
        """Record *nodes* explored nodes of completed work."""
        self._charged += int(nodes)

    @property
    def charged(self) -> int:
        return self._charged

    # ------------------------------------------------------------------
    # Expiry
    # ------------------------------------------------------------------
    def deadline_hit(self) -> bool:
        return self._deadline is not None and self._clock() >= self._deadline

    def node_cap_hit(self) -> bool:
        cap = self.budget.node_cap
        return cap is not None and self._charged >= cap

    def expired(self) -> bool:
        """Whether either budget axis ran out."""
        return self.node_cap_hit() or self.deadline_hit()

    def remaining_s(self) -> Optional[float]:
        """Seconds left on the wall clock (``None`` when no deadline)."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - self._clock())

    def remaining_budget(self) -> Budget:
        """The unspent portion, as a fresh :class:`Budget`.

        Used when handing part of a batch budget to an individual task
        (which starts its own clock on the remaining duration).
        """
        cap = self.budget.node_cap
        return Budget(
            deadline_s=self.remaining_s(),
            node_cap=None if cap is None else max(0, cap - self._charged),
        )
