"""Unified reduction engine: one batched decision layer under the access procedures.

See ``src/repro/engine/README.md`` for the reduction taxonomy and cache
keys, and :mod:`repro.engine.engine` for the dispatch semantics.
"""

from repro.core.budget import Budget
from repro.engine.reduction import (
    BOUNDED_CHECK,
    EMPTINESS,
    CachePolicy,
    Deduper,
    ReductionResult,
    ReductionTask,
    instance_key,
    query_key,
    schema_key,
    values_key,
    vocabulary_key,
)
from repro.engine.engine import (
    DecisionEngine,
    accltl_sat_task,
    answerability_task,
    bounded_check_task,
    containment_task,
    ctl_check_task,
    datalog_containment_task,
    emptiness_task,
    execute_task,
    ltl_word_task,
    relevance_task,
    shared_engine,
)

__all__ = [
    "BOUNDED_CHECK",
    "Budget",
    "EMPTINESS",
    "CachePolicy",
    "Deduper",
    "DecisionEngine",
    "ReductionResult",
    "ReductionTask",
    "accltl_sat_task",
    "answerability_task",
    "bounded_check_task",
    "containment_task",
    "ctl_check_task",
    "datalog_containment_task",
    "emptiness_task",
    "execute_task",
    "instance_key",
    "ltl_word_task",
    "query_key",
    "relevance_task",
    "schema_key",
    "shared_engine",
    "values_key",
    "vocabulary_key",
]
