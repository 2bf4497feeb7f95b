"""Fault-injection harness (``REPRO_FAULT_INJECT``) and env-knob warnings.

:mod:`repro.store.faults` scripts faults at the storage points; the
suites that inject them (``tests/test_verdict_cache.py``,
``tests/test_sqlstore.py``) assert that no verdict changes.  This file
covers the spec parser, the per-point hit counters, the environment
plan, and the one-time warning every malformed knob value raises.
"""

from __future__ import annotations

import warnings as warnings_module

import pytest

from repro.obs import env as envknobs
from repro.store import faults
from repro.store.faults import (
    FAULT_INJECT_ENV,
    Fault,
    FaultPlan,
    parse_fault_spec,
)
from repro.store.verdict_cache import VerdictCache


@pytest.fixture(autouse=True)
def _clean_fault_state():
    """No plan leaks between tests."""
    faults.clear()
    yield
    faults.clear()


# ---------------------------------------------------------------------------
# Spec parsing and plan bookkeeping
# ---------------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_full_spec(self):
        plan = parse_fault_spec("kill@sql_commit:2,trip@lock_timeout:0, trip@disk_full:1")
        assert plan == (
            Fault("kill", "sql_commit", 2),
            Fault("trip", "lock_timeout", 0),
            Fault("trip", "disk_full", 1),
        )

    def test_parse_rejects_malformed_entries(self):
        for bad in ("kill", "kill@", "explode@torn_write:0", "kill@nowhere:0",
                    "kill@subtree:0", "kill@chain:0", "kill@task:0",
                    "delay@torn_write:0", "trip@torn_write:0:0.2",
                    "kill@torn_write:-1", "kill@torn_write:x"):
            with pytest.raises(ValueError):
                parse_fault_spec(bad)

    def test_plan_counters_are_per_point(self):
        plan = FaultPlan(parse_fault_spec("kill@sql_commit:1,trip@torn_write:0"))
        assert plan.next_fault("sql_commit") is None  # hit 0
        assert plan.next_fault("torn_write").action == "trip"  # hit 0
        assert plan.next_fault("sql_commit").action == "kill"  # hit 1
        assert plan.next_fault("sql_commit") is None  # hit 2
        assert plan.next_fault("torn_write") is None  # hit 1

    def test_install_and_clear(self):
        plan = faults.install("trip@disk_full:0")
        assert faults.active_plan() is plan
        faults.clear()
        assert faults.active_plan() is None

    def test_env_plan_is_cached_per_raw_string(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "trip@disk_full:5")
        first = faults.active_plan()
        assert first is faults.active_plan()  # same raw string, same plan
        monkeypatch.setenv(FAULT_INJECT_ENV, "trip@disk_full:6")
        assert faults.active_plan() is not first  # fresh plan + counters

    def test_malformed_env_spec_disables_injection(self, monkeypatch):
        # ``kill@task:0`` names the retired pooled-task point.
        for spec in ("not-a-spec", "kill@task:0"):
            monkeypatch.setattr(envknobs, "_ENV_WARNED", set())
            monkeypatch.setenv(FAULT_INJECT_ENV, spec)
            with pytest.warns(RuntimeWarning, match=FAULT_INJECT_ENV):
                plan = faults.active_plan()
            assert plan is not None and plan.faults == ()
            assert faults.storage_fault("disk_full") is None  # injects nothing


# ---------------------------------------------------------------------------
# Environment-variable validation is loud, never silent
# ---------------------------------------------------------------------------
class TestEnvWarnings:
    @pytest.fixture(autouse=True)
    def _fresh_warning_state(self, monkeypatch):
        monkeypatch.setattr(envknobs, "_ENV_WARNED", set())

    def test_invalid_memo_capacity_warns_once_and_uses_default(self, monkeypatch):
        monkeypatch.setenv(envknobs.MEMO_CAPACITY_ENV, "many")
        with pytest.warns(RuntimeWarning, match=envknobs.MEMO_CAPACITY_ENV):
            cache = VerdictCache(persist_path="")
        assert cache.memo.capacity == envknobs.DEFAULT_MEMO_CAPACITY
        # second read: same invalid value, no second warning
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            VerdictCache(persist_path="")

    def test_invalid_lock_timeout_warns_and_uses_default(self, monkeypatch):
        monkeypatch.setenv(envknobs.MEMO_LOCK_TIMEOUT_ENV, "soon")
        with pytest.warns(RuntimeWarning, match=envknobs.MEMO_LOCK_TIMEOUT_ENV):
            cache = VerdictCache(persist_path="")
        assert cache.lock_timeout_s == envknobs.DEFAULT_MEMO_LOCK_TIMEOUT

    def test_negative_memo_capacity_is_rejected(self, monkeypatch):
        monkeypatch.setenv(envknobs.MEMO_CAPACITY_ENV, "-3")
        with pytest.warns(RuntimeWarning):
            cache = VerdictCache(persist_path="")
        assert cache.memo.capacity == envknobs.DEFAULT_MEMO_CAPACITY
