"""Repository hygiene checks: tracked artifacts and silent-swallow lint.

These are tier-1 guards over the repository itself rather than the
library's behaviour:

* compiled Python artifacts (``__pycache__``/``*.pyc``) must never be
  git-tracked — they are interpreter- and machine-specific and once
  committed they shadow honest diffs;
* no silent broad-exception swallow sites may exist in ``src/``;
* the bounded checker and the modules it evaluates formulas with never
  import ``repro.automata``: the transition refuter both searches share
  lives in ``repro.core``;
* every ``REPRO_*`` knob the READMEs name is a registered knob.

The silent-swallow check used to be an ad-hoc AST walk here; it now
lives in the contract linter (:class:`repro.analysis.hygiene.
SilentSwallowRule`, rule ``EXC001``) and this file is a thin wrapper
that keeps the guarantee **at least as strong as the seed check**:

* the generalised rule (``pass``, ``...`` and ``continue`` bodies) must
  report nothing unsuppressed anywhere in ``src/``;
* the seed-era strict form — a broad handler whose body is exactly
  ``pass`` — must not exist even *with* a ``# repro: noqa[EXC001]``
  marker, because the seed test knew nothing about suppressions.
"""

from __future__ import annotations

import ast
import re
import subprocess
from pathlib import Path

import pytest

from repro.analysis import lint_tree
from repro.analysis.hygiene import SilentSwallowRule
from repro.obs import env as envknobs

REPO_ROOT = Path(__file__).resolve().parent.parent


def _git_tracked_files() -> list:
    try:
        completed = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip("git unavailable")
    if completed.returncode != 0:
        pytest.skip("not a git checkout")
    return completed.stdout.splitlines()


def test_no_compiled_artifacts_tracked():
    offenders = [
        path
        for path in _git_tracked_files()
        if path.endswith((".pyc", ".pyo")) or "__pycache__" in path.split("/")
    ]
    assert not offenders, (
        "compiled artifacts are git-tracked (git rm --cached them and keep "
        "__pycache__/ in .gitignore): " + ", ".join(offenders)
    )


def test_no_silent_exception_swallow_sites():
    report = lint_tree(rules=[SilentSwallowRule])
    offenders = [finding.location() for finding in report.findings]
    assert not offenders, (
        "silent broad-except swallow sites found (record the failure — a "
        "metrics counter at minimum — or narrow the exception type): "
        + ", ".join(offenders)
    )


def test_seed_strict_form_not_even_suppressible():
    """``except Exception: pass`` may not hide behind a noqa marker.

    The pre-linter hygiene test had no suppression mechanism, so to stay
    no weaker than the seed, the exact body it banned stays banned even
    when annotated.  (The generalised ``...``/``continue`` forms may be
    suppressed with justification; the pass form may not.)
    """
    report = lint_tree(rules=[SilentSwallowRule])
    hidden = [
        finding.location()
        for finding in report.suppressed
        if finding.detail.get("body_kind") == "pass"
    ]
    assert not hidden, (
        "`except Exception: pass` sites suppressed via noqa (forbidden — "
        "the seed hygiene ban is unconditional): " + ", ".join(hidden)
    )


def test_package_metadata_names_the_package():
    """``setup.py --name --version`` reads real metadata, never UNKNOWN."""
    import sys

    import repro

    completed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split()[-2:] == ["repro", repro.__version__]


def test_benchmark_tracer_hooks_resolve(monkeypatch):
    """The benchmark tracer patches ``repro`` names; every one must exist.

    ``perfbench/tracer.py`` wraps functions and methods by name (the
    ``*_legacy`` procedures, ``automaton_emptiness``, store mutators, ...)
    and ``perfbench/references.py`` imports the direct procedures.  A
    rename in ``src/`` that breaks a traced benchmark run fails here.  The
    per-call front doors must look their ``*_legacy`` procedure up at call
    time, so a patched name still sees every front-door call.

    A ``DecisionEngine(parallel=True)`` batch, as ``chains_pooled`` runs
    it, must pass the per-layer cross-check of ``perfbench/layers.py``,
    which reads the engine's zero-valued ``pool_*`` stats; the pool
    stub's names that ``chains_pooled`` and ``harness.stop_pool`` use
    must resolve, and so must ``shared_engine().clear``, which
    ``decide_cold`` calls every round.
    """
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import layers
    import references  # noqa: F401
    from tracer import Tracer

    from repro.access.answerability import is_answerable_exactly
    from repro.automata.library import ltr_automaton
    from repro.core.solver import AccLTLSolver
    from repro.engine import DecisionEngine, emptiness_task, shared_engine
    from repro.engine import engine as engine_module
    from repro.engine.reduction import CachePolicy
    from repro.obs.metrics import REGISTRY
    from repro.queries.plan_cache import plan_cache_info
    from repro.store import workqueue
    from repro.workloads.scenarios import standard_scenarios

    scenario = standard_scenarios()[0]
    vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
    automaton = ltr_automaton(vocabulary, scenario.probe_access, scenario.query_one)
    tasks = [
        emptiness_task(automaton, vocabulary, max_paths=max_paths, use_datalog_precheck=False)
        for max_paths in (200, 201)
    ]
    engine = DecisionEngine(
        cache_policy=CachePolicy(memoize_results=False, persist_path=""), parallel=True
    )
    tracer = Tracer()
    registry_base = REGISTRY.counters_snapshot()
    plan_base = plan_cache_info()
    try:
        tracer.install()
        is_answerable_exactly(
            scenario.access_schema,
            scenario.query_one,
            scenario.hidden_instance,
            scenario.initial_values,
        )
        assert tracer.layer_calls()["access"] == 1
        results = list(engine.iter_results(tasks))
    finally:
        tracer.uninstall()
    assert not tracer._patches
    assert [result.provenance for _, result in results] == ["computed", "computed"]
    assert tracer.counts["engine.computed"] == 2
    assert layers._engine_retries(tracer) == 0
    plan_now = plan_cache_info()
    plan_delta = {key: plan_now[key] - plan_base[key] for key in ("hits", "misses")}
    assert layers.cross_check(tracer, REGISTRY.counters_delta(registry_base), plan_delta) == []
    assert callable(workqueue.shared_pool) and callable(workqueue.discard_shared_pool)
    assert workqueue._POOL is None or workqueue._POOL_WORKERS > 0
    monkeypatch.setattr(engine_module, "_SHARED_ENGINE", None)
    shared_engine().clear()


def test_readme_knobs_are_registered():
    """Docs cannot advertise a knob that ``repro env`` does not list."""
    registered = {knob.name for knob in envknobs.all_knobs()}
    readmes = [REPO_ROOT / "README.md"]
    readmes += sorted((REPO_ROOT / "src" / "repro").glob("*/README.md"))
    named = {
        (readme.relative_to(REPO_ROOT).as_posix(), name)
        for readme in readmes
        for name in re.findall(r"\bREPRO_[A-Z][A-Z0-9_]*", readme.read_text())
    }
    assert named, "no README names a knob"
    assert sorted(
        (readme, name) for readme, name in named if name not in registered
    ) == []


#: ``repro.core`` modules that must not depend on the automata layer.
AUTOMATA_FREE = (
    "core/bounded_check.py",
    "core/refuter.py",
    "core/semantics.py",
    "core/transition.py",
)


def _automata_imports(source: str) -> list:
    """Line numbers of the imports of ``repro.automata`` in *source*,
    module-level and function-level alike."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(name == "repro.automata" or name.startswith("repro.automata.") for name in names):
            lines.append(node.lineno)
    return lines


def test_core_search_modules_do_not_import_automata():
    offenders = {
        name: lines
        for name in AUTOMATA_FREE
        if (lines := _automata_imports((REPO_ROOT / "src" / "repro" / name).read_text()))
    }
    assert not offenders, f"repro.core modules import repro.automata: {offenders}"


@pytest.mark.parametrize(
    "source",
    [
        "from repro.automata.aautomaton import Guard",
        "import repro.automata.emptiness",
        "from repro import automata",
        "def f():\n    from repro.automata import emptiness\n",
    ],
)
def test_automata_import_detection(source):
    assert _automata_imports(source)
    assert not _automata_imports("from repro.core.refuter import TransitionRefuter")
