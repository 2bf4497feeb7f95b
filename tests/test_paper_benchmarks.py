"""Smoke slice of the paper's experiments and the pipeline checks.

``benchmarks/bench_table1.py``, ``bench_figure1.py`` and
``bench_figure2.py`` assert the verdicts behind the paper's Table 1 and
Figures 1–2 (fragment solvers, the AccLTL+ compiler, the LTS path tree).
``bench_pipeline_vs_bruteforce.py``, ``bench_ablation.py``,
``bench_containment.py`` and ``bench_relevance.py`` check the emptiness
pipeline (precheck plus search) against brute force and the direct
procedures, with and without each of its mechanisms.
``bench_answerability.py`` checks maximal answers under access patterns,
``bench_scaling.py`` the procedures on growing schemas and
``bench_constraints.py`` the analyses under integrity constraints; the
last two reach the bounded checker.  The files are not
named ``test_*``, so the suite does not collect them; this test runs them
once each in a pytest subprocess with ``--benchmark-disable`` (every
benchmarked call runs once, untimed) and requires all of them to pass.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

BENCHMARKS = (
    "bench_table1.py",
    "bench_figure1.py",
    "bench_figure2.py",
    "bench_pipeline_vs_bruteforce.py",
    "bench_ablation.py",
    "bench_containment.py",
    "bench_relevance.py",
    "bench_answerability.py",
    "bench_scaling.py",
    "bench_constraints.py",
)

#: Tests in those files: a file that stops collecting fails the slice.
EXPECTED_TESTS = 40


def test_paper_benchmarks_pass():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "--benchmark-disable",
            *(str(REPO_ROOT / "benchmarks" / name) for name in BENCHMARKS),
        ],
        cwd=REPO_ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=600,
    )
    summary = completed.stdout.strip().splitlines()[-1] if completed.stdout else ""
    assert completed.returncode == 0, completed.stdout[-4000:] + completed.stderr
    assert re.fullmatch(rf"{EXPECTED_TESTS} passed\b.*", summary), summary
