"""Load model, latency statistics and host facts shared by every workload.

The load model is a closed loop with one client: a workload submits a
batch, consumes every verdict, checks it, and only then submits the next
batch.  :class:`Recorder` collects what the loop observes from outside
the engine — per-request latency (batch submission to the yield of that
request's verdict), per-batch first-verdict latency, and the request
outcomes (decided, failed, wrong).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import sqlite3
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Percentile ladder for the tail metric: the highest rung that still has
#: at least :data:`TAIL_MIN_BEYOND` samples beyond it is reported.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

#: Size of the fixed pure-Python reference work (see :func:`reference_s`).
REFERENCE_ITERATIONS = 2500
#: The reference work's time on the nominal host every timing is scaled to.
REFERENCE_NOMINAL_S = 0.001
#: A batch's host speed is the median reference time of the batches this
#: many places before and after it, and its own.
REFERENCE_WINDOW = 2


def reference_s() -> float:
    """Wall time of a fixed piece of pure-Python work: the host's current speed.

    A shared host's speed can change by more than half within seconds, for
    the program and this work alike.  Timing the work after every batch and
    scaling the batch's timings by the reference times around it to
    :data:`REFERENCE_NOMINAL_S` keeps such shifts out of the metrics; a
    change to the program still moves them in full.
    """
    started = time.perf_counter()
    table: Dict[Tuple[int, int], int] = {}
    for i in range(REFERENCE_ITERATIONS):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + i
    sorted(table.items())
    return time.perf_counter() - started


def host_factor(references: List[float]) -> float:
    """How much slower than nominal the host ran while *references* were taken."""
    return statistics.median(references) / REFERENCE_NOMINAL_S


@dataclass
class Recorder:
    """What the closed-loop client saw, request by request.

    With *calibrate*, every :meth:`batch` also times :func:`reference_s`
    (after the batch's verdicts, before the next submission), and the
    per-round timings are scaled to the nominal host batch by batch.
    Every workload records a batch before its requests.
    """

    calibrate: bool = False
    latencies_s: List[float] = field(default_factory=list)
    #: Index into :attr:`first_verdicts_s` of each request's batch.
    request_batches: List[int] = field(default_factory=list)
    first_verdicts_s: List[float] = field(default_factory=list)
    #: One reference time per batch, when calibrating.
    references_s: List[float] = field(default_factory=list)
    #: Wall time from the end of the previous batch (or the round's start)
    #: to the end of each batch, reference work left out.
    batch_spans_s: List[float] = field(default_factory=list)
    attempted: int = 0
    decided: int = 0
    failed: int = 0
    wrong: int = 0
    problems: List[str] = field(default_factory=list)
    #: ``(latency count, first-verdict count, wall seconds)`` at each round's
    #: end; the wall time leaves out the reference work.
    rounds: List[Tuple[int, int, float]] = field(default_factory=list)
    _round_started: float = 0.0
    _last_batch_end: float = 0.0
    _reference_wall_s: float = 0.0

    def request(self, latency_s: float, decided: bool) -> None:
        self.attempted += 1
        self.latencies_s.append(latency_s)
        self.request_batches.append(max(0, len(self.first_verdicts_s) - 1))
        if decided:
            self.decided += 1

    def batch(self, first_verdict_s: float) -> None:
        now = time.perf_counter()
        self.first_verdicts_s.append(first_verdict_s)
        self.batch_spans_s.append(now - self._last_batch_end)
        if self.calibrate:
            self.references_s.append(reference_s())
        self._last_batch_end = time.perf_counter()
        self._reference_wall_s += self._last_batch_end - now

    def wrong_verdict(self, message: str) -> None:
        """A verdict that contradicts its reference: wrong *and* failed."""
        self.wrong += 1
        self.failed += 1
        self._note(message)

    def error(self, message: str, requests: int = 1) -> None:
        """Requests that raised: attempted and failed, not wrong verdicts."""
        self.attempted += requests
        self.failed += requests
        self._note(message)

    def _note(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def start_round(self) -> None:
        self._round_started = self._last_batch_end = time.perf_counter()
        self._reference_wall_s = 0.0

    def end_round(self) -> None:
        wall = time.perf_counter() - self._round_started - self._reference_wall_s
        self.rounds.append((len(self.latencies_s), len(self.first_verdicts_s), wall))

    def batch_factors(self) -> List[float]:
        """Each batch's :func:`host_factor`, from the references around it."""
        references = self.references_s
        if len(references) != len(self.first_verdicts_s):
            return [1.0] * len(self.first_verdicts_s)
        return [
            host_factor(references[max(0, j - REFERENCE_WINDOW) : j + REFERENCE_WINDOW + 1])
            for j in range(len(references))
        ]

    def per_round(self, tail_pct: float, scaled: bool = True) -> Dict[str, List[float]]:
        """Each timing metric of every round, in round order.

        *scaled* divides each request's and batch's times by its batch's
        host factor.  A round's rate divides its request count by its wall
        time with each batch's span scaled the same way, and the time
        outside every batch by the round's median factor.  Without
        calibration every factor is 1.
        """
        if scaled:
            batch_factors = self.batch_factors()
        else:
            batch_factors = [1.0] * len(self.first_verdicts_s)
        rates, p50s, tails, firsts, factors = [], [], [], [], []
        latency_start = first_start = 0
        for latency_end, first_end, wall in self.rounds:
            latencies = [
                self.latencies_s[i] / batch_factors[self.request_batches[i]]
                for i in range(latency_start, latency_end)
            ]
            round_factors = batch_factors[first_start:first_end]
            factor = statistics.median(round_factors)
            factors.append(factor)
            spans = self.batch_spans_s[first_start:first_end]
            scaled_wall = (wall - sum(spans)) / factor + sum(
                span / scale for span, scale in zip(spans, round_factors)
            )
            rates.append(len(latencies) / scaled_wall)
            p50s.append(statistics.median(latencies))
            tails.append(percentile(latencies, tail_pct))
            firsts.append(
                statistics.median(
                    value / scale
                    for value, scale in zip(
                        self.first_verdicts_s[first_start:first_end], round_factors
                    )
                )
            )
            latency_start, first_start = latency_end, first_end
        return {
            "requests_per_s": rates,
            "latency_p50_ms": [1000 * value for value in p50s],
            "latency_tail_ms": [1000 * value for value in tails],
            "first_verdict_p50_ms": [1000 * value for value in firsts],
            "host_factor": factors,
        }


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (the sample itself, never interpolated)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(samples: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if samples * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct
    return 50.0


def median_setup(setup_fn, teardown_fn, repeats: int, min_total_s: float) -> Tuple[float, float]:
    """Median wall time of repeated set-ups, raw and scaled to the nominal host.

    Set-up repeats at least *repeats* times and until *min_total_s* have
    been spent, so a set-up of a few milliseconds still yields a median
    of many samples.  Each set-up is scaled by the reference work timed
    right before and after it.  The last set-up stays live.
    """
    times: List[float] = []
    scaled: List[float] = []
    while len(times) < repeats or sum(times) < min_total_s:
        if times:
            teardown_fn()
        references = [reference_s() for _ in range(3)]
        started = time.perf_counter()
        setup_fn()
        times.append(time.perf_counter() - started)
        references += [reference_s() for _ in range(3)]
        scaled.append(times[-1] / host_factor(references))
    return statistics.median(times), statistics.median(scaled)


# ----------------------------------------------------------------------
# Host facts
# ----------------------------------------------------------------------
def _status_kb(pid: object, field_name: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except OSError:
        return 0
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live pool workers."""
    total_kb = _status_kb("self", "VmHWM")
    for child in multiprocessing.active_children():
        total_kb += _status_kb(child.pid, "VmHWM")
    return total_kb / 1024.0


def worker_cpu_s() -> float:
    """User + system CPU seconds consumed so far by live pool workers."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / ticks


def stop_pool() -> None:
    """Shut the shared worker pool down and wait for its processes."""
    from repro.store import workqueue

    pool = workqueue._POOL
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)
    workqueue.discard_shared_pool()
    for child in multiprocessing.active_children():
        child.join(timeout=10)


def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


def git_rev(root: str) -> Optional[str]:
    """The checkout's git revision, or ``None`` outside a git repository."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_metadata(root: str, workload: str, seed: int, trace: bool) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpus": available_cpus(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "git_rev": git_rev(root),
    }
