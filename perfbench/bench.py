"""Running operations through the CLI entry point and timing them.

``run_op`` calls ``main(argv)`` in this process with stdout and stderr
captured, times only that call, then checks the output against the oracle
outside the timed region. Anything that raises, exits non-zero or fails
the oracle is a failed operation, reported with its command, input bit
length and exception type; nothing is filtered out.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import oracle
from workloads import Op

Main = Callable[[list], int]

E2E_UNITS = {
    "setup_s": "s",
    "values_per_s": "1/s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


WRONG = "wrong output"


@dataclass
class Result:
    op: Op
    seconds: float
    failure: Optional[str] = None  # exception type, "exit N" or WRONG
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def wrong(self) -> bool:
        """The program answered, and the answer is wrong."""
        return self.failure == WRONG


def run_op(main: Main, op: Op, checkpoint_path: str) -> Result:
    out, err = io.StringIO(), io.StringIO()
    argv = op.cli_argv(checkpoint_path)
    raised: Optional[BaseException] = None
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the benchmark keeps running and reports it
            raised = exc
        seconds = perf_counter() - t0
    if raised is not None:
        return Result(op, seconds, type(raised).__name__, (str(raised).splitlines() or [""])[0][:160])
    if code:
        return Result(op, seconds, f"exit {code}", err.getvalue().strip()[:160])
    problems = oracle.check(op, out.getvalue())
    if problems:
        return Result(op, seconds, WRONG, "; ".join(problems)[:300])
    return Result(op, seconds)


def measure(main: Main, ops: list[Op], replays: int, checkpoint_path: str,
            deadline_s: float) -> list[tuple[Result, ...]]:
    """Run every op once per replay, replay after replay over the same
    inputs; returns one tuple of results per op, one result per replay.

    The ops and the replay count come from the caller, not from the clock,
    so every commit is measured over the same runs. The replays of one op
    are a whole replay apart and rotate over the CPUs this process may use,
    so they meet the host in different phases and on different cores. Only
    a run that overshoots ``deadline_s`` stops early, after a replay.
    """
    cpus = sorted(os.sched_getaffinity(0))
    runs: list[list[Result]] = []
    t0 = perf_counter()
    try:
        while len(runs) < replays and (not runs or perf_counter() - t0 < deadline_s):
            os.sched_setaffinity(0, {cpus[len(runs) % len(cpus)]})
            runs.append([run_op(main, op, checkpoint_path) for op in ops])
    finally:
        os.sched_setaffinity(0, cpus)
    return list(zip(*runs))


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, label). With fewer than 22 samples that percentile
    would sit at or below the median, so the maximum is reported instead.
    """
    s = sorted(samples)
    n = len(s)
    if n < 22:
        return s[-1], f"max of {n}"
    return s[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} (10 beyond)"


def e2e_metrics(groups: list[tuple[Result, ...]], setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics and report notes (tail percentile, error rate).

    ``groups`` holds the replays of each operation (see ``measure``). An
    operation's time is its best replay: on a shared host whose speed
    swings from one millisecond to the next, the best of a few runs of
    the same input reads the program, not the neighbours. Latencies are
    those best times of the successful operations; the throughputs divide
    what the operations covered by the sum of the best times of all of
    them, failed ones included.
    """
    results = [r for g in groups for r in g]
    ok_groups = [g for g in groups if all(r.ok for r in g)]
    busy_s = sum(min(r.seconds for r in g) for g in groups)
    latencies = [min(r.seconds for r in g) * 1000 for g in ok_groups] or [busy_s * 1000]
    tail_ms, tail_label = tail(latencies)
    ok = sum(r.ok for r in results)
    values = {
        "setup_s": setup_s,
        "values_per_s": sum(g[0].op.values for g in ok_groups) / busy_s,
        "queries_per_s": len(ok_groups) / busy_s,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "success_rate": ok / len(results),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}
    failed = len(results) - ok
    notes = {
        "ops": f"{len(groups)} ops x {len(groups[0])} replays, sum of best replays {busy_s:.3f} s",
        "latency_tail": f"{tail_label} best replays of successful ops",
        "error_rate": f"{failed / len(results):.4f} ({failed} of {len(results)})",
    }
    return metrics, notes


def failure_lines(results: list[Result]) -> list[str]:
    """One line per (command, bit length, failure) with its count."""
    groups: Counter = Counter()
    first: dict = {}
    for r in results:
        if not r.ok:
            key = (r.op.label, r.op.bits, r.failure)
            groups[key] += 1
            first.setdefault(key, r.detail)
    return [
        f"FAILED x{count}: {label} bits={bits} {failure}: {first[(label, bits, failure)]}"
        for (label, bits, failure), count in sorted(groups.items())
    ]
