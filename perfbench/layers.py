"""The traced run: per-layer metrics for one workload.

It runs, in order:

1. the deep workload's set-up call (a one-value verify window) cold and
   again warm (``verify.table_build_s`` is the difference);
2. the workload's first pass untraced, then the same pass traced
   (``tracing.overhead_pct`` compares the two);
3. a fixed probe suite, traced: kernel and fallback windows per value
   band, one sweep window at jobs 1 and jobs 2, one of each orbit command
   on a 500-bit value and ``path`` on a 20,000-bit one, so every layer
   reports in every workload;
4. ``BinaryNat`` micro-benchmarks, untraced.

Totals (``*_ms``, ``*_calls``, ``*_bytes``, counts) are summed over the
traced pass and the probe suite, a fixed list of operations per workload
and seed. Rates are per call, value or step as their names say.

Which end-to-end metric each layer metric should move, and where:

- verify.table_build_s: setup_s on deep
- verify.kernel_ns_per_value.*: values_per_s on deep
- verify.fallback_us_per_value.*: values_per_s and latency_tail_ms on deep
- verify.cycle_check_ms_per_call: latency_p50_ms on deep
- verify.checkpoint_*, verify.summarize_ms, verify.truncated,
  verify.parallel_speedup: none; they watch the range-sweep path
  (checkpoint rewrites, the fork pool), which no timed workload runs
- bitnat.mul3_add1_*, bitnat.half_us.20000: queries_per_s and
  latency_tail_ms on orbits (500-bit walks sit at the tail), and
  latency_p50_ms on deep through cycle sampling
- bitnat.from_decimal_ms.*, bitnat.to_decimal_ms.4000: latency_tail_ms on
  orbits (2,000-bit decimals), and queries_per_s through the 20,000-bit ops
- collatz.*: queries_per_s and latency_tail_ms on orbits
- powersum.*: queries_per_s on orbits (500-bit decompose is its slowest op)
- traceio.*, compose.tree_path_ms, classify.classify_us, cli.main_self_ms:
  latency_p50_ms on orbits (64-bit queries sit at the median)
"""

from __future__ import annotations

import random
import statistics
import sys
from time import perf_counter
from typing import Callable

import workloads
from bench import Main, Result, run_op
from tracer import Tracer, empty_row
from workloads import CHECKPOINT, orbit_op, setup_op, verify_op

PER_LAYER = {
    "verify.table_build_s": "s",
    "verify.kernel_ns_per_value.2p22": "ns",
    "verify.kernel_ns_per_value.1e9": "ns",
    "verify.kernel_ns_per_value.2p40": "ns",
    "verify.kernel_ns_per_value.2p50": "ns",
    "verify.fallback_us_per_value.2p62": "us",
    "verify.fallback_us_per_value.2p63": "us",
    "verify.cycle_check_ms_per_call": "ms",
    "verify.checkpoint_save_ms_p50": "ms",
    "verify.checkpoint_save_ms_total": "ms",
    "verify.checkpoint_writes": "count",
    "verify.checkpoint_bytes": "bytes",
    "verify.summarize_ms": "ms",
    "verify.truncated": "count",
    "verify.parallel_speedup": "ratio",
    "bitnat.mul3_add1_us.64": "us",
    "bitnat.mul3_add1_us.2000": "us",
    "bitnat.mul3_add1_us.20000": "us",
    "bitnat.half_us.20000": "us",
    "bitnat.mul3_add1_calls": "count",
    "bitnat.from_decimal_ms.600": "ms",
    "bitnat.from_decimal_ms.4000": "ms",
    "bitnat.to_decimal_ms.4000": "ms",
    "collatz.stopping_time_self_ms": "ms",
    "collatz.odd_chain_self_ms": "ms",
    "collatz.sequence_self_ms": "ms",
    "collatz.steps": "count",
    "powersum.derivation_trace_self_ms": "ms",
    "powersum.normalize_calls": "count",
    "traceio.render_self_ms": "ms",
    "traceio.bytes_out": "bytes",
    "compose.tree_path_ms": "ms",
    "classify.classify_us": "us",
    "cli.main_self_ms": "ms",
    "tracing.overhead_pct": "%",
}

# one window as a range sweep runs it: lanes fall below the 2^20 base table
# within a few steps and ~8% of values truncate at this cap, so table
# lookups, checkpoint rewrites of the growing truncated list and the fork
# pool do the work; it runs at jobs 1 and at jobs 2
SWEEP_CAP = 256
SWEEP_WINDOW = 1 << 20

# the deep bands, with smaller kernel windows, plus a 2^22 kernel window:
# (band, floor, span of seeded offsets, window). They run at the default cap
# and jobs 1; a kernel window's verify self time excludes cycle sampling
FALLBACK_BANDS = ("2p62", "2p63")
PROBES = (("2p22", 1 << 22, 1 << 22, 1 << 18),) + tuple(
    (band, floor, span, size if band in FALLBACK_BANDS else 1 << 16)
    for band, floor, span, size in workloads.DEEP_BANDS
)
ORBIT_PROBE_LABELS = (
    "stopping-time",
    "trace-table",
    "trace-machine",
    "trace-points",
    "decompose",
    "path",
    "classify",
    "hard",
)


def _per_call_us(fn: Callable, arg, batches: int = 5, min_batch_s: float = 0.02) -> float:
    """Median per-call time of fn(arg) over batches of repeated calls."""
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn(arg)
        dt = perf_counter() - t0
        if dt >= min_batch_s:
            break
        n *= 2
    times = [dt / n]
    for _ in range(batches - 1):
        t0 = perf_counter()
        for _ in range(n):
            fn(arg)
        times.append((perf_counter() - t0) / n)
    return statistics.median(times) * 1e6


def bitnat_metrics(rng: random.Random) -> dict[str, float]:
    BinaryNat = sys.modules["collatzbin.bitnat"].BinaryNat

    def odd(bits):
        return BinaryNat(format(rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1, "b"))

    def digits(count):
        return str(rng.randrange(10 ** (count - 1), 10**count))

    even = BinaryNat(odd(20000).bits[:-1] + "0")
    d4000 = digits(4000)
    return {
        "bitnat.mul3_add1_us.64": _per_call_us(BinaryNat.mul3_add1, odd(64)),
        "bitnat.mul3_add1_us.2000": _per_call_us(BinaryNat.mul3_add1, odd(2000)),
        "bitnat.mul3_add1_us.20000": _per_call_us(BinaryNat.mul3_add1, odd(20000)),
        "bitnat.half_us.20000": _per_call_us(BinaryNat.half, even),
        "bitnat.from_decimal_ms.600": _per_call_us(BinaryNat.from_decimal, digits(600), 3) / 1000,
        "bitnat.from_decimal_ms.4000": _per_call_us(BinaryNat.from_decimal, d4000, 1) / 1000,
        "bitnat.to_decimal_ms.4000": _per_call_us(BinaryNat.to_decimal, BinaryNat.from_int(int(d4000)), 3)
        / 1000,
    }


def trace_run(main: Main, workload: str, seed: int, checkpoint_path: str) -> tuple[dict, list[Result], Tracer]:
    """Per-layer metrics, every checked result, and the tracer's records."""
    rng = random.Random(f"perfbench:layers:{seed}")
    results: list[Result] = []
    tracer = Tracer()

    def run(op, traced=False):
        if traced:
            with tracer:
                r = run_op(main, op, checkpoint_path)
        else:
            r = run_op(main, op, checkpoint_path)
        results.append(r)
        return r

    def probe(op):
        """The verify span row of one traced probe call."""
        mark = tracer.mark()
        run(op, traced=True)
        return tracer.table(mark).get("verify.verify_range") or empty_row()

    metrics: dict[str, float] = {}
    first = setup_op("deep")
    cold, warm = run(first), run(first)
    metrics["verify.table_build_s"] = cold.seconds - warm.seconds

    ops = next(workloads.passes(workload, seed))
    untraced = sum(run(op).seconds for op in ops)
    traced = sum(run(op, traced=True).seconds for op in ops)
    metrics["tracing.overhead_pct"] = 100 * (traced - untraced) / untraced

    # kernel and fallback windows, at the default cap the set-up call built
    for band, floor, span, size in PROBES:
        op = verify_op(f"verify-{band}", floor + rng.randrange(span), size, None, ("--jobs", "1"))
        self_s = probe(op)["self_s"] / size
        if band in FALLBACK_BANDS:
            metrics[f"verify.fallback_us_per_value.{band}"] = self_s * 1e6
        else:
            metrics[f"verify.kernel_ns_per_value.{band}"] = self_s * 1e9

    # one sweep window at jobs 1 and 2, after an untraced call that builds
    # the table at the sweep cap
    run(verify_op("verify-setup", 1 << 22, 1, SWEEP_CAP, ("--jobs", "1")))
    lo = (1 << 22) + rng.randrange(1 << 22)
    seconds = []
    for jobs in ("1", "2"):
        extra = ("--jobs", jobs, "--checkpoint", CHECKPOINT)
        seconds.append(probe(verify_op(f"verify-jobs{jobs}", lo, SWEEP_WINDOW, SWEEP_CAP, extra))["total_s"])
    metrics["verify.parallel_speedup"] = seconds[0] / seconds[1] if seconds[1] else 0.0

    for label in ORBIT_PROBE_LABELS:
        run(orbit_op(rng, 500, label), traced=True)
    run(orbit_op(rng, workloads.BIG_BITS, "path"), traced=True)
    metrics.update(bitnat_metrics(rng))
    metrics.update(_span_metrics(tracer.table()))
    return {name: metrics[name] for name in PER_LAYER}, results, tracer


def _span_metrics(rows: dict[str, dict]) -> dict[str, float]:
    def row(name):
        return rows.get(name) or empty_row()

    saves = row("verify.checkpoint_save")
    verify_calls = row("verify.verify_range")["calls"]
    renders = [row(name) for name in rows if name.startswith("traceio.render_")]
    classify = row("classify.classify")
    return {
        "verify.cycle_check_ms_per_call": (
            row("collatz.cycle_check")["total_s"] * 1000 / verify_calls if verify_calls else 0.0
        ),
        "verify.checkpoint_save_ms_p50": (
            statistics.median(saves["durations"]) * 1000 if saves["durations"] else 0.0
        ),
        "verify.checkpoint_save_ms_total": saves["total_s"] * 1000,
        "verify.checkpoint_writes": saves["calls"],
        "verify.checkpoint_bytes": saves["bytes"],
        "verify.summarize_ms": row("verify.summarize")["total_s"] * 1000,
        "verify.truncated": row("verify.summarize")["extra"],
        "bitnat.mul3_add1_calls": row("bitnat.mul3_add1")["calls"],
        "collatz.stopping_time_self_ms": row("collatz.stopping_time")["self_s"] * 1000,
        "collatz.odd_chain_self_ms": row("collatz.odd_chain")["self_s"] * 1000,
        "collatz.sequence_self_ms": row("collatz.sequence")["self_s"] * 1000,
        "collatz.steps": row("collatz.step")["calls"] + row("collatz.reduced_step")["calls"],
        "powersum.derivation_trace_self_ms": row("powersum.derivation_trace")["self_s"] * 1000,
        "powersum.normalize_calls": row("powersum.normalize")["calls"],
        "traceio.render_self_ms": sum(r["self_s"] for r in renders) * 1000,
        "traceio.bytes_out": sum(r["bytes"] for r in renders),
        "compose.tree_path_ms": row("compose.tree_path")["total_s"] * 1000,
        "classify.classify_us": classify["total_s"] * 1e6 / classify["calls"] if classify["calls"] else 0.0,
        "cli.main_self_ms": row("cli.main")["self_s"] * 1000,
    }


def breakdown_lines(tracer: Tracer) -> list[str]:
    """Per traced name: calls, total and self ms, bytes; by self time."""
    rows = tracer.table()
    lines = [f"{'name':36} {'calls':>10} {'total_ms':>12} {'self_ms':>12} {'bytes':>12}"]
    for name, r in sorted(rows.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"{name:36} {r['calls']:>10} {r['total_s'] * 1000:>12.2f} {r['self_s'] * 1000:>12.2f} {r['bytes']:>12}"
        )
    return lines
