"""collatzbin benchmark: deep verify windows and big-orbit CLI queries.

Usage, from the root of a source checkout (the program is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload {deep,orbits} --seed N \\
        --seconds S --trace {0,1}

Every operation goes in-process through ``collatzbin.cli.main(argv)`` with
stdout captured, and every output is checked against a plain-int oracle
outside the timed region. The last line of stdout is one JSON object with
``correct`` (no output was wrong), ``attempted``, ``failed`` (raised,
exited non-zero or wrong) and ``metrics``; the lines before it name every
metric with its unit, the oracle verdict and each failure.

``--trace 0`` reports the end-to-end metrics of one workload. A run takes
a number of seeded passes fixed by ``--seconds`` (about ``--seconds`` of
work on the machine in ``machine.json``) and replays all their operations
a fixed number of times over the same inputs; an operation counts with
its best replay (see ``bench.py`` and ``workloads.py``). ``--trace 1`` is the
separate traced run that reports the per-layer metrics (see
``layers.py``).

Workloads (the rationale is also in BENCHMARK.json):

- deep: one ``--jobs 1`` verify window per band and pass, at the default
  cap and without checkpoint: 10^9, 2^40 and 2^50 (int64 kernel),
  [2^62, 2^63) (per-lane Python fallback above the int64-safe bound) and
  past 2^63 (all-Python chunks). The kernel- and fallback-bound case, and
  the plain single-threaded baseline.
- orbits: a fixed mix of stopping-time, trace (table, machine, points),
  decompose, path, classify and hard on 64- and 500-bit values and
  2,000-bit decimals, plus 20,000-bit ``--binary`` inputs under a --cap
  (all but path, which the traced run covers). BinaryNat stepping,
  power-sum normalisation, the renderers and decimal conversion do the
  work; verify does none.

End-to-end metrics:

- setup_s: import of collatzbin plus, on deep, the first verify call (a
  one-value window, which builds the base table). The median of
  SETUP_SAMPLES[workload] cold set-ups: one in this process, the others
  in fresh interpreters run after the measurement.
- values_per_s: values covered (verified + truncated, checked) by the
  successful operations, over the sum of the best replay times of all
  operations. On orbits each query covers its one input value, so it
  equals queries_per_s there.
- queries_per_s: successful operations over that same sum.
- latency_p50_ms, latency_tail_ms: over the best replay times of the
  successful operations. The tail is the highest percentile with at
  least ten samples beyond it; the report line names the percentile and
  the sample count, and falls back to the maximum below 22 samples.
- success_rate: successful operations over attempted ones. The report
  also prints error_rate = 1 - success_rate; the JSON carries the success
  share because a metric there must never read 0.
- peak_rss_mb: ru_maxrss of this process plus that of its largest child,
  read right after the measurement.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import bench
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# cold set-ups per run; an import alone is short, so orbits takes more
SETUP_SAMPLES = {"deep": 5, "orbits": 15}
# a run that takes this many times --seconds stops after its current replay
DEADLINE_FACTOR = 2

def load_program() -> bench.Main:
    """Import collatzbin.cli from this checkout's src/; return its entry point.

    The entry point is looked up on the module at every call, so the
    tracer's wrapper around ``cli.main`` sees the calls too.
    """
    sys.path.insert(0, str(SRC))
    import collatzbin.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "collatzbin":
        sys.exit(f"error: imported collatzbin from {cli.__file__}, not from {SRC}")

    def main(argv: list) -> int:
        return cli.main(argv)

    return main


def setup_once(workload: str, checkpoint_path: str) -> tuple[float, bench.Main, bench.Result | None]:
    """Cold set-up in this process: (seconds, main, result of the first call)."""
    t0 = perf_counter()
    main = load_program()
    seconds = perf_counter() - t0
    op = workloads.setup_op(workload)
    if op is None:
        return seconds, main, None
    first = bench.run_op(main, op, checkpoint_path)
    return seconds + first.seconds, main, first


def setup_in_child(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def peak_rss_mb() -> float:
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024


def machine_line() -> str:
    numpy = sys.modules.get("numpy")
    return (
        f"machine: nproc={len(os.sched_getaffinity(0))} cpus={os.cpu_count()} arch={platform.machine()} "
        f"python={platform.python_version()} numpy={getattr(numpy, '__version__', 'not loaded')}"
    )


def reference_loop_ms() -> float:
    """A fixed pure-Python loop, timed: shows how fast the host ran.

    Printed next to the metrics, never folded into them, so that a reader
    can tell a slow stretch of a shared host from a slow program.
    """
    t0 = perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i
    return (perf_counter() - t0) * 1000


def result_line(checked: list, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": not any(r.wrong for r in checked),
            "attempted": len(checked),
            "failed": sum(not r.ok for r in checked),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def run_untraced(workload: str, seed: int, seconds: float, checkpoint_path: str) -> list[str]:
    first_setup, main, setup_result = setup_once(workload, checkpoint_path)
    host_before = reference_loop_ms()
    npasses = max(1, round(seconds / workloads.PASS_SECONDS[workload]))
    ops = [op for ops in itertools.islice(workloads.passes(workload, seed), npasses) for op in ops]
    replays = workloads.REPLAYS[workload]
    groups = bench.measure(main, ops, replays, checkpoint_path, deadline_s=DEADLINE_FACTOR * seconds)
    rss = peak_rss_mb()
    host_after = reference_loop_ms()
    setups = [first_setup] + [setup_in_child(workload) for _ in range(SETUP_SAMPLES[workload] - 1)]
    metrics, notes = bench.e2e_metrics(groups, statistics.median(setups), rss)
    notes["passes"] = f"{npasses}, each op replayed {len(groups[0])} of {replays} times" + (
        f" (stopped at {DEADLINE_FACTOR} x --seconds)" if len(groups[0]) < replays else ""
    )
    checked = [r for g in groups for r in g] + ([setup_result] if setup_result is not None else [])
    lines = [
        machine_line(),
        f"host speed: reference loop {host_before:.1f} ms before, {host_after:.1f} ms after the measurement",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
    ]
    lines += [f"{name:16} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"{name:16} {note}" for name, note in notes.items()]
    lines += bench.failure_lines(checked)
    lines += [_verdict(checked), result_line(checked, metrics)]
    return lines


def run_traced(workload: str, seed: int, checkpoint_path: str) -> list[str]:
    main = load_program()
    per_layer, checked, tracer = layers.trace_run(main, workload, seed, checkpoint_path)
    metrics = {name: (value, layers.PER_LAYER[name]) for name, value in per_layer.items()}
    lines = [machine_line()] + layers.breakdown_lines(tracer)
    lines += [f"{name:36} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += bench.failure_lines(checked)
    lines += [_verdict(checked), result_line(checked, metrics)]
    return lines


def _verdict(checked: list) -> str:
    wrong = sum(r.wrong for r in checked)
    failed = sum(not r.ok for r in checked)
    return f"oracle: {len(checked)} ops checked, {wrong} wrong outputs, {failed} failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0, help="timed seconds per run (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "collatzbin" / "__init__.py").is_file():
        sys.exit(f"error: no collatzbin sources under {SRC}; run from a source checkout")
    # the benchmark runs every walk at the documented default cap
    os.environ.pop("COLLATZBIN_CAP", None)

    if args.setup_probe:
        seconds, _main, _first = setup_once(args.workload, os.devnull)
        print(f"setup_s {seconds!r}")
        return 0

    print(f"collatzbin benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"inputs: fingerprint {workloads.fingerprint(args.workload, args.seed)} (first 4 passes)")
    sys.stdout.flush()
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        checkpoint_path = os.path.join(work, "checkpoint.txt")
        if args.trace:
            lines = run_traced(args.workload, args.seed, checkpoint_path)
        else:
            lines = run_untraced(args.workload, args.seed, args.seconds, checkpoint_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
