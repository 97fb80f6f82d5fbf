"""Tests of the benchmark itself: input generators, oracle, failure accounting.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from collatzbin import cli  # noqa: E402


def stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


def first_passes(workload, seed, count=3):
    it = workloads.passes(workload, seed)
    return [[op.argv for op in next(it)] for _ in range(count)]


def test_same_seed_gives_identical_inputs():
    for workload in workloads.WORKLOADS:
        assert first_passes(workload, 7) == first_passes(workload, 7)
        assert workloads.fingerprint(workload, 7) == workloads.fingerprint(workload, 7)


def test_other_seed_gives_other_windows():
    for workload in workloads.WORKLOADS:
        assert workloads.fingerprint(workload, 1) != workloads.fingerprint(workload, 2)
    windows = {seed: sorted(op.lo for op in next(workloads.passes("deep", seed))) for seed in (1, 2)}
    assert windows[1] != windows[2]


def test_every_pass_has_the_same_composition():
    def shape(ops):
        # a verify window's bit length varies within its band; its size does not
        return sorted((op.label, op.values if op.label.startswith("verify") else op.bits) for op in ops)

    for workload in ("deep", "orbits"):
        it = workloads.passes(workload, 3)
        shapes = [shape(next(it)) for _ in range(3)] + [shape(next(workloads.passes(workload, 4)))]
        assert all(s == shapes[0] for s in shapes)


def test_deep_windows_stay_in_their_bands():
    for op in next(workloads.passes("deep", 5)):
        band = op.label.removeprefix("verify-")
        if band == "2p62":
            assert op.lo >= 1 << 62 and op.hi <= 1 << 63
        if band == "2p63":
            assert op.lo >= 1 << 63


def test_oracle_accepts_verify_output_and_flags_planted_errors():
    # cap 60 truncates part of the window, so every summary field is exercised
    op = workloads.verify_op("verify", 900, 400, 60, ("--jobs", "1"))
    out = stdout_of(op.argv)
    assert "truncated inputs: " in out
    assert oracle.check(op, out) == []

    summary = oracle.parse_summary(out)
    sigma, at = summary["max_sigma"]
    planted = [
        out.replace(f"max stopping time: {sigma} at {at}", f"max stopping time: {sigma + 1} at {at}"),
        out.replace(f"verified: {summary['verified']}", f"verified: {summary['verified'] - 1}"),
        out.replace(f" {summary['truncated_inputs'][3]}", "", 1),
        out.replace("classes: origin 0, pure-even 1", "classes: origin 0, pure-even 2"),
    ]
    for wrong in planted:
        assert wrong != out
        assert oracle.check(op, wrong)


def test_oracle_accepts_orbit_output_and_flags_planted_errors():
    rng = random.Random(11)
    for label in layers.ORBIT_PROBE_LABELS:
        op = workloads.orbit_op(rng, 64, label)
        out = stdout_of(op.argv)
        assert oracle.check(op, out) == [], label
        at = next(i for i, c in enumerate(out) if c.isdigit())
        wrong = out[:at] + ("8" if out[at] == "9" else "9") + out[at + 1:]
        assert oracle.check(op, wrong), label


def test_oracle_decimal_conversion_past_the_int_str_limit():
    n = random.Random(3).getrandbits(20000) | 1 << 19999
    text = oracle.dec(n)
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == n and text[0] != "0"


def test_raised_exception_counts_as_failure_and_in_error_rate():
    op = workloads.orbit_op(random.Random(1), 64, "stopping-time")

    def raising_main(argv):
        raise ValueError("planted failure")

    failed = bench.run_op(raising_main, op, "unused")
    assert (failed.ok, failed.wrong, failed.failure) == (False, False, "ValueError")
    passed = bench.run_op(cli.main, op, "unused")
    assert passed.ok

    metrics, notes = bench.e2e_metrics([(passed,), (failed,)], setup_s=1.0, peak_rss_mb=1.0)
    assert metrics["success_rate"][0] == 0.5
    assert notes["error_rate"].startswith("0.5000 (1 of 2)")
    (line,) = bench.failure_lines([passed, failed])
    assert "stopping-time" in line and "bits=64" in line and "ValueError" in line


def test_nonzero_exit_and_wrong_output_count_as_failures():
    op = workloads.orbit_op(random.Random(2), 64, "classify")
    assert bench.run_op(lambda argv: 1, op, "unused").failure == "exit 1"

    def wrong_main(argv):
        print("pure-odd 1")
        return 0

    wrong = bench.run_op(wrong_main, op, "unused")
    assert (wrong.failure, wrong.wrong) == ("wrong output", True)


def test_times_are_the_best_replay_of_each_op():
    ops = next(workloads.passes("deep", 1))

    def replay(seconds):
        return [bench.Result(op, seconds * (i + 1)) for i, op in enumerate(ops)]

    # one slow replay in three: the best-of figures ignore it
    groups = list(zip(replay(1.0), replay(50.0), replay(1.0)))
    metrics, notes = bench.e2e_metrics(groups, 1.0, 1.0)
    assert metrics["queries_per_s"][0] == len(ops) / sum(range(1, len(ops) + 1))
    assert metrics["values_per_s"][0] == sum(op.values for op in ops) / sum(range(1, len(ops) + 1))
    assert metrics["latency_p50_ms"][0] == 3000.0
    assert metrics["latency_tail_ms"][0] == 1000.0 * len(ops)
    assert notes["ops"].startswith("5 ops x 3 replays")


def test_measure_replays_every_op_over_the_same_inputs():
    argvs = []

    def main(argv):
        argvs.append(tuple(argv))
        return 1

    ops = next(workloads.passes("orbits", 1))
    groups = bench.measure(main, ops, 3, "unused", deadline_s=60.0)
    assert len(groups) == len(ops) and len(argvs) == 3 * len(ops)
    assert all(len(g) == 3 and {r.op for r in g} == {op} for g, op in zip(groups, ops))
    assert argvs[: len(ops)] == argvs[len(ops): 2 * len(ops)] == [op.argv for op in ops]

    # past the deadline a run stops after its first replay
    assert all(len(g) == 1 for g in bench.measure(main, ops, 3, "unused", deadline_s=0.0))


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, label = bench.tail([float(i) for i in range(100)])
    assert value == 89.0 and label.startswith("p90.0 of 100")
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")


def test_tracer_records_spans_counts_and_restores_the_package():
    import collatzbin.collatz as collatz
    from collatzbin.bitnat import BinaryNat

    step, mul = collatz.step, BinaryNat.__dict__["mul3_add1"]
    tracer = Tracer()
    with tracer:
        assert collatz.step is not step
        stdout_of(["stopping-time", "27"])
    assert collatz.step is step and BinaryNat.__dict__["mul3_add1"] is mul

    rows = tracer.table()
    assert rows["cli.main"]["calls"] == 1
    assert rows["collatz.stopping_time"]["calls"] == 1
    assert rows["collatz.step"]["calls"] == 111
    assert rows["bitnat.mul3_add1"]["calls"] == 41
    main, walk = rows["cli.main"], rows["collatz.stopping_time"]
    assert 0 <= walk["self_s"] <= walk["total_s"] <= main["total_s"]
    assert main["self_s"] <= main["total_s"] - walk["total_s"] + 1e-9


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
