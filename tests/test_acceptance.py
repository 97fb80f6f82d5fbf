"""End-to-end acceptance checks.

One test per acceptance criterion, each printing a PASS line with the
measured figures (run with -s to see them on success). Oracles are plain
Python integers throughout; the library must agree with them exactly.
"""

import itertools
import random
import time
from pathlib import Path

from collatzbin import (
    BinaryNat,
    NumberClass,
    classify,
    derivation_trace,
    hard_number,
    sequence,
    step,
    stopping_time,
    verify_range,
    summarize,
)
from collatzbin.compose import decompose, tree_path
from collatzbin import verify as verify_mod
from collatzbin.traceio import render_derivation, render_machine, render_table
from collatzbin.verify import Checkpoint, checkpoint_load, checkpoint_save, run

from conftest import bn, derivation_lines
from windows import orbit_oracle

GOLDEN = Path(__file__).parent / "goldens" / "table_10027.txt"


def report(num: int, detail: str) -> None:
    print(f"criterion {num:2d}: PASS - {detail}")


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, (time.perf_counter() - t0) * 1000.0


def test_criterion_01_stopping_time_255():
    stopping_time(bn(255))  # warm caches before timing
    value, ms = timed(lambda: stopping_time(bn(255)))
    assert value == 47
    assert ms < 1.0, f"took {ms:.3f} ms"
    report(1, f"stopping time of 255 is 47 ({ms:.3f} ms)")


def test_criterion_02_stopping_time_78736985():
    stopping_time(bn(78736985))
    value, ms = timed(lambda: stopping_time(bn(78736985)))
    assert value == 210
    assert ms < 10.0, f"took {ms:.3f} ms"
    report(2, f"stopping time of 78736985 is 210 ({ms:.3f} ms)")


def test_criterion_03_table_golden():
    rendered = render_table(derivation_trace(bn(10027)))
    golden = GOLDEN.read_text(encoding="utf-8")
    assert rendered == golden
    lines = rendered.splitlines()
    assert len(lines) == 30
    assert lines[0] == "10027=(10011100101011)₂ → (111010110000010)₂"
    assert lines[-1] == "5=(101)₂ → (10000)₂"
    report(3, "30-row table for 10027 matches the golden file byte for byte")


def test_criterion_04_10027_figures_reconciled():
    # engine, table rows, and an independent integer oracle must agree;
    # the stopping time itself is recorded, not assumed
    sigma = stopping_time(bn(10027))
    assert sigma == orbit_oracle(10027)[0] == 91
    # every golden row is arithmetically consistent and chains correctly
    rows = GOLDEN.read_text(encoding="utf-8").splitlines()
    chain = [v for v in sequence(bn(10027), 200).values if v & 1]
    assert len(rows) == len(chain) - 1
    for row, value, nxt in zip(rows, chain, chain[1:]):
        left, right = row.split(" → ")
        dec, bits = left.split("=")
        assert int(dec) == value
        assert bits == f"({value:b})₂"
        t = 3 * value + 1
        assert right == f"({t:b})₂"
        while t % 2 == 0:
            t //= 2
        assert t == nxt
    points = len(sequence(bn(10027), 200).values)
    assert points == 92
    report(
        4,
        "stopping time of 10027 computed as 91 and cross-checked against the "
        "rendered table; its walk has 92 points, so a 211-point plot of this "
        "orbit would be inconsistent",
    )


def test_criterion_05_derivation_of_67():
    rows = derivation_lines(67)
    assert [row[1] for row in rows] == [
        (6, 1, 0),      # 67
        (6, 5, 2, 0),   # 101
        (4, 1, 0),      # 19
        (4, 3, 2, 0),   # 29
        (3, 1, 0),      # 11
        (4, 0),         # 17
        (3, 2, 0),      # 13
        (2, 0),         # 5
    ]
    assert render_derivation(derivation_trace(bn(67))).splitlines()[0] == (
        "67 = {6,1,0} -> {7,6,2,1,1,0,0} -> {7,6,3,1} -> shift 1 -> 101"
    )
    _, _, _, after, shift, nxt = rows[-1]
    assert tuple(e - shift for e in after) == (0,) and nxt == 1
    chain = [v for v in sequence(bn(67), 200).values if v & 1]
    assert chain == [row[0] for row in rows] + [1] == [67, 101, 19, 29, 11, 17, 13, 5, 1]
    # the geometric identity 2^(2k-1) + ... + 2 + 1 = 4^k - 1: the raw
    # multiset of a_k = (4^k - 1)/3 carries to 2^(2k) in one line
    for k in (1, 2, 6, 31, 70):
        a = hard_number(k).to_int()
        assert derivation_lines(a) == [
            (a, tuple(range(2 * k - 2, -1, -2)), (*range(2 * k - 1, -1, -1), 0), (2 * k,), 2 * k, 1)
        ]
    report(5, "derivation of 67 replays all 8 merge lines down to {0}; a_k carries in one line")


def test_criterion_06_hard_family():
    def run():
        for k in range(1, 33):
            a = hard_number(k)
            assert a.to_int() == (4**k - 1) // 3
            assert a.mul3_add1().bits == "1" + "0" * (2 * k)  # 3a+1 = 2^(2k)
            v = a
            for _ in range(2 * k + 1):
                v = step(v)
            assert v.to_int() == 1  # T^(2k+1)(a_k) = 1, every k
            if k >= 2:
                assert stopping_time(a) == 2 * k + 1
        # k = 1 sits on the fixed point already: the walk above loops
        # through the cycle, but the least m with T^m = 1 is 0
        assert stopping_time(hard_number(1)) == 0

    _, ms = timed(run)
    assert ms < 100.0, f"took {ms:.1f} ms"
    report(
        6,
        "for k=1..32: 3*a_k+1 = 2^(2k) and T^(2k+1)(a_k) = 1; stopping time "
        f"2k+1 for k>=2 and 0 for the degenerate a_1 = 1 ({ms:.1f} ms)",
    )


def test_criterion_07_tail_cycle_sampled():
    rng = random.Random(1142)
    for _ in range(1000):
        n = rng.randrange(1, 1 << 32)
        trace = sequence(bn(n), 10**4)
        assert trace.stopping_time is not None
        v = bn(trace.values[trace.stopping_time])
        tail = []
        for _ in range(3):
            v = step(v)
            tail.append(v.to_int())
        assert tail == [4, 2, 1]
    report(7, "1000 random values below 2^32 all continue 1 -> 4 -> 2 -> 1")


def test_criterion_08_classification_goldens():
    expected = {
        60: NumberClass.MIXED_EVEN,
        97: NumberClass.MIXED_ODD,
        64: NumberClass.PURE_EVEN,
        63: NumberClass.PURE_ODD,
        2**70: NumberClass.PURE_EVEN,
        2**70 - 1: NumberClass.PURE_ODD,
    }
    for n, cls in expected.items():
        assert classify(bn(n)) is cls, n
    report(8, "classes of 60, 97, 64, 63, 2^70 and 2^70-1 all match")


def test_criterion_09_end_substring_laws_exhaustive():
    def run():
        counterexamples = 0
        for n in range(1, 1 << 20, 2):
            v = BinaryNat.from_int(n)
            run_len = len(v.bits) - len(v.bits.rstrip("1"))
            tripled = v.mul3_add1().to_int()
            zeros = (tripled & -tripled).bit_length() - 1
            if run_len >= 2:
                if zeros != 1:
                    counterexamples += 1
            elif zeros < 2:
                counterexamples += 1
        return counterexamples

    bad, ms = timed(run)
    assert bad == 0
    assert ms < 5000.0, f"took {ms:.0f} ms"
    report(
        9,
        "all odd n < 2^20: trailing-ones run >= 2 gives exactly one trailing "
        f"zero after tripling, run of 1 gives at least two ({ms / 1000:.2f} s)",
    )


def test_criterion_10_powersum_equals_bitstring_engine():
    def run():
        steps = 0
        for n in range(1, 1 << 11, 2):
            records = derivation_trace(bn(n))
            machine = [line.split(",", 4) for line in render_machine(records).splitlines()]
            assert len(machine) == len(records)
            for i, (rec, (value, before, raw, after, shift, nxt), fields) in enumerate(
                zip(records, derivation_lines(n), machine)
            ):
                v = bn(value)
                tripled = v.mul3_add1()
                one_digits = tuple(e for e, c in enumerate(reversed(tripled.bits)) if c == "1")[::-1]
                # 3n+1 = 2n + n + 1 as a raw multiset, carried to distinct powers
                assert raw == tuple(sorted([e + 1 for e in before] + list(before) + [0], reverse=True))
                assert sum(1 << e for e in raw) == sum(1 << e for e in after) == tripled.to_int()
                assert after == one_digits
                assert shift == after[-1] == rec.shift
                assert bn(nxt) == BinaryNat.from_int(sum(1 << (e - shift) for e in after))
                t = tripled.to_int()
                assert rec.shift == (t & -t).bit_length() - 1
                assert nxt == t >> rec.shift
                # the machine line carries the same value, sets and shift
                index, decimal, bits, kind, annotations = fields
                assert (int(index), int(decimal), bits, kind) == (i, value, v.bits, "merge")
                assert annotations == "raw:%s after:%s shift:%d" % (
                    "+".join(map(str, raw)), "+".join(map(str, after)), shift
                )
                steps += 1
        # full-chain endpoints on a seeded sample
        rng = random.Random(67)
        sample = [rng.randrange(0, 1 << 15) * 2 + 1 for _ in range(200)] + [67]
        for n in sample:
            rows = derivation_lines(n)
            odds = [row[0] for row in rows] + [rows[-1][5]]
            assert odds == [v for v in sequence(bn(n)).values if v & 1]
        return steps

    steps, ms = timed(run)
    assert ms < 5000.0, f"took {ms:.0f} ms"
    report(
        10,
        f"merge and shift agree with the bit-string engine on all {steps} text and machine lines of "
        f"the derivations of odd n < 2^11, chain endpoints agree on 201 sampled orbits ({ms / 1000:.2f} s)",
    )


def test_criterion_11_composition_roundtrip_exhaustive():
    for n in range(1, 1 << 14):
        v = BinaryNat.from_int(n)
        path = decompose(v)
        assert path == v.bits[1:].replace("1", "O").replace("0", "E")
        walk = tree_path(v)
        assert walk[0] == 1 and walk[-1] == n
        for parent, child, step in zip(walk[:-1], walk[1:], path, strict=True):
            assert child == 2 * parent + (step == "O")
    # the reverse identity over all short step strings
    for length in range(0, 8):
        for letters in itertools.product("OE", repeat=length):
            bits = "1" + "".join(letters).replace("O", "1").replace("E", "0")
            assert decompose(BinaryNat(bits)) == "".join(letters)
    report(11, "composition path roundtrips hold for every n < 2^14")


def test_criterion_12_range_run_deterministic(tmp_path):
    t0 = time.perf_counter()
    r8 = verify_range(1, 10**7, step_cap=10**5, jobs=8)
    elapsed = time.perf_counter() - t0
    assert not r8.truncated
    assert r8.verified_count == 10**7 - 1
    r4 = verify_range(1, 10**7, step_cap=10**5, jobs=4)
    r1 = verify_range(1, 10**7, step_cap=10**5, jobs=1)
    assert r8 == r4 == r1
    # interrupt halfway, resume, and demand the identical report
    state = Checkpoint(
        lo=1,
        hi=10**7,
        step_cap=10**5,
        chunk_size=verify_mod.DEFAULT_CHUNK_SIZE,
        next_unprocessed=1,
        max_stopping_time=None,
        max_stopping_time_at=None,
        max_excursion=None,
        max_excursion_at=None,
        truncated=[],
    )
    bounds = [
        (a, min(a + state.chunk_size, state.hi))
        for a in range(state.lo, state.hi, state.chunk_size)
    ]
    for b in bounds[: len(bounds) // 2]:
        verify_mod._merge(state, verify_mod._chunk_stats(b, state.step_cap))
    ck = tmp_path / "ck.txt"
    checkpoint_save(state, ck)
    resumed = run(checkpoint_load(ck), 8, ck)
    assert resumed == r8
    assert summarize(resumed) == summarize(r8)
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    report(
        12,
        f"[1, 10^7) verified with zero truncations in {elapsed:.1f} s; reports "
        "identical across 1, 4, 8 workers and across an interrupt/resume",
    )
