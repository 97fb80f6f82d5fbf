"""The plain-integer oracle, the one table of verify windows, and random windows, all checked against it.

A row of WINDOWS is a setting: a window [lo, hi), its step cap, the
(chunk size, jobs) pairs it runs at, the kernel's _TAIL (set by kernel()),
the oracle tests of test_verify.py that run it and what it pins. draw
makes a random window around a start of BASES, a named start or a row's lo.
check runs a window against the oracle for the oracle tests, the seeded
draws of test_verify.py and the campaign of tools/fuzz.py, so a window
added here reaches all three. Only the package and numpy are imported:
the campaign runs without pytest or Hypothesis.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from collatzbin import verify
from collatzbin.verify import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_STEP_CAP,
    Checkpoint,
    checkpoint_load,
    checkpoint_save,
    run,
    verify_range,
)

CAP, CHUNK = DEFAULT_STEP_CAP, DEFAULT_CHUNK_SIZE


def orbit_oracle(n: int, cap: int = CAP):
    """(stopping time or None, peak) on plain integers."""
    v, steps, peak = n, 0, n
    while v != 1:
        v = 3 * v + 1 if v & 1 else v >> 1
        steps += 1
        peak = max(peak, v)
        if steps > cap:
            return None, peak
    return steps, peak


_KEEP = 32  # windows whose walks are kept, the oldest dropped first
_WALKS: dict = {}


def oracle_walks(lo: int, hi: int) -> list:
    """orbit_oracle(n) for each n in [lo, hi): read off a kept window that holds them, or walked."""
    for (a, b), walks in _WALKS.items():
        if a <= lo and hi <= b:
            return walks[lo - a : hi - a]
    walks = _WALKS[lo, hi] = [orbit_oracle(n) for n in range(lo, hi)]
    if len(_WALKS) > _KEEP:
        del _WALKS[next(iter(_WALKS))]
    return walks


def oracle_report(lo: int, hi: int, cap: int) -> Checkpoint:
    """The finished state for [lo, hi), one plain-integer walk per value."""
    # a walk to the default cap stops within any cap it stops within; past
    # the default cap every value walks again
    walks = oracle_walks(lo, hi) if cap <= CAP else [orbit_oracle(n, cap) for n in range(lo, hi)]
    state = Checkpoint(lo, hi, cap, CHUNK, hi)
    for n, (sigma, peak) in zip(range(lo, hi), walks):
        if sigma is None or sigma > cap:
            state.truncated.append(n)
            continue
        # strict > in ascending n: a tie keeps the smaller n
        if state.max_stopping_time is None or sigma > state.max_stopping_time:
            state.max_stopping_time, state.max_stopping_time_at = sigma, n
        if state.max_excursion is None or peak > state.max_excursion:
            state.max_excursion, state.max_excursion_at = peak, n
    return state


def stepped_table(bound: int):
    """(stopping times, peaks) of every n < bound, one plain step at a time.

    Each block [s, 2s) walks until it drops below s, into entries already
    exact; no jump table is read.
    """
    sig = np.zeros(bound, dtype=np.int64)
    pk = np.arange(bound, dtype=np.int64)
    sig[0] = -1
    s = 2
    while s < bound:
        at = np.arange(s, min(bound, 2 * s), dtype=np.int64)
        v, steps, peak = at.copy(), np.zeros(at.size, dtype=np.int64), at.copy()
        while at.size:
            v = np.where(v & 1, 3 * v + 1, v >> 1)
            steps += 1
            np.maximum(peak, v, out=peak)
            done = v < s
            sig[at[done]] = steps[done] + sig[v[done]]
            pk[at[done]] = np.maximum(peak[done], pk[v[done]])
            at, v, steps, peak = at[~done], v[~done], steps[~done], peak[~done]
        s *= 2
    return sig, pk


TAIL = verify._TAIL


@contextlib.contextmanager
def kernel(tail: int):
    """verify's _TAIL for the with-block; put back after it."""
    saved, verify._TAIL = verify._TAIL, tail
    try:
        yield
    finally:
        verify._TAIL = saved


# -- named starts and bases

# (2^63 - 2) // 3 is the largest v whose 3v + 1 fits in int64
INT64_3V1 = (2**63 - 2) // 3
# n = 2^62 + 12473 leaves int64 and comes back twice; n = 2^62 + 12359
# lands past 2^64, on two limbs, before it comes back; n = 2^62 + 763
# leaves twice and lands higher the first time than any jump of the second
# could reach, so its bounds carry over from one stretch to the next
TWICE_BACK = (1 << 62) + 12473
PAST_2P64 = (1 << 62) + 12359
HIGH_FIRST = (1 << 62) + 763
# n = 2^117 - 31 climbs past 2^117: from its first landing there its node
# walks on plain integers to the end
PAST_2P117 = (1 << 117) - 31
# n = 2^16 * 93,824,992,236,886 + 100: its own gate holds, but n - 2, whose
# first jump lands with its own, leaves int64 at that jump
GATE_EDGE = (93824992236886 << 16) + 100
# n = 2^16 * (LIM(3) + 1) + 3 fails its own gate by one while n - 1, whose
# first jump lands with its own, jumps in the kernel; its peak lies inside
# its first jump, past 2^63 and above n - 1's
OWN_GATE = (31274997412296 << 16) + 3
# n lands with n - 1, which leaves int64 after some jumps and peaks past 2^63
SHARE_WIDE = 89051470758688207
# a 2^50-band start with stopping time 591 whose peak, 683,432,308,140,491,431,780,
# has 70 bits: at a cap of 591 or more that some start of its window
# passes, an int64-band block holds a converged start that peaks past
# 2^63 - 1 next to truncated ones
WIDE_2P50 = 1541717981317479
# below 2^16·(min LIM + 1) every int64 gate holds, and pass 0 goes by residue class
GATE_FREE = verify._GATE_FREE
# n, n + 1 and n + 2 peak at one 68-bit value, above every other start of
# [n, n + 64), after their first jumps: n and n + 1 are one residue class and
# share a landing, and n + 2's class node joins their path later
WIDE_CLASS = 1876428998285501
NAMED = (INT64_3V1, TWICE_BACK, PAST_2P64, HIGH_FIRST, PAST_2P117, GATE_EDGE, OWN_GATE, SHARE_WIDE, WIDE_2P50, WIDE_CLASS)

BASES = {
    # int64 kernel lanes, the top band kept below 2^62
    "multilane": (1 << 20, 10**9, 1 << 40, 1 << 50, 1 << 58, (1 << 62) - (1 << 11)),
    # lanes past their gate, two-limb starts and starts near 2^117
    "past-int64": (INT64_3V1, 1 << 62, 1 << 63, 1 << 64, 1 << 80, 1 << 100, (1 << 117) - (1 << 11)),
    # the bases the Hypothesis strategies move by an offset
    "one-value": (1, 1 << 20, 1 << 40, 1 << 58, 1 << 62, 1 << 63, 1 << 80, 1 << 200),
    "merge": (1, 10**6, 1 << 60, (1 << 62) - 64, (1 << 63) - 40),
}


# -- the table


class Window(NamedTuple):
    lo: int
    hi: int
    cap: int = CAP
    runs: tuple = ((CHUNK, 1),)  # (chunk size, jobs) pairs
    tail: int = TAIL
    tests: str = ""  # the oracle tests that run it
    pins: str = ""  # the bug, tier edge or rule it holds to
    cut: Optional[int] = None  # a chunk boundary each run stops at, then resumes from a checkpoint


def _rows(tests: str, runs: tuple, *rows) -> tuple:
    """Rows at the default _TAIL, from (lo, hi, cap, pins)."""
    return tuple(Window(lo, hi, cap, runs, tests=tests, pins=pins) for lo, hi, cap, pins in rows)


# the starts of windows that several rows share; W9 is the first multiple of 2^16 past 10^9
A62, Z63, E40, E9 = (1 << 62) + 12345678901, (1 << 63) - 2048, (1 << 40) + 777, 10**9 + 7
W9 = ((10**9 >> 16) + 1) << 16
BOTH = ((CHUNK, 1), (CHUNK, 2))

WINDOWS = (
    *_rows("reentry", ((37, 1), (1000, 1), (CHUNK, 1), (37, 2)),
           (A62, A62 + 4096, 1000, "most nodes leave int64 at their gate and come back"),
           (Z63, Z63 + 4096, CAP, "a chunk of 1000 and the one block cross 2^63"),
           ((1 << 64) + 1, (1 << 64) + 4, CAP, "starts past 2^64"),
           ((1 << 62) - (1 << 11), (1 << 62) + (1 << 11), 60, "most starts truncate, across 2^62"),
           ((1 << 64) + 1, (1 << 64) + 513, CAP, "two-limb starts"),
           (1 << 100, (1 << 100) + 512, CAP, "two-limb starts: _distinct compares the high limbs"),
           ((1 << 117) - 256, (1 << 117) + 256, CAP, "starts on both sides of 2^117"),
           ((1 << 1023) - 10, (1 << 1023) + 6, CAP, "peaks on both sides of 2^1023, where float64 codes end"),
           ((1 << 1100) + 12345, (1 << 1100) + 12353, CAP, "peaks past 2^1023")),
    *_rows("edges", BOTH,
           ((1 << 16) - (1 << 15), (1 << 16) + (1 << 15), CAP, "starts below the table bound never join a node")),
    *_rows("edges", ((3, 1), (3, 2), (37, 1), (37, 2)),
           ((1 << 40) + 12345, (1 << 40) + 13845, CAP, "starts join only nodes of their own block")),
    *_rows("edges", ((37, 1), (37, 2), *BOTH), (GATE_EDGE - 300, GATE_EDGE + 300, CAP, "GATE_EDGE")),
    *_rows("edges", BOTH, (OWN_GATE - 1, OWN_GATE + 1, CAP, "OWN_GATE")),
    # merged starts truncate together, at the first jump too; 322 is the
    # window's median stopping time
    *_rows("edges", BOTH, *((E40, E40 + 3000, cap, "merged starts truncate together") for cap in (1, 16, 17, 60, 322))),
    # near the median stopping times (557 from Z63, 468 at A62) some starts
    # climb past 2^63 - 1, above every converged start, and then stop at the cap
    *_rows("wide", ((CHUNK, 1),),
           (A62, A62 + 4096, CAP, "peaks past 2^63 - 1 rank above every int64 peak"),
           ((1 << 63) + 12345, (1 << 63) + 16441, CAP, "and among themselves by their exact values"),
           (GATE_EDGE - 50, GATE_EDGE + 50, CAP, "GATE_EDGE"),
           (SHARE_WIDE - 3, SHARE_WIDE + 1, CAP, "SHARE_WIDE"),
           *((Z63, Z63 + 4096, cap, "wide peaks on truncated paths never count") for cap in (250, 400, 557)),
           *((A62, A62 + 4096, cap, "wide peaks on truncated paths never count") for cap in (350, 400, 468))),
    # at cap 851, 19 of these 300 starts truncate and converged ones peak
    # past 2^63 - 1, 5 of the first 64 truncate
    Window(WIDE_2P50, WIDE_2P50 + 300, 851, ((37, 2),), 0, "wide", "WIDE_2P50: small chunks on two jobs"),
    Window(WIDE_2P50, WIDE_2P50 + 64, 851, ((300, 1),), tests="wide", pins="WIDE_2P50: one chunk"),
    *_rows("wide-truncated", ((CHUNK, 1),),
           (2049638230412171845, 2049638230412171909, 150, "every wide peak is truncated, the 7c8333a bug's shape"),
           (3074457345618258366, 3074457345618258466, 200, "every wide peak is truncated")),
    *_rows("tied", ((CHUNK, 1), (100, 1)), ((1 << 58) + 704, (1 << 58) + 1728, CAP, "15 lanes tie on the peak")),
    *_rows("huge-cap", ((CHUNK, 1),),
           (10**9 + 7, 10**9 + 307, 10**30, "kernel lanes"),
           ((1 << 58) + 3, (1 << 58) + 203, 10**30, "lanes that leave int64 and come back"),
           ((1 << 62) + 1, (1 << 62) + 41, 10**30, "lanes that leave int64 and come back"),
           ((1 << 64) + 1, (1 << 64) + 21, 10**30, "starts past 2^63")),
    # pass 0 by residue class: one node per class of each run of residues,
    # runs split at multiples of 2^16
    *_rows("classes", BOTH,
           (W9 - 1000, W9 + 1000, CAP, "a block on two runs of residues, at a and a + 1"),
           (GATE_FREE - 2000, GATE_FREE, CAP, "a block that ends at GATE_FREE goes by class"),
           (GATE_FREE - 1000, GATE_FREE + 1000, CAP, "one that straddles it does not"),
           (GATE_FREE, GATE_FREE + 2000, CAP, "nor one that starts there"),
           (GATE_FREE + 64535, GATE_FREE + 66535, CAP, "GATE_FREE + 65535, the first start past its gate"),
           (1 << 16, (1 << 16) + 2000, CAP, "a block that starts at the table bound"),
           (E9, E9 + TAIL - 1, CAP, "too few starts for numpy: pass 0 walks on plain integers"),
           (E9, E9 + TAIL, CAP, "just enough for pass 0 by class"),
           *((E9, E9 + 3000, cap, "caps around the first jump's 16 + c steps") for cap in (1, 15, 16, 17, 32))),
    # a chunk of 2^16 + 1000 starts runs as two blocks, the first of 2^16
    # starts on two runs of residues. Its oracle walks serve the three rows
    # of the same window below (2.7 s)
    Window(W9 - 1000, W9 + (1 << 16), CAP, ((1 << 17, 1),), tests="classes", pins="a chunk of two blocks"),
    # at _TAIL 0 a block of one start goes by class, and its landing can
    # resolve in the table, ending the block before any jump pass: here every
    # start's first jump lands below 2^16 (found with the oracle)
    Window(69176, 69240, CAP, ((1, 1), (8, 1)), 0, "classes", "every class landing resolves in the table"),
    # blocks of 2^16 starts, one period of residues; at the window's median
    # stopping time, 206, some classes of its first block truncate and others
    # converge
    *_rows("classes", BOTH,
           (W9 - 1000, W9 + (1 << 16), CAP, "a block of 2^16 starts on two runs of residues"),
           (W9, W9 + (1 << 16), CAP, "a block of 2^16 starts at a multiple of 2^16: one run"),
           (W9 - 1000, W9 + (1 << 16), 206, "some classes of a block truncate, others converge")),
    # the maximum excursion of a class block ties between a start whose own
    # first jump peaks there (69,403 and 131,311) and a class node that peaks
    # there later (73,115 and 129,537); the smaller n wins on either side, at
    # caps that leave every converged start below the tie (found with the oracle)
    Window(69403, 73116, 81, BOTH, tests="classes", pins="a tie won by a start's own first-jump peak"),
    Window(129537, 131312, 100, BOTH, tests="classes", pins="a tie won by a class node's later peak"),
    *_rows("classes", BOTH, (WIDE_CLASS, WIDE_CLASS + 64, CAP, "WIDE_CLASS: two starts of one class peak past 2^63 - 1")),
)


def rows(test: str) -> list[Window]:
    """The rows the named oracle test runs, in table order."""
    return [w for w in WINDOWS if test in w.tests.split()]


# -- random windows

STARTS = sorted({*(b for bases in BASES.values() for b in bases), *NAMED, *(w.lo for w in WINDOWS)})


def draw(rng: random.Random) -> Window:
    """A window within 2^12 of a start: 1 to 4,096 values, or 1 to 64 past
    2^128, where an oracle walk takes milliseconds.

    Its cap is below the window's smallest stopping time, so that every
    start truncates, in one draw of ten; one of its own stopping times (the
    min, median or max, or one off it), clipped to [min, max - 1] so that
    some starts converge and some truncate, in six of ten; else the default
    cap. It runs once, at chunk size 1, 8 or a random one, on one or two
    jobs, at _TAIL 0 or TAIL, and in one draw of four with a chunk boundary
    strictly inside it stops there, at cut.
    """
    base = rng.choice(STARTS)
    size = rng.randint(1, 1 << rng.randint(0, 12 if base < 1 << 128 else 6))
    lo = max(1, base + rng.randint(-(1 << 12), (1 << 12) - size))
    hi = lo + size
    cap = CAP
    sigmas = sorted(sigma for sigma, _ in oracle_walks(lo, hi))
    pick = rng.random()
    if pick < 0.1 and sigmas[0] > 1:
        cap = rng.randint(1, sigmas[0] - 1)
    elif pick < 0.7 and sigmas[0] < sigmas[-1]:
        # at least 1, since n = 1 stops in 0 steps
        cap = rng.choice((sigmas[0], sigmas[size // 2], sigmas[-1])) + rng.randint(-1, 1)
        cap = max(1, min(max(cap, sigmas[0]), sigmas[-1] - 1))
    chunk = rng.choice((1, 8, rng.randint(1, size + 100)))
    cuts = range(lo + chunk, hi, chunk)  # the chunk boundaries strictly inside
    cut = rng.choice(cuts) if cuts and rng.random() < 0.25 else None
    return Window(lo, hi, cap, ((chunk, rng.choice((1, 2))),), rng.choice((0, TAIL)), cut=cut)


def check(w: Window) -> Optional[str]:
    """Run w at each of its (chunk size, jobs) pairs on its _TAIL: straight or,
    with a cut, [lo, cut) saved with hi set back, loaded and run on to hi.

    None if every report equals oracle_report's. Else the first run that
    differs, or raises, as one verify_range(...) call with its _TAIL and cut,
    and then the exception's type and message if it raised.
    """
    want = oracle_report(w.lo, w.hi, w.cap)
    with kernel(w.tail), tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.txt"
        for chunk, jobs in w.runs:
            try:
                if w.cut is None:
                    got = verify_range(w.lo, w.hi, step_cap=w.cap, chunk_size=chunk, jobs=jobs)
                else:
                    part = verify_range(w.lo, w.cut, step_cap=w.cap, chunk_size=chunk, jobs=jobs)
                    checkpoint_save(dataclasses.replace(part, hi=w.hi), path)
                    got = run(checkpoint_load(path), jobs)
                wrong, crash = got != dataclasses.replace(want, chunk_size=chunk), ""
            except Exception as exc:
                # a crash is a finding too, reported as a wrong report is
                wrong, crash = True, f"\n{type(exc).__name__}: {exc}"
            if wrong:
                resume = "" if w.cut is None else f", stopped at {w.cut} and resumed"
                call = f"verify_range({w.lo}, {w.hi}, step_cap={w.cap}, chunk_size={chunk}, jobs={jobs})"
                return f"{call} with _TAIL = {w.tail}{resume}{crash}"
    return None
