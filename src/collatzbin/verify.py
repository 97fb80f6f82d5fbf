"""Batch convergence checks over contiguous ranges, with checkpoints.

The engine walks every n in [lo, hi) to 1 (or to a step cap), recording
the stopping time and the orbit peak. Internally it runs on machine
integers under numpy: values below a table bound resolve through
precomputed stopping-time/peak tables, and a value whose jump could pass
2^63 - 1 takes the same jump on two 64-bit limbs below 2^117, and on
plain Python integers to the end past it. The table entries are exact,
so the cap is applied at lookup and one table serves every cap. Every
partial result, from one value to a whole run, is a Checkpoint holding
only what the walks find (the maxima and the truncated inputs); the
verified count and the digit-class histogram follow from the range
(class_counts). Merging is order-free, so the result is identical for
any chunk size, any worker count, and across checkpoint
interrupt/resume. run carries a fresh state (verify_range) or a loaded
one (checkpoint_load) to its end, and summarize formats it.

Above the table bound a value jumps _K = 16 halvings at a time. Writing
v = 2^16·a + b, the walk through its 16th halving ends at A(b)·a + B(b)
after 16 + c(b) steps, c(b) odd ones (the parity-vector identity the
paper's binary split n = 2^k·a + b rests on), so one table over the
residues b, built at import, serves every value. It also holds M1(b) and
M2(b), the jump's peak being exactly a·M1(b) + M2(b) for every a >= 0,
and the int64 gate LIM(b): a <= LIM(b) keeps it within 2^63 - 1. A
walking value is at or above the table bound, so a >= 1 and no jump
passes through 1: stopping times stay exact. The base table is built to
2^16, all a walk needs, at import; its entries from 2^16 on are built by
the same jumps, for a run that starts inside it, up to 2^20.

The orbits of a block of starts merge fast, as paths in the tree the
reduced map inverts, so the kernel (_chunk_numpy) walks each distinct
value of a pass once and then resolves every start backwards, one fold
for steps and one for peaks. A pass holds its values as int64 low limbs,
plus uint64 high limbs once one is past 2^63 - 1; a value jumps on int64
arrays while its gate holds, and else on both limbs below 2^117. A pass
of few values, or one with a value past 2^117, walks them all to the end
on plain integers, and is the block's last. Each pass jumps a walking
value at least once, so _K steps or more: a start has taken at least _K
steps per pass before it, and a value stops at the cap once that count,
or that count and its own plain walk, reaches it. A peak past 2^63 - 1
folds as its float64, its leading 1 and next bits (_code), and only the
few converged starts whose code ties the top walk again, for exact peaks.

What is checked is convergence: every n reaches 1 within the step cap.
The 1 -> 4 -> 2 -> 1 tail that follows is the same three steps for
every n, so no tail sampling is done.

Truncation (cap reached before 1) is data, never an error: truncated
inputs are listed in the state and excluded from the aggregates.
Argmax ties go to the smaller n; peaks of truncated walks do not count.

Checkpoint files are versioned line-oriented text, written atomically
(temp file then rename) at chunk boundaries only. One function writes
the format, and a file loads only if it is exactly the text that
checkpoint_save writes for a state a run can reach, and each saved
maximum is what the kernel gives for its n alone.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import KW_ONLY, dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Union

import numpy as np

from .bitnat import int_to_decimal, natural, shown
from .classify import NumberClass, class_counts
from .collatz import DEFAULT_CHUNK_SIZE, DEFAULT_STEP_CAP
from .errors import CheckpointError, DomainError

__all__ = [
    "DEFAULT_STEP_CAP",
    "DEFAULT_CHUNK_SIZE",
    "BASE_TABLE_BOUND",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "verify_range",
    "checkpoint_save",
    "checkpoint_load",
    "run",
    "summarize",
]

BASE_TABLE_BOUND = 1 << 20
CHECKPOINT_VERSION = 1


@dataclass(slots=True)
class Checkpoint:
    """Mutable run state; everything needed to continue at a chunk boundary.

    The result of one chunk or one value is also a Checkpoint, over its
    own range with next_unprocessed at its end, and merges into the run.
    A finished run (next_unprocessed == hi) is the range's report. Its
    counts derive from [lo, next_unprocessed) and the truncated list, so
    they hold once every part of that range is merged.
    """

    lo: int
    hi: int
    step_cap: int
    chunk_size: int
    next_unprocessed: int
    _: KW_ONLY
    max_stopping_time: Optional[int] = None
    max_stopping_time_at: Optional[int] = None
    max_excursion: Optional[int] = None
    max_excursion_at: Optional[int] = None
    truncated: list[int] = field(default_factory=list)

    @property
    def verified_count(self) -> int:
        return self.next_unprocessed - self.lo - len(self.truncated)

    @property
    def histogram(self) -> tuple[int, int, int, int, int]:
        """The values of each class in NumberClass order."""
        return tuple(class_counts(self.lo, self.next_unprocessed).values())


# ---------------------------------------------------------------------------
# tables, shared with forked workers through module globals

# exact stopping time and orbit peak of every 1 <= n < len(_SIG) >= 2^_K
# (built at import); a stopping time below 2^20 is at most 524, so int16 holds it
_SIG = np.array([-1, 0], dtype=np.int16)
_PK = np.array([0, 1], dtype=np.int64)
# values per numpy block in the kernel and when the base table grows:
# blocks this large spread numpy's per-call cost over many values, and
# this small keep the scratch arrays in cache and inside memory the
# process already holds (BENCH_25.json)
_LANES = 1 << 15

# the jump kernel takes _K halvings at once, through a table over the
# residues b = v mod 2^_K (_JUMP, built by _jump_table at import)
_K = 16
_MASK = (1 << _K) - 1
# the nodes of a pass this short walk to the end on plain integers: for so
# few, numpy's per-call cost outweighs the jumps
_TAIL = 64
# the remaining steps of a node stopped at the cap
_NEVER = 1 << 62
# a peak past 2^63 - 1 is coded as _WIDE | an order code (_code), and a code
# from two limbs lies within _MARGIN / 2 of that, so the starts within
# _MARGIN of a block's top code hold its largest peak
_WIDE = 1 << 63
_MARGIN = 8


def _jump_table(k: int = _K) -> np.ndarray:
    """Rows A, B, S, M1, M2, LIM over residues b < 2^k; b's six share a cache line.

    For v = 2^k·a + b, the plain map reaches A(b)·a + B(b) in S(b) steps,
    after its k-th halving: the parity-vector identity (Terras 1976),
    with A = 3^c for c odd steps and S = k + c. Each value on the way,
    3v+1 values included, is p·a + q with p <= M1(b) and q <= M2(b), and
    one value has both (the tests check every b at k = _K), so
    for every a >= 0 the jump's peak is exactly a·M1(b) + M2(b).
    a <= LIM(b) = (2^63 - 1 - M2(b)) // M1(b) keeps the jump in int64.
    """
    table = np.empty((6, 1 << k), dtype=np.int64)
    alpha, y, steps, m1, m2, lim = table
    alpha[:] = 1 << k  # coefficient of a
    y[:] = np.arange(1 << k)  # b's block, one halving at a time
    steps[:] = k
    m1[:], m2[:] = alpha, y
    for _ in range(k):
        odd = y & 1
        steps += odd
        # an odd value v becomes 3v + 1, then every value halves
        alpha += odd * (2 * alpha)
        y += odd * (2 * y + 1)
        np.maximum(m1, alpha, out=m1)
        np.maximum(m2, y, out=m2)
        alpha >>= 1
        y >>= 1
    lim[:] = (2**63 - 1 - m2) // m1
    return table.T.copy().T


_JUMP = _jump_table()
# 2^_K·(min LIM + 1): below it every int64 gate holds
_GATE_FREE = int(_JUMP[5].min() + 1) << _K
# rows A, B, S, M1, M2 of _JUMP as zero-copy views: _jump_plain reads them
# one entry at a time
_VIEWS = tuple(map(memoryview, _JUMP[:5]))
# every row is non-negative, so the uint64 rows of the two-limb tier are a view
_JUMP64 = _JUMP.view(np.uint64)
# the two-limb tier holds v < 2^_LIMBS: then a = v >> _K times a row below
# 2^w, w the widest of M1 and M2 (which bound A and B), plus a row stays
# below 2^128 (_jump_limbs)
_LIMBS = 128 + _K - int(_JUMP[3:5].max()).bit_length()


def _ensure_tables(hi: int) -> None:
    """Grow the base tables to at least min(BASE_TABLE_BOUND, hi) entries.

    Import builds them to 2^_K, all a walk needs: past it every value still
    walking has a >= 1, so no jump passes through 1. run grows them only for
    a run that starts inside them: on a long run its walks land sooner in
    the longer table, which repays the build (README, "Range verification").

    Base entries carry no cap, so one table serves every cap and every
    range it is long enough for. Growth at least doubles the length (up
    to the bound), one block [s, min(bound, 2s, s + _LANES)) at a
    time: a block's lanes walk until they land below s, into entries
    already exact (_fill_segment).
    """
    global _SIG, _PK
    old = _SIG.size
    if old < min(BASE_TABLE_BOUND, hi):
        bound = min(BASE_TABLE_BOUND, max(hi, 2 * old))
        sig = np.empty(bound, dtype=np.int16)
        pk = np.empty(bound, dtype=np.int64)
        sig[:old] = _SIG
        pk[:old] = _PK
        s = old
        while s < bound:
            e = min(bound, 2 * s, s + _LANES)
            _fill_segment(sig, pk, s, e)
            s = e
        _SIG, _PK = sig, pk


def _fill_segment(sig: np.ndarray, pk: np.ndarray, lo: int, hi: int) -> None:
    """Fill entries [lo, hi) from the exact ones below lo < hi <= 2 * lo."""
    # an even n halves to n / 2 < lo
    even = lo + (lo & 1)
    halves = slice(even // 2, (hi + 1) // 2)
    sig[even:hi:2] = sig[halves] + 1
    pk[even:hi:2] = np.maximum(np.arange(even, hi, 2, dtype=np.int64), pk[halves])
    # odd lanes jump until they land below lo: _K halvings at a time from
    # 2^_K on, one below it, so a >= 1 and no jump passes through 1; a
    # jump's peak is exact (_jump_table), so every entry is
    k = _K if lo >> _K else 1
    A, B, S, M1, M2, _ = _JUMP if k == _K else _jump_table(1)
    at = np.arange(lo | 1, hi, 2, dtype=np.int64)
    v = at.copy()
    steps = np.zeros(at.size, dtype=np.int64)
    peak = at.copy()
    while at.size:
        a = v >> k
        b = v & ((1 << k) - 1)
        np.maximum(peak, a * M1[b] + M2[b], out=peak)
        v = A[b] * a + B[b]
        steps += S[b]
        done = v < lo
        if done.any():
            vd = v[done]
            sig[at[done]] = steps[done] + sig[vd]
            pk[at[done]] = np.maximum(peak[done], pk[vd])
            keep = ~done
            at, v, steps, peak = at[keep], v[keep], steps[keep], peak[keep]


_ensure_tables(1 << _K)


# ---------------------------------------------------------------------------
# partial results: one value, one chunk


def _jump_plain(vs: list, limit: int) -> tuple[list, list, list]:
    """Jump each v of vs on plain integers: the lists of end values, steps and peaks.

    A walk stops once it lands below the base table; a v already there ends
    as it is, with no steps. A walk that has taken limit steps or more and
    not landed is past its budget: it ends on 1 with _NEVER steps, so every
    start through it is past the cap. The peak is exact: each jump's is
    a·M1(b) + M2(b) (_jump_table).
    """
    A, B, S, M1, M2 = _VIEWS
    stop = _SIG.size
    ends, steps_, peaks = [], [], []
    for v in vs:
        steps, peak = 0, v
        while v >= stop:
            if steps >= limit:
                v, steps = 1, _NEVER
                break
            a = v >> _K
            b = v & _MASK
            top = a * M1[b] + M2[b]
            if top > peak:
                peak = top
            v = A[b] * a + B[b]
            steps += S[b]
        ends.append(v)
        steps_.append(steps)
        peaks.append(peak)
    return ends, steps_, peaks


def _code(x: int) -> int:
    """x below 2^63, else _WIDE | the bits of float64(x), which order as positive
    floats do; from 2^1023 on, above every float's, all exponent bits set, then
    x's bit length (below 2^32) and next 20 bits. It never decreases as x grows."""
    if x < _WIDE:
        return x
    if x < 1 << 1023:
        return _WIDE | int(np.float64(x).view(np.uint64))
    n = x.bit_length()
    return _WIDE | 0x7FF << 52 | n << 20 | x >> (n - 21) & 0xFFFFF


def _ints(high: np.ndarray, low: np.ndarray) -> list:
    """The values high·2^64 + low of two uint64 limb arrays as plain integers."""
    return [x << 64 | y for x, y in zip(high.tolist(), low.tolist())]


def _jump_limbs(a_low: np.ndarray, b: np.ndarray, a_high: Optional[np.ndarray]) -> tuple:
    """Jump each v = 2^_K·a + b < 2^_LIMBS on uint64 limbs, a given by its low
    limb and, unless every a is below 2^64, its high limb: the high and low
    limbs of the jump's peak a·M1(b) + M2(b), then of its landing A(b)·a + B(b).

    Each is below 2^128 (_LIMBS). uint64 multiplication wraps, so a low
    limb is one multiply-add and its carry, and the high limb of a's low
    limb times a row comes from that limb's 32-bit halves. No operation
    mixes int64 and uint64 arrays: numpy would promote the pair to float64.
    """
    A, B, _, M1, M2, _ = _JUMP64
    halves = a_low >> 32, a_low & 0xFFFFFFFF
    limbs = []
    for mul, add in ((M1[b], M2[b]), (A[b], B[b])):
        low = a_low * mul
        low += add
        high = halves[0] * mul
        high += (halves[1] * mul) >> 32
        high >>= 32
        high += low < add
        if a_high is not None:
            high += a_high * mul
        limbs += high, low
    return tuple(limbs)


def _codes(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The codes of high·2^64 + low in [2^63, 2^128), each within _MARGIN / 2 of
    its _code. No Python int meets a uint64 array: numpy 1.24 would give float64."""
    wide = np.ldexp(high.astype(np.float64), 64) + low.astype(np.float64)
    return wide.view(np.uint64) | np.uint64(_WIDE)


class _Pass(NamedTuple):
    """One pass of _chunk_numpy over its nodes, its distinct values; _resolve folds rem and peak."""

    rem: np.ndarray  # steps of its jump and landing; folded, to 1 (_NEVER or more: past any cap)
    peak: np.ndarray  # code of the peak of its jump and landing (_code; from two limbs, _codes)
    live: Optional[np.ndarray]  # the nodes still walking (None: all)
    parent: Optional[np.ndarray]  # each live node's node in the next pass, one per distinct landing


def _distinct(low: np.ndarray, high: Optional[np.ndarray], slots, index, new) -> tuple:
    """Each landing's node among the distinct landings, and the landing of each node.

    A landing is its int64 low limb and, if given, its uint64 high limb.
    Equal landings become one node, unequal ones never: a hash slot keeps
    the last index written, and the landings whose slot holds another value
    are slotted again among themselves until each finds its own. Equal
    landings share a slot, so they miss or find it together.
    """
    idx = index[: low.size]
    slot = low & (slots.size - 1)
    slots[slot] = idx
    par = p = slots[slot]
    at = slice(None)  # the landings that took p this round: every one, then the misses
    while True:
        miss = low[p] != low[at]
        if high is not None:
            miss |= high[p] != high[at]
        at = idx[at][miss.nonzero()[0]]
        if not at.size:
            break
        s = slot[at]
        slots[s] = at
        p = par[at] = slots[s]
    first = (par == idx).nonzero()[0]
    new[first] = index[: first.size]
    return new[par], first


def _chunk_numpy(lo: int, hi: int, cap: int) -> Checkpoint:
    """Values [lo, hi), at most _LANES of them, at any size; start i is lo + i.

    The nodes of a pass are the distinct values still walking, the starts
    first: an int64 array of their low limbs (nodes) and, unless every node
    is below 2^63, a uint64 array of their high limbs (high). Each node
    jumps once and keeps its steps S(b) and exact peak a·M1(b) + M2(b); its
    landing resolves in the base table or joins every equal landing of its
    pass in one node of the next (_distinct, one call). Then every start's
    stopping time and peak follow back along its nodes in one fold each:
    rem = S + rem[parent], peak = max(top, peak[parent]).

    A node jumps in one of two tiers: on int64 arrays while it is below 2^63
    and its int64 gate a <= LIM(b) holds, and on two uint64 limbs
    (_jump_limbs) otherwise, while it is below 2^_LIMBS, as every start in
    [2^63, 2^_LIMBS) does. A pass of fewer than _TAIL nodes, or with one at
    or past 2^_LIMBS, walks them all on plain integers (_jump_plain) into
    the base table: it is the block's last, and when a start is past
    2^_LIMBS the first. Peaks fold as codes (_code, _codes), exact below
    2^63; past it the converged starts near the top code walk again.

    Every start through a node of pass p has taken least = _K·p steps or
    more: each pass jumps its live nodes at least once, S(b) >= _K steps
    each. A live node is at or above the table bound, a step or more from
    1. So once least reaches the cap every node of the pass is past it,
    and so is a plain walk that takes cap - least steps and has not landed
    (_jump_plain ends it on 1 with _NEVER steps). Every other start's rem
    is exact, and rem <= cap decides it.
    """
    size = hi - lo
    bound = _SIG.size
    inside = min(size, max(0, bound - lo))  # starts that resolve in the table
    # a truncated node's rem is _NEVER or more, past any cap it is held to
    limit = min(cap, _NEVER - 1)
    A, B, S, M1, M2, LIM = _JUMP
    # a pass's nodes below 2^_LIMBS: their int64 low limbs, and their high
    # limbs unless every node is below 2^63; big holds the rest, every start
    # once one is past 2^_LIMBS
    big = []
    if hi <= 1 << 63:
        nodes, high = np.arange(lo, hi, dtype=np.int64), None
    elif hi <= 1 << _LIMBS:
        # the starts' low limbs are an arange, and their high limbs take its carry
        base = np.uint64(lo & (2**64 - 1))
        low = np.arange(size, dtype=np.uint64) + base
        nodes, high = low.view(np.int64), np.full(size, lo >> 64, dtype=np.uint64) + (low < base)
    else:
        nodes, high, big = np.empty(0, dtype=np.int64), None, list(range(lo, hi))
    # scratch: landing indices, hash slots, and each first landing's node
    index = np.arange(size, dtype=np.intp)
    slots = np.empty(1 << size.bit_length(), dtype=np.intp)
    new = np.empty(size, dtype=np.intp)
    passes: list[_Pass] = []
    while True:
        n = nodes.size
        m = n + len(big)
        least = _K * len(passes)  # the fewest steps a start through a node has taken
        if least >= limit:
            # every node of the pass is past the cap: one all-_NEVER pass ends the walk
            rem, pk = np.full(m, _NEVER, dtype=np.int64), np.zeros(m, dtype=np.uint64)
            passes.append(_Pass(rem, pk, None, None))
            break
        land_h = None
        if m < _TAIL or big:
            # every node walks to the end on plain integers: the block's last pass
            vs = (nodes.tolist() if high is None else _ints(high, nodes.view(np.uint64))) + big
            ends, steps, peaks = _jump_plain(vs, limit - least)
            rem, land = np.array((steps, ends), dtype=np.int64)
            pk = np.array([_code(x) for x in peaks], dtype=np.uint64)
        else:
            a = nodes >> _K
            b = nodes & _MASK
            rem, top, land = S[b], a * M1[b] + M2[b], A[b] * a + B[b]
            pk = top.view(np.uint64)
            # the nodes past their gate, negative as int64 or with a high limb jump on limbs
            at = index[:0]
            if high is not None or nodes.max() >= _GATE_FREE:
                past = a > LIM[b]
                if high is not None:
                    past |= (nodes < 0) | (high > 0)
                at = past.nonzero()[0]
            if at.size:
                a_low, a_high = nodes[at].view(np.uint64) >> _K, None
                if high is not None:
                    a_low |= high[at] << (64 - _K)
                    a_high = high[at] >> _K
                top_h, top_l, h, v = _jump_limbs(a_low, b[at], a_high)
                # each peaks past 2^63 - 1: its int64 gate fails, or v >= 2^63
                pk[at], land[at] = _codes(top_h, top_l), v.view(np.int64)
                if (h | (v >> 63)).any():
                    # a landing past 2^63 - 1: every landing of the pass keeps a high limb
                    land_h = np.zeros(n, dtype=np.uint64)
                    land_h[at] = h
            if not passes:
                # a start inside the table lands on itself
                rem[:inside], pk[:inside], land[:inside] = 0, 0, nodes[:inside]
        # a landing past 2^63 - 1 is not done: negative as int64, or with a high limb
        done = land.view(np.uint64) < bound
        if land_h is not None:
            done &= land_h == 0
        live = None
        if done.any():
            dead, live = done.nonzero()[0], (~done).nonzero()[0]
            at, land = land[dead], land[live]
            land_h = None if land_h is None else land_h[live]
            rem[dead] += _SIG[at]
            pk[dead] = np.maximum(pk[dead], _PK[at].view(np.uint64))
        if not land.size:
            passes.append(_Pass(rem, pk, live, None))
            break
        par, first = _distinct(land, land_h, slots, index, new)
        nodes, high = land[first], None if land_h is None else land_h[first]
        if high is not None and (high >> (_LIMBS - 64)).any():
            # one is past 2^_LIMBS: the next pass walks every node on plain integers
            nodes, high, big = nodes[:0], None, _ints(high, nodes.view(np.uint64))
        passes.append(_Pass(rem, pk, live, par))
    rem = _resolve(passes, "rem", np.add)
    conv = rem <= limit
    res = Checkpoint(lo, hi, cap, size, hi, truncated=[lo + i for i in (~conv).nonzero()[0].tolist()])
    ci = conv.nonzero()[0]
    if ci.size:
        # argmax takes the first maximum, the smallest n: the tie rule
        j = int(ci[np.argmax(rem[ci])])
        res.max_stopping_time, res.max_stopping_time_at = int(rem[j]), lo + j
        pk = _resolve(passes, "peak", np.maximum)[ci]
        j = int(np.argmax(pk))
        res.max_excursion, res.max_excursion_at = int(pk[j]), lo + int(ci[j])
        if pk[j] >= _WIDE:
            # the converged starts near the top code walk again exactly, the
            # truncated ones never: the first exact maximum wins
            near = [lo + i for i in ci[pk >= pk[j] - np.uint64(_MARGIN)].tolist()]
            ends, _, peaks = _jump_plain(near, _NEVER)
            exact = [max(x, int(_PK[e])) for e, x in zip(ends, peaks)]
            res.max_excursion = max(exact)
            res.max_excursion_at = near[exact.index(res.max_excursion)]
    return res


def _resolve(passes: list[_Pass], row: str, op) -> np.ndarray:
    """Fold one row of every pass (rem: added; peak: maxed) back to the starts, in place."""
    rows = [getattr(p, row) for p in passes]
    for p, back, ahead in zip(passes[-2::-1], rows[-2::-1], rows[::-1]):
        if p.live is None:
            op(back, ahead[p.parent], out=back)
        else:
            back[p.live] = op(back[p.live], ahead[p.parent])
    return rows[0]


def _chunk_stats(bounds: tuple[int, int], cap: int) -> Checkpoint:
    lo, hi = bounds
    acc = Checkpoint(lo, hi, cap, hi - lo, lo)
    for start in range(lo, hi, _LANES):
        _merge(acc, _chunk_numpy(start, min(start + _LANES, hi), cap))
    return acc


# ---------------------------------------------------------------------------
# merging, running, checkpointing


def _beats(value, at, best, best_at) -> bool:
    # maxima order by (value, -n): a tie goes to the smaller n
    return value is not None and (best is None or (value, -at) > (best, -best_at))


def _merge(state: Checkpoint, part: Checkpoint) -> Checkpoint:
    """Fold part, a result inside state's range, into state; return state.

    Maxima keep the larger (value, -n) and the truncated list stays
    ascending, so any merge order gives the same state.
    """
    state.next_unprocessed = max(state.next_unprocessed, part.next_unprocessed)
    if _beats(
        part.max_stopping_time, part.max_stopping_time_at,
        state.max_stopping_time, state.max_stopping_time_at,
    ):
        state.max_stopping_time = part.max_stopping_time
        state.max_stopping_time_at = part.max_stopping_time_at
    if _beats(
        part.max_excursion, part.max_excursion_at, state.max_excursion, state.max_excursion_at
    ):
        state.max_excursion = part.max_excursion
        state.max_excursion_at = part.max_excursion_at
    if state.truncated and part.truncated and part.truncated[0] < state.truncated[-1]:
        state.truncated = sorted(state.truncated + part.truncated)
    else:
        state.truncated.extend(part.truncated)
    return state


def run(state: Checkpoint, jobs: int = 1, checkpoint_path: Optional[Union[str, Path]] = None) -> Checkpoint:
    """Run state on to hi, saved to checkpoint_path (if any) per chunk; DomainError if no run reaches it."""
    _check(state)
    natural("jobs", jobs)  # a float would fail in the pool
    nxt, size, hi = state.next_unprocessed, state.chunk_size, state.hi
    if nxt <= _SIG.size:
        # a run that starts inside the table grows it over its own values
        _ensure_tables(hi)
    # bounds are made as chunks start, never listed: a range may hold more
    # chunks than memory does, and more than len() can count
    chunks = ((a, min(a + size, hi)) for a in range(nxt, hi, size))
    workers = min(jobs, -((nxt - hi) // size))

    def consume(parts):
        for part in parts:
            _merge(state, part)
            if checkpoint_path is not None:
                checkpoint_save(state, checkpoint_path)

    if workers > 1:
        # tables are inherited by forked workers; results merge in order.
        # Workers ignore Ctrl-C: on it the queued chunks are dropped, and the
        # file keeps the last merged state. The fork context starts every
        # worker on the first submit, so the pool is no larger than needed.
        # The pool modules load only here: a one-process run never needs them.
        import multiprocessing
        import signal
        from concurrent.futures import ProcessPoolExecutor

        ctx = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(workers, ctx, signal.signal, (signal.SIGINT, signal.SIG_IGN))
        try:
            consume(_in_order(pool, chunks, state.step_cap, 2 * workers))
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        consume(_chunk_stats(bounds, state.step_cap) for bounds in chunks)
    return state


def _in_order(pool, chunks, cap: int, depth: int):
    """Chunk results in chunk order, with at most depth chunks submitted and not yet read."""
    pending: deque = deque()
    for bounds in chunks:
        pending.append(pool.submit(_chunk_stats, bounds, cap))
        if len(pending) == depth:
            yield pending.popleft().result()
    yield from (future.result() for future in pending)


def verify_range(
    lo: int,
    hi: int,
    step_cap: int = DEFAULT_STEP_CAP,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    jobs: int = 1,
    checkpoint_path: Optional[Union[str, Path]] = None,
) -> Checkpoint:
    """Verify every n in [lo, hi); return the finished state (see the module notes)."""
    return run(Checkpoint(lo, hi, step_cap, chunk_size, lo), jobs, checkpoint_path)


def _fmt_opt_pair(value: Optional[int], at: Optional[int]) -> str:
    if value is None:
        return "- -"
    return f"{int_to_decimal(value)} {at}"


def _checkpoint_text(state: Checkpoint) -> str:
    """The checkpoint file for state: the one place the format is written."""
    # int_to_decimal turns a number past the int/str digit limit into a
    # DomainError before the file opens; every number written without it
    # is below hi or the cap
    lines = [
        f"collatzbin-checkpoint v{CHECKPOINT_VERSION}",
        f"range {int_to_decimal(state.lo)} {int_to_decimal(state.hi)}",
        f"step_cap {int_to_decimal(state.step_cap)}",
        f"chunk_size {int_to_decimal(state.chunk_size)}",
        f"next {state.next_unprocessed}",
        f"verified {state.verified_count}",
        f"max_sigma {_fmt_opt_pair(state.max_stopping_time, state.max_stopping_time_at)}",
        f"max_excursion {_fmt_opt_pair(state.max_excursion, state.max_excursion_at)}",
        "hist " + " ".join(str(c) for c in state.histogram),
    ]
    lines.extend(f"trunc {t}" for t in state.truncated)
    lines.append("end")
    return "\n".join(lines) + "\n"


def checkpoint_save(state: Checkpoint, path: Union[str, Path]) -> None:
    """Atomically write the run state: temp file in place, then rename."""
    path = Path(path)
    text = _checkpoint_text(state)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        # an interrupt or a failed write leaves no temp file behind
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
        raise


def _parse_opt_pair(rest: list[str]) -> tuple[Optional[int], Optional[int]]:
    if rest == ["-", "-"]:
        return None, None
    a, b = rest
    return int(a), int(b)


def checkpoint_load(path: Union[str, Path]) -> Checkpoint:
    """The state in path, if the file is exactly what checkpoint_save writes
    for a state a run can reach; otherwise CheckpointError."""
    path = Path(path)
    try:
        # bytes as they are: text mode would turn CRLF into LF
        text = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    lines = text.splitlines()
    head = lines[0] if lines else ""
    if head != f"collatzbin-checkpoint v{CHECKPOINT_VERSION}":
        raise CheckpointError(
            f"unsupported checkpoint header {head!r}; this build reads v{CHECKPOINT_VERSION}"
        )
    try:
        # fields by position; verified, hist and the end marker are derived,
        # and the text comparison below checks every byte
        (_, lo, hi), (_, cap), (_, chunk), (_, nxt), _, (_, *sig), (_, *peak), _ = (
            line.split(" ") for line in lines[1:9]
        )
        state = Checkpoint(
            int(lo), int(hi), int(cap), int(chunk), int(nxt),
            truncated=[int(line[6:]) for line in lines[9:-1]],
        )
        state.max_stopping_time, state.max_stopping_time_at = _parse_opt_pair(sig)
        state.max_excursion, state.max_excursion_at = _parse_opt_pair(peak)
        _check(state)
        if _checkpoint_text(state) != text:
            raise ValueError("not the text this build writes for its state")
    except ValueError as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    return state


def _check(state: Checkpoint) -> None:
    """Raise DomainError unless a run can reach state: fields and range as verify_range
    takes them, each saved maximum what the kernel gives for a block of its one input."""
    for name in ("lo", "hi", "step_cap", "chunk_size"):
        natural(name, getattr(state, name))
    lo, nxt, hi, cap = state.lo, state.next_unprocessed, state.hi, state.step_cap
    if not lo < hi:
        raise DomainError(f"need 1 <= lo < hi, got [{shown(lo)}, {shown(hi)})")
    if not lo <= nxt <= hi:
        raise DomainError(f"need lo <= next <= hi, got {shown(lo)}, {shown(nxt)}, {shown(hi)}")
    trunc = state.truncated
    if any(a >= b for a, b in zip([lo - 1, *trunc], [*trunc, nxt])):
        raise DomainError(f"truncated inputs must ascend strictly inside [{shown(lo)}, {shown(nxt)})")
    for best, at in (
        (state.max_stopping_time, state.max_stopping_time_at),
        (state.max_excursion, state.max_excursion_at),
    ):
        if (best is None) != (state.verified_count == 0):
            raise DomainError("maxima must be present exactly when some value is verified")
        if at is not None and not lo <= at < nxt:
            raise DomainError(f"maximum at {shown(at)} lies outside [{shown(lo)}, {shown(nxt)})")
    if not state.verified_count:
        return
    sig, n = state.max_stopping_time, state.max_stopping_time_at
    if sig > cap:
        raise DomainError(f"max stopping time {shown(sig)} exceeds step_cap {shown(cap)}")
    if _chunk_numpy(n, n + 1, cap).max_stopping_time != sig:
        raise DomainError(f"{shown(n)} does not stop in {shown(sig)} steps at cap {shown(cap)}")
    peak, n = state.max_excursion, state.max_excursion_at
    if _chunk_numpy(n, n + 1, cap).max_excursion != peak:
        raise DomainError(f"{shown(n)} does not peak at {shown(peak)} within cap {shown(cap)}")


def summarize(state: Checkpoint) -> str:
    """Fixed-layout text summary of a finished run; byte-identical for equal states."""
    if state.next_unprocessed != state.hi:
        lo, hi, nxt = map(shown, (state.lo, state.hi, state.next_unprocessed))
        raise DomainError(f"run [{lo}, {hi}) unfinished at {nxt}")
    # int_to_decimal turns a number past the int/str digit limit into a
    # DomainError; every number printed without it is below hi or the cap
    lo, hi, cap = map(int_to_decimal, (state.lo, state.hi, state.step_cap))
    # the maxima exist exactly when some value is verified
    sig = exc = "none"
    if state.verified_count:
        sig = f"{state.max_stopping_time} at {state.max_stopping_time_at}"
        exc = f"{int_to_decimal(state.max_excursion)} at {state.max_excursion_at}"
    classes = ", ".join(f"{cls.value} {c}" for cls, c in zip(NumberClass, state.histogram))
    lines = [
        f"range: [{lo}, {hi})",
        f"step cap: {cap}",
        f"verified: {state.verified_count}",
        f"truncated: {len(state.truncated)}",
        f"max stopping time: {sig}",
        f"max excursion: {exc}",
        f"classes: {classes}",
    ]
    if state.truncated:
        lines.append("truncated inputs: " + " ".join(map(str, state.truncated)))
    return "\n".join(lines) + "\n"
