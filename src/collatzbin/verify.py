"""Batch convergence checks over contiguous ranges, with checkpoints.

The engine walks every n in [lo, hi) to 1 (or to a step cap), recording
the stopping time and the orbit peak. Internally it runs on machine
integers under numpy with two escape hatches: values below a table bound
resolve through precomputed stopping-time/peak tables, and a lane at
risk of overflowing 64 bits takes the same jumps on plain Python
integers until it fits again. The table entries are exact, so the
tables depend only on hi and the cap is applied at lookup. Every
partial result, from one value to a whole run, is a Checkpoint holding
only what the walks find (the maxima and the truncated inputs); the
verified count and the digit-class histogram follow from the range
(class_counts). Merging is order-free, so the result is identical for
any chunk size, any worker count, and across checkpoint
interrupt/resume. verify_range and checkpoint_resume return the finished
Checkpoint, and summarize formats it.

Above the table bound a lane does not step once per iteration: it jumps
_K = 16 halvings at a time. Writing v = 2^16·a + b, the walk through
its 16th halving ends at A(b)·a + B(b) after 16 + c(b) steps, where c(b)
counts the odd steps (the parity-vector identity the paper's binary
split n = 2^k·a + b rests on), so one table over the 2^16 residues b
serves every lane. The same table holds, per residue, bounds M1(b) and
M2(b) with every value inside the jump at most a·M1(b) + M2(b), and the
int64 gate LIM(b): a <= LIM(b) keeps every value inside the jump within
2^63 - 1. A lane jumps on int64 arrays while its gate holds, and on
plain integers, as every start at or past 2^63 does, until it holds
again. A jumping lane starts at or above the table bound, so a >= 1 and
the jump cannot pass through 1: stopping times stay exact. Peaks become
bounds: each lane carries an exact lower bound (values it landed on) and
an upper bound (the jumps' a·M1 + M2), and only lanes whose upper bound
reaches the best lower bound of their block are walked again, in
ascending n, so the tie rule below still holds. A lane walked again
steps one value at a time only inside the jumps whose bound beats the
best peak found so far.

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
maximum is what a fresh walk of its n gives.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import KW_ONLY, dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .bitnat import int_to_decimal
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
    "checkpoint_resume",
    "summarize",
]

BASE_TABLE_BOUND = 1 << 20
CHECKPOINT_VERSION = 1

# histogram order, fixed for serialization
_HIST_ORDER = (
    NumberClass.ORIGIN,
    NumberClass.PURE_EVEN,
    NumberClass.PURE_ODD,
    NumberClass.MIXED_EVEN,
    NumberClass.MIXED_ODD,
)


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
        """The values of each class in _HIST_ORDER."""
        counts = class_counts(self.lo, self.next_unprocessed)
        return tuple(counts[cls] for cls in _HIST_ORDER)


# ---------------------------------------------------------------------------
# tables, shared with forked workers through module globals

# exact stopping time and orbit peak of every 1 <= n < len(_SIG); a
# stopping time below 2^20 is at most 524, so int16 holds it
_SIG = np.array([-1, 0], dtype=np.int16)
_PK = np.array([0, 1], dtype=np.int64)
# values per numpy block when the base table grows and in the kernel:
# blocks this small keep the scratch arrays in cache and inside memory the
# process already holds, and run faster than whole chunks
_BUILD_BLOCK = 1 << 16
_LANES = 1 << 14

# the jump kernel takes _K halvings at once, through a table over the
# residues b = v mod 2^_K (built by _jump_table)
_K = 16
_MASK = (1 << _K) - 1
_JUMP: Optional[np.ndarray] = None
# rows A, B, S, M1, M2, LIM of _JUMP and the base tables as zero-copy
# views: the plain-int walks read them one entry at a time
_VIEWS: tuple[memoryview, ...] = ()


def _jump_table() -> np.ndarray:
    """Rows A, B, S, M1, M2, LIM over residues b < 2^_K; b's six share a cache line.

    For v = 2^_K·a + b, the plain map reaches A(b)·a + B(b) in S(b) steps,
    after its _K-th halving: the parity-vector identity (Terras 1976),
    with A = 3^c for c odd steps and S = _K + c. Each value on the way,
    3v+1 values included, is p·a + q with p <= M1(b) and q <= M2(b), so
    a <= LIM(b) = (2^63 - 1 - M2(b)) // M1(b) keeps the block in int64.
    """
    table = np.empty((6, 1 << _K), dtype=np.int64)
    alpha, y, steps, m1, m2, lim = table
    alpha[:] = 1 << _K  # coefficient of a
    y[:] = np.arange(1 << _K)  # b's block, one halving at a time
    steps[:] = _K
    m1[:], m2[:] = alpha, y
    for _ in range(_K):
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


def _ensure_tables(hi: int) -> None:
    """Build the jump table once; grow the base tables to at least
    min(BASE_TABLE_BOUND, hi) entries.

    Base entries carry no cap, so one table serves every cap and every
    range it is long enough for. Growth at least doubles the length (up
    to the bound), one block [s, min(bound, 2s, s + _BUILD_BLOCK)) at a
    time: a block's lanes walk until they drop below s, into entries
    already exact.
    """
    global _SIG, _PK, _JUMP, _VIEWS
    if _JUMP is None:
        _JUMP = _jump_table()
    old = _SIG.size
    if old < min(BASE_TABLE_BOUND, hi):
        bound = min(BASE_TABLE_BOUND, max(hi, 2 * old))
        sig = np.empty(bound, dtype=np.int16)
        pk = np.empty(bound, dtype=np.int64)
        sig[:old] = _SIG
        pk[:old] = _PK
        s = old
        while s < bound:
            e = min(bound, 2 * s, s + _BUILD_BLOCK)
            _fill_segment(sig, pk, s, e)
            s = e
        _SIG, _PK = sig, pk
    _VIEWS = (*map(memoryview, _JUMP), memoryview(_SIG), memoryview(_PK))


def _fill_segment(sig: np.ndarray, pk: np.ndarray, lo: int, hi: int) -> None:
    """Fill entries [lo, hi) from the exact ones below lo < hi <= 2 * lo."""
    # an even n halves to n / 2 < lo
    even = lo + (lo & 1)
    halves = slice(even // 2, (hi + 1) // 2)
    sig[even:hi:2] = sig[halves] + 1
    pk[even:hi:2] = np.maximum(np.arange(even, hi, 2, dtype=np.int64), pk[halves])
    # odd lanes take v -> (3v + 1) / 2, two steps, or v -> v / 2, one step,
    # with no branch on the parity, until they drop below lo
    at = np.arange(lo | 1, hi, 2, dtype=np.int64)
    v = at.copy()
    steps = np.zeros(at.size, dtype=np.int64)
    peak = at.copy()
    while at.size:
        odd = v & 1
        v += odd * (2 * v + 1)
        np.maximum(peak, v, out=peak)
        v >>= 1
        steps += odd + 1
        done = v < lo
        if done.any():
            vd = v[done]
            sig[at[done]] = steps[done] + sig[vd]
            pk[at[done]] = np.maximum(peak[done], pk[vd])
            keep = ~done
            at, v, steps, peak = at[keep], v[keep], steps[keep], peak[keep]


# ---------------------------------------------------------------------------
# partial results: one value, one chunk


def _walk_row(cap: int, n: int, floor: float = math.inf) -> tuple[int, int, int]:
    """Walk n again on plain integers, into the base table or to the cap.

    Returns (stopping time, or -1 past the cap; low; high): the orbit peak
    lies in [low, high], and equals low whenever it exceeds floor. A jump
    whose bound a·M1 + M2 beats floor and low is walked one value at a
    time, so that no value above floor goes unseen. The tables must reach
    BASE_TABLE_BOUND >= 2^_K (_ensure_tables): a value still walking has
    a >= 16, and no jump can pass through 1.
    """
    A, B, S, M1, M2, _, sig, pk = _VIEWS
    bound = len(sig)
    v, steps, low, high = n, 0, n, n
    while v >= bound and steps < cap:
        a = v >> _K
        b = v & _MASK
        top = a * M1[b] + M2[b]
        if top > high:
            high = top
        if top > floor and top > low:
            for _ in range(S[b]):
                v = 3 * v + 1 if v & 1 else v >> 1
                if v > low:
                    low = v
        else:
            v = A[b] * a + B[b]
            if v > low:
                low = v
        steps += S[b]
    if v < bound and steps + sig[v] <= cap:
        return steps + sig[v], max(low, pk[v]), max(high, pk[v])
    return -1, low, high


def _take_peaks(res: Checkpoint, cap: int, lanes: list) -> None:
    """Set res's max excursion from converged lanes (n, low, high), ascending n.

    Each lane's peak lies in [low, high], so the maximum is at least the
    largest low. A lane whose high does not beat the best peak so far
    cannot hold it; any other is walked again, exactly only inside the
    jumps whose bound beats that best. A tie keeps the smaller n.
    """
    best = max(low for _, low, _ in lanes) - 1
    for n, low, high in lanes:
        if high <= best:
            continue
        peak = low if low == high else _walk_row(cap, n, best)[1]
        if peak > best:
            best = peak
            res.max_excursion, res.max_excursion_at = peak, n


def _jump_plain(cap: int, lanes, wide: dict) -> list:
    """Jump lanes (i, v, steps, low, high) past their int64 gate on plain ints.

    A lane takes _walk_row's jumps, with no floor, until the cap truncates
    it or a <= LIM(b) holds again and it goes back to the kernel, as i, v,
    steps in one flat list. Its bounds fold into wide[i]: its high is past
    int64 from its first jump on, so the kernel carries 2^63 - 1 instead.
    """
    A, B, S, M1, M2, LIM, _, _ = _VIEWS
    back = []
    for i, v, steps, low, high in lanes:
        if i in wide:
            was_low, high = wide[i]
            low = was_low if was_low > low else low
        while steps < cap:
            a = v >> _K
            b = v & _MASK
            if a <= LIM[b]:
                back += i, v, steps
                break
            top = a * M1[b] + M2[b]
            if top > high:
                high = top
            v = A[b] * a + B[b]
            if v > low:
                low = v
            steps += S[b]
        wide[i] = low, high
    return back


def _chunk_numpy(lo: int, hi: int, cap: int) -> Checkpoint:
    """Values [lo, hi), at most _LANES of them, at any size; lane i walks lo + i.

    The tables must cover hi (_ensure_tables): then either every n resolves
    at once or the base table reaches BASE_TABLE_BOUND >= 2^_K, so a lane
    that jumps has a >= 1 and the jump cannot pass through 1. A lane jumps
    on the int64 arrays while a <= LIM(b), and in _jump_plain past its gate
    or from a start at or past 2^63. Stopping times stay exact; a peak is
    known only to lie in [low, high] (_take_peaks).
    """
    size = hi - lo
    small = min(size, max(0, (1 << 63) - lo))  # lanes that start in int64
    bound = _SIG.size
    A, B, S, M1, M2, LIM = _JUMP
    sig = np.full(size, -1, dtype=np.int64)
    low, high = np.zeros((2, size), dtype=np.int64)
    # lanes in the kernel, compacted: index, value, steps, peak bounds
    at, steps = np.arange(small), np.zeros(small, dtype=np.int64)
    v = np.arange(lo, lo + small, dtype=np.int64)
    lw, hg = v.copy(), v.copy()
    # lanes past their gate, starts past 2^63 first, and their bounds
    ns = range(lo + small, hi)
    out = zip(range(small, size), ns, [0] * len(ns), ns, ns)
    wide: dict[int, tuple[int, int]] = {}
    while True:
        back = _jump_plain(cap, out, wide)
        if back:
            bi, bv, bs = np.array(back, dtype=np.int64).reshape(-1, 3).T
            cols = bi, bv, bs, bv, np.full(bv.size, 2**63 - 1)
            at, v, steps, lw, hg = map(np.concatenate, zip((at, v, steps, lw, hg), cols))
        if not at.size:
            break
        done = v < bound
        if done.any():
            di = at[done]
            vd = v[done]
            sig[di] = steps[done] + _SIG[vd]
            low[di] = np.maximum(lw[done], _PK[vd])
            high[di] = np.maximum(hg[done], _PK[vd])
        huge = (v >> _K) > LIM[v & _MASK]
        out = zip(*(x[huge].tolist() for x in (at, v, steps, lw, hg))) if huge.any() else ()
        keep = ~(done | huge | (steps >= cap))
        if not keep.all():
            at, v, steps, lw, hg = at[keep], v[keep], steps[keep], lw[keep], hg[keep]
        a = v >> _K
        b = v & _MASK
        np.maximum(hg, a * M1[b] + M2[b], out=hg)
        v = A[b] * a + B[b]
        steps += S[b]
        np.maximum(lw, v, out=lw)
    conv = (sig >= 0) & (sig <= cap)
    ci = np.flatnonzero(conv)
    res = Checkpoint(lo, hi, cap, size, hi, truncated=[lo + i for i in np.flatnonzero(~conv).tolist()])
    if ci.size:
        # argmax takes the first maximum, the smallest n: the tie rule
        j = int(ci[np.argmax(sig[ci])])
        res.max_stopping_time, res.max_stopping_time_at = int(sig[j]), lo + j
        # only lanes whose bound reaches the best sure peak can hold the maximum
        ci = ci[high[ci] >= low[ci].max()]
        lanes = []
        for i, low_i, high_i in zip(ci.tolist(), low[ci].tolist(), high[ci].tolist()):
            if i in wide:
                # a lane that left: its high is the plain-int one, past 2^63 - 1
                was_low, high_i = wide[i]
                low_i = was_low if was_low > low_i else low_i
            lanes.append((lo + i, low_i, high_i))
        _take_peaks(res, cap, lanes)
    return res


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


def _run(state: Checkpoint, jobs: int, checkpoint_path: Optional[Union[str, Path]]) -> Checkpoint:
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    _ensure_tables(state.hi)
    nxt, size, hi = state.next_unprocessed, state.chunk_size, state.hi
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
        ctx = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(workers, ctx, signal.signal, (signal.SIGINT, signal.SIG_IGN))
        try:
            consume(_in_order(pool, chunks, state.step_cap, 2 * workers))
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        consume(_chunk_stats(bounds, state.step_cap) for bounds in chunks)
    return state


def _in_order(pool: ProcessPoolExecutor, chunks, cap: int, depth: int):
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
    for name, bound in (("lo", lo), ("hi", hi)):
        if not isinstance(bound, int):
            raise DomainError(f"{name} must be an integer value, got {type(bound).__name__}")
    if lo < 1 or hi <= lo:
        raise DomainError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if step_cap < 1:
        raise DomainError(f"step_cap must be >= 1, got {step_cap}")
    if chunk_size < 1:
        raise DomainError(f"chunk_size must be >= 1, got {chunk_size}")
    state = Checkpoint(lo, hi, step_cap, chunk_size, lo)
    return _run(state, jobs, checkpoint_path)


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
        _check_maxima(state)
    except ValueError as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    return state


def _check(state: Checkpoint) -> None:
    """Raise ValueError unless the loaded state is one a run can reach."""
    lo, nxt, hi = state.lo, state.next_unprocessed, state.hi
    if not 1 <= lo <= nxt <= hi:
        raise ValueError(f"need 1 <= lo <= next <= hi, got {lo}, {nxt}, {hi}")
    if state.step_cap < 1 or state.chunk_size < 1:
        raise ValueError(
            f"step_cap {state.step_cap} and chunk_size {state.chunk_size} must be >= 1"
        )
    trunc = state.truncated
    if any(a >= b for a, b in zip([lo - 1, *trunc], [*trunc, nxt])):
        raise ValueError(f"truncated inputs must ascend strictly inside [{lo}, {nxt})")
    for best, at in (
        (state.max_stopping_time, state.max_stopping_time_at),
        (state.max_excursion, state.max_excursion_at),
    ):
        if (best is None) != (state.verified_count == 0):
            raise ValueError("maxima must be present exactly when some value is verified")
        if at is not None and not lo <= at < nxt:
            raise ValueError(f"maximum at {at} lies outside [{lo}, {nxt})")
    if state.verified_count and state.max_stopping_time > state.step_cap:
        raise ValueError(
            f"max stopping time {state.max_stopping_time} exceeds step_cap {state.step_cap}"
        )


def _check_maxima(state: Checkpoint) -> None:
    """Raise ValueError unless each saved maximum is its input's own walk."""
    if not state.verified_count:
        return
    _ensure_tables(state.hi)
    cap, n = state.step_cap, state.max_stopping_time_at
    sigma = _walk_row(cap, n)[0]
    if sigma < 0 or sigma != state.max_stopping_time:
        raise ValueError(f"{n} does not stop in {state.max_stopping_time} steps at cap {cap}")
    # a peak above the floor max_excursion - 1 is low exactly
    n = state.max_excursion_at
    sigma, low, _ = _walk_row(cap, n, state.max_excursion - 1)
    if sigma < 0 or low != state.max_excursion:
        raise ValueError(f"{n} does not peak at {state.max_excursion} within cap {cap}")


def checkpoint_resume(path: Union[str, Path], jobs: int = 1) -> Checkpoint:
    """Continue an interrupted run; the finished state matches an unbroken one."""
    return _run(checkpoint_load(path), jobs, path)


def summarize(state: Checkpoint) -> str:
    """Fixed-layout text summary of a finished run; byte-identical for equal states."""
    if state.next_unprocessed != state.hi:
        raise DomainError(f"run [{state.lo}, {state.hi}) unfinished at {state.next_unprocessed}")
    # int_to_decimal turns a number past the int/str digit limit into a
    # DomainError; every number printed without it is below hi or the cap
    lo, hi, cap = map(int_to_decimal, (state.lo, state.hi, state.step_cap))
    # the maxima exist exactly when some value is verified
    sig = exc = "none"
    if state.verified_count:
        sig = f"{state.max_stopping_time} at {state.max_stopping_time_at}"
        exc = f"{int_to_decimal(state.max_excursion)} at {state.max_excursion_at}"
    classes = ", ".join(f"{cls.value} {c}" for cls, c in zip(_HIST_ORDER, state.histogram))
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
