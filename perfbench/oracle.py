"""Plain-int oracles for every operation the workloads run.

``check(op, out)`` returns a list of mismatches between the program's
stdout for ``op`` and what plain Python integers say it must be; an empty
list means the output is correct. Nothing here imports collatzbin, so the
oracle cannot share a defect with the program it checks.

Decimal strings are built by :func:`dec`, which splits big values so no
single ``str(int)`` passes CPython's 4300-digit conversion limit; the
limit itself is left alone, because the program runs in this process.
"""

from __future__ import annotations

import random
from typing import Optional

from workloads import Op

# documented defaults of the CLI
VERIFY_DEFAULT_CAP = 10**5
ORBIT_DEFAULT_CAP = 2**20

# values verify reports that are rechecked by walking them, per op
VERIFY_SAMPLE = 48
# prefixes of a big path that are checked digit by digit
PATH_SAMPLE = 48
# str(int) below this many bits stays far under the 4300-digit limit
_SAFE_BITS = 12000


def dec(n: int) -> str:
    """Decimal string of n >= 0 of any size."""
    if n.bit_length() <= _SAFE_BITS:
        return str(n)
    m = n.bit_length() * 30103 // 200000  # about half the digit count
    high, low = divmod(n, 10**m)
    return dec(high) + dec(low).zfill(m)


def walk(n: int, cap: int) -> tuple[Optional[int], int]:
    """(stopping time, orbit peak) of n, with None once cap steps pass."""
    v, steps, peak = n, 0, n
    while v != 1:
        if steps >= cap:
            return None, peak
        v = 3 * v + 1 if v & 1 else v >> 1
        steps += 1
        if v > peak:
            peak = v
    return steps, peak


def _odd_part(n: int) -> int:
    return n >> ((n & -n).bit_length() - 1)


def _exponents(n: int) -> list[int]:
    return [i for i, c in enumerate(reversed(format(n, "b"))) if c == "1"][::-1]


def _set(exps) -> str:
    return "{%s}" % ",".join(map(str, exps))


# ---------------------------------------------------------------------------
# verify


def class_counts(lo: int, hi: int) -> tuple[int, int, int, int, int]:
    """Digit-class histogram of [lo, hi) in closed form: origin, pure-even,
    pure-odd, mixed-even, mixed-odd."""
    top = hi.bit_length() + 1
    origin = int(lo <= 1 < hi)
    pure_even = sum(lo <= 1 << k < hi for k in range(1, top))
    pure_odd = sum(lo <= (1 << m) - 1 < hi for m in range(2, top))
    evens = (hi + 1) // 2 - (lo + 1) // 2
    odds = hi - lo - evens
    return origin, pure_even, pure_odd, evens - pure_even, odds - pure_odd - origin


def parse_summary(out: str) -> dict:
    """Fields of a ``verify`` summary; raises ValueError when malformed."""
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"unexpected summary line {line[:80]!r}")
        fields[key] = value
    lo, hi = fields["range"].strip("[)").split(", ")

    def pair(text):
        if text == "none":
            return None
        a, at = text.split(" at ")
        return int(a), int(at)

    classes = [int(part.rsplit(" ", 1)[1]) for part in fields["classes"].split(", ")]
    truncated = fields.get("truncated inputs")
    return {
        "lo": int(lo),
        "hi": int(hi),
        "cap": int(fields["step cap"]),
        "verified": int(fields["verified"]),
        "truncated": int(fields["truncated"]),
        "max_sigma": pair(fields["max stopping time"]),
        "max_peak": pair(fields["max excursion"]),
        "classes": tuple(classes),
        "truncated_inputs": [int(t) for t in truncated.split(" ")] if truncated else [],
    }


def check_verify(op: Op, out: str) -> list[str]:
    cap = op.cap if op.cap is not None else VERIFY_DEFAULT_CAP
    try:
        s = parse_summary(out)
    except (KeyError, ValueError, IndexError) as exc:
        return [f"unparsable summary: {type(exc).__name__}: {exc}"]
    bad = []
    if (s["lo"], s["hi"], s["cap"]) != (op.lo, op.hi, cap):
        bad.append(f"header {(s['lo'], s['hi'], s['cap'])} != {(op.lo, op.hi, cap)}")
    if s["verified"] + s["truncated"] != op.hi - op.lo:
        bad.append(f"verified + truncated = {s['verified'] + s['truncated']}, window {op.hi - op.lo}")
    trunc = s["truncated_inputs"]
    if len(trunc) != s["truncated"] or trunc != sorted(set(trunc)):
        bad.append("truncated list is not the ascending set of the truncated count")
    if trunc and not (op.lo <= trunc[0] and trunc[-1] < op.hi):
        bad.append("truncated list leaves the window")
    if s["classes"] != class_counts(op.lo, op.hi):
        bad.append(f"classes {s['classes']} != {class_counts(op.lo, op.hi)}")

    # both argmax entries, recomputed exactly
    for key, index in (("max_sigma", 0), ("max_peak", 1)):
        pair = s[key]
        if pair is None:
            if s["verified"]:
                bad.append(f"{key} missing with {s['verified']} verified")
            continue
        value, at = pair
        got = walk(at, cap)
        if not op.lo <= at < op.hi or got[0] is None or got[index] != value:
            bad.append(f"{key} {value} at {at}: oracle gives {got}")

    # seeded sample: truncation status and the maxima as upper bounds
    truncated = set(trunc)
    rng = random.Random(f"oracle:{op.lo}:{op.hi}:{cap}")
    for n in (rng.randrange(op.lo, op.hi) for _ in range(VERIFY_SAMPLE)):
        sigma, peak = walk(n, cap)
        if (sigma is None) != (n in truncated):
            bad.append(f"{n}: stopping time {sigma} with cap {cap}, listed truncated: {n in truncated}")
        elif sigma is not None:
            for got, pair in ((sigma, s["max_sigma"]), (peak, s["max_peak"])):
                if pair is None or got > pair[0] or (got == pair[0] and n < pair[1]):
                    bad.append(f"{n}: value {got} beats reported maximum {pair}")
    return bad


# ---------------------------------------------------------------------------
# orbit commands; each builds the exact expected stdout


def _stopping_time(n: int, cap: int) -> str:
    sigma, _ = walk(n, cap)
    return "truncated\n" if sigma is None else f"{sigma}\n"


def _odd_chain(n: int, cap: int) -> Optional[list[int]]:
    v = _odd_part(n)
    chain = [v]
    while v != 1:
        if len(chain) > cap:
            return None
        v = _odd_part(3 * v + 1)
        chain.append(v)
    return chain


def _trace_table(n: int, cap: int) -> str:
    chain = _odd_chain(n, cap)
    if chain is None:
        return "truncated\n"
    if chain == [1]:
        return "1=(1)₂\n"
    return "".join(f"{dec(v)}=({v:b})₂ → ({3 * v + 1:b})₂\n" for v in chain[:-1])


def _orbit(n: int, cap: int) -> tuple[list[int], bool]:
    values = [n]
    v = n
    for _ in range(cap):
        v = 3 * v + 1 if v & 1 else v >> 1
        values.append(v)
        if v == 1:
            return values, False
    return values, True


def _trace_machine(n: int, cap: int) -> str:
    values, truncated = _orbit(n, cap)
    last = len(values) - 1
    lines = []
    for i, v in enumerate(values):
        kind = "" if i == 0 else ("odd-step" if values[i - 1] & 1 else "even-step")
        ann = "truncated" if truncated and i == last else ""
        lines.append(f"{i},{dec(v)},{v:b},{kind},{ann}\n")
    return "".join(lines)


def _trace_points(n: int, cap: int) -> str:
    values, _ = _orbit(n, cap)
    return "".join(f"{i},{dec(v)}\n" for i, v in enumerate(values))


def _decompose(n: int, cap: int) -> str:
    lines = []
    v = n
    for _ in range(cap):
        t = 3 * v + 1
        h = (t & -t).bit_length() - 1
        before = _exponents(v)
        raw = sorted([e + 1 for e in before] + before + [0], reverse=True)
        nxt = t >> h
        lines.append(
            f"{dec(v)} = {_set(before)} -> {_set(raw)} -> {_set(_exponents(t))} -> shift {h} -> {dec(nxt)}\n"
        )
        v = nxt
        if v == 1:
            return "".join(lines)
    return "truncated\n"


def _classify(n: int) -> str:
    if n == 1:
        cls = "origin"
    elif n & (n - 1) == 0:
        cls = "pure-even"
    elif n & (n + 1) == 0:
        cls = "pure-odd"
    else:
        cls = "mixed-odd" if n & 1 else "mixed-even"
    return f"{cls} {n:b}\n"


def _steps(n: int) -> str:
    return "".join("O" if c == "1" else "E" for c in format(n, "b")[1:])


def _path(n: int) -> str:
    length = n.bit_length()
    walk_ = " ".join(dec(n >> (length - 1 - i)) for i in range(length))
    steps = _steps(n)
    return f"{walk_} / {steps}\n" if steps else f"{walk_} /\n"


def _check_big_path(n: int, out: str) -> list[str]:
    # the full expected text is quadratic in the bit length: check the
    # step string, the prefix count and a seeded sample of prefixes
    walk_, sep, steps = out.rstrip("\n").partition(" / ")
    tokens = walk_.split(" ")
    length = n.bit_length()
    if not sep or steps != _steps(n) or len(tokens) != length:
        return [f"path shape: {len(tokens)} prefixes for {length} bits, steps match {steps == _steps(n)}"]
    rng = random.Random(f"oracle:path:{n}")
    picks = list(range(8)) + [length - 1] + [rng.randrange(length) for _ in range(PATH_SAMPLE)]
    return [f"path prefix {i} wrong" for i in picks if tokens[i] != dec(n >> (length - 1 - i))]


def _hard(k: int) -> str:
    a = ((1 << (2 * k)) - 1) // 3
    t = 3 * a + 1
    return (
        f"a_{k} = {dec(a)} ({a:b})\n"
        f"T(a_{k}) = {dec(t)} ({t:b})\n"
        f"T^{2 * k + 1}(a_{k}) = 1: ok\n"
    )


def expected_orbit(op: Op) -> str:
    cap = op.cap if op.cap is not None else ORBIT_DEFAULT_CAP
    n = op.n
    label = op.label
    if label == "stopping-time":
        return _stopping_time(n, cap)
    if label == "trace-table":
        return _trace_table(n, cap)
    if label == "trace-machine":
        return _trace_machine(n, cap)
    if label == "trace-points":
        return _trace_points(n, cap)
    if label == "decompose":
        return _decompose(n, cap)
    if label == "classify":
        return _classify(n)
    if label == "path":
        return _path(n)
    if label == "hard":
        return _hard(n)
    raise ValueError(f"no oracle for {label!r}")


def check(op: Op, out: str) -> list[str]:
    """Mismatches between op's stdout and the oracle; empty when correct."""
    if op.argv[0] == "verify":
        return check_verify(op, out)
    if op.label == "path" and op.bits > _SAFE_BITS:
        return _check_big_path(op.n, out)
    want = expected_orbit(op)
    if out == want:
        return []
    # report where the texts part, not the (possibly megabytes of) texts
    at = next((i for i, (a, b) in enumerate(zip(out, want)) if a != b), min(len(out), len(want)))
    return [f"{op.label} output differs from the oracle at char {at} ({len(out)} vs {len(want)} chars)"]
