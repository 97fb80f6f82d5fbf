"""Seeded input generators for the two workloads.

Every operation is one argv for ``collatzbin.cli.main`` plus the facts the
oracle needs to check its output. The seed fixes every input; the program
only ever sees the generated argv.

A run is a sequence of *passes*. Every pass of a workload has the same
composition (commands, sizes, counts) with fresh seeded values, and a run
measures whole passes, so per-run figures such as the share of failing
operations do not depend on where the clock stopped.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional

WORKLOADS = ("deep", "orbits")

# a run replays its operations this many times over the same inputs, and
# an operation counts with its best replay (see bench.py)
REPLAYS = {"deep": 6, "orbits": 15}

# seconds one pass takes, all its replays included, on the machine in
# machine.json. A run of --seconds S takes round(S / PASS_SECONDS) passes:
# the count follows from S alone, so two commits are measured over the
# same operations
PASS_SECONDS = {"deep": 36.0, "orbits": 30.0}

# checkpoint argument placeholder, replaced by a path inside the checkout
CHECKPOINT = "@checkpoint@"


# deep bands: (name, base, span of seeded offsets, window size)
DEEP_BANDS = (
    ("1e9", 10**9, 10**9, 1 << 18),
    ("2p40", 1 << 40, 1 << 40, 1 << 18),
    ("2p50", 1 << 50, 1 << 50, 1 << 17),
    # every lane starts above the int64-safe bound: per-lane Python fallback
    ("2p62", 1 << 62, (1 << 62) - (1 << 14), 1 << 12),
    # past 2^63 the engine takes the all-Python chunk path
    ("2p63", 1 << 63, 1 << 63, 1 << 12),
)

# orbit command mix per input size: (label, count); see orbit_op
ORBIT_MIX = {
    64: (
        ("stopping-time", 10),
        ("trace-table", 6),
        ("trace-machine", 6),
        ("trace-points", 6),
        ("decompose", 4),
        ("path", 6),
        ("classify", 6),
        ("hard", 2),
    ),
    500: (
        ("stopping-time", 4),
        ("trace-table", 2),
        ("trace-machine", 1),
        ("trace-points", 1),
        ("decompose", 2),
        ("path", 1),
        ("classify", 1),
        ("hard", 2),
    ),
    2000: (
        ("path", 2),
        ("classify", 2),
        ("hard", 1),
    ),
    # bit strings, walked under a --cap where "truncated" is the answer.
    # path is left out here: it renders all 20,000 prefixes in decimal,
    # seconds of work that would be most of a pass; the traced run has it
    20000: (
        ("stopping-time", 1),
        ("trace-table", 1),
        ("trace-points", 1),
        ("trace-machine", 1),
        ("decompose", 1),
        ("classify", 1),
        ("hard", 1),
    ),
}

# caps for the 20,000-bit walks, in the unit each command counts
BIG_BITS = 20000
BIG_CAPS = {
    "stopping-time": 64,
    "trace-table": 8,
    "trace-points": 32,
    "trace-machine": 32,
    "decompose": 2,
}


@dataclass(frozen=True)
class Op:
    """One CLI call and what the oracle needs to check it."""

    label: str  # command name as reported in failures
    argv: tuple[str, ...]
    bits: int  # bit length of the input value
    # verify ops: [lo, hi) and the cap; orbit ops: n (or k for hard) and cap
    lo: int = 0
    hi: int = 0
    n: int = 0
    cap: Optional[int] = None
    values: int = 1  # values this op covers when it succeeds

    def cli_argv(self, checkpoint_path: str) -> list[str]:
        return [checkpoint_path if a == CHECKPOINT else a for a in self.argv]


def verify_op(label: str, lo: int, size: int, cap: Optional[int], extra: tuple) -> Op:
    hi = lo + size
    argv = ("verify", str(lo), str(hi)) + (("--cap", str(cap)) if cap is not None else ()) + extra
    return Op(label, argv, hi.bit_length(), lo=lo, hi=hi, cap=cap, values=size)


def _deep_passes(rng: random.Random) -> Iterator[list[Op]]:
    while True:
        ops = [
            verify_op(f"verify-{name}", base + rng.randrange(span), size, None, ("--jobs", "1"))
            for name, base, span, size in DEEP_BANDS
        ]
        rng.shuffle(ops)
        yield ops


def _random_value(rng: random.Random, bits: int) -> int:
    return rng.getrandbits(bits - 1) | (1 << (bits - 1))


def orbit_op(rng: random.Random, bits: int, label: str) -> Op:
    if label == "hard":
        # the k-th hard number has 2k - 1 bits
        k = (bits + 1) // 2
        return Op(label, ("hard", str(k)), 2 * k - 1, n=k)
    n = _random_value(rng, bits)
    if label == "decompose":
        n |= 1  # derivations start from an odd value
    big = bits >= BIG_BITS
    value = (format(n, "b"), "--binary") if big else (str(n),)
    command, _, fmt = label.partition("-")
    if label == "stopping-time":
        command, fmt = label, ""
    argv = (command,) + value + (("--format", fmt) if fmt else ())
    cap = BIG_CAPS.get(label) if big else None
    if cap is not None:
        argv += ("--cap", str(cap))
    return Op(label, argv, bits, n=n, cap=cap)


def _orbit_passes(rng: random.Random) -> Iterator[list[Op]]:
    while True:
        ops = [
            orbit_op(rng, bits, label)
            for bits, mix in ORBIT_MIX.items()
            for label, count in mix
            for _ in range(count)
        ]
        rng.shuffle(ops)
        yield ops


def passes(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless seeded passes of one workload; equal seeds give equal passes."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "deep":
        return _deep_passes(rng)
    if workload == "orbits":
        return _orbit_passes(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def fingerprint(workload: str, seed: int, npasses: int = 4) -> str:
    """sha256 over the argv of the first passes, a check that seeds replay."""
    h = hashlib.sha256()
    for ops in itertools.islice(passes(workload, seed), npasses):
        for op in ops:
            h.update("\x1f".join(op.argv).encode())
            h.update(b"\x1e")
    return h.hexdigest()[:16]


def setup_op(workload: str) -> Optional[Op]:
    """The first verify call of the deep workload: a one-value window at the
    floor of its lowest band and the default cap, which builds the
    verifier's base table. The orbits workload makes no verify call.

    The value is fixed, not seeded, so set-up time does not vary with the
    orbit length of a seeded value.
    """
    if workload == "deep":
        return verify_op("verify-setup", DEEP_BANDS[0][1], 1, None, ("--jobs", "1"))
    return None
