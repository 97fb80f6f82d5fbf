"""Oracle campaign: verify_range against a plain-integer walk of every value.

    python tools/fuzz.py --seconds S --seed N

Draws windows within 2^12 of a start from tests/windows.py (a base of the
Hypothesis strategies, a named edge start or a table row's lo): 1 to 4,096
values, or 1 to 64 past 2^128, where an oracle walk takes milliseconds. Three
in four take a cap from the window's own stopping times, clipped so that some
starts converge and some truncate; the rest take the default cap. Each runs
at chunk size 1, 8 or a random one, on one or two jobs, with _TAIL 0 or 64
and _LANES 2^6 to 2^16. One in four with a chunk boundary strictly inside
stops there, at cut: [lo, cut) is run, saved with hi set back, loaded and
run on to hi. The report must equal oracle_report's; the first window that
differs, or whose run raises, is printed as one verify_range(...) call with
its _TAIL, _LANES and cut, followed by the exception's type and message if
it raised, and the script exits 1. It stops after the first window that
ends past S seconds. The summary counts the windows whose maximum
excursion is past 2^63 - 1, where the kernel walked a block's top starts
again for their exact peaks.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from collatzbin.verify import (  # noqa: E402
    DEFAULT_CHUNK_SIZE,
    DEFAULT_STEP_CAP,
    checkpoint_load,
    checkpoint_save,
    run,
    verify_range,
)
from windows import BASES, NAMED, WINDOWS, kernel, oracle_report, oracle_walks  # noqa: E402

STARTS = sorted({*(b for bases in BASES.values() for b in bases), *NAMED, *(w.lo for w in WINDOWS)})


def draw(rng: random.Random) -> tuple[tuple, tuple]:
    """One window, (lo, hi, cap, chunk, jobs, cut) with cut None for a straight
    run, and the kernel it runs on, (_TAIL, _LANES)."""
    base = rng.choice(STARTS)
    size = rng.randint(1, 1 << rng.randint(0, 12 if base < 1 << 128 else 6))
    lo = max(1, base + rng.randint(-(1 << 12), (1 << 12) - size))
    hi = lo + size
    cap = DEFAULT_STEP_CAP
    sigmas = sorted(sigma for sigma, _ in oracle_walks(lo, hi))
    if rng.random() < 0.75 and sigmas[0] < sigmas[-1]:
        # min, median or max, or one off it, inside [min, max - 1]; at least
        # 1, since n = 1 stops in 0 steps
        cap = rng.choice((sigmas[0], sigmas[size // 2], sigmas[-1])) + rng.randint(-1, 1)
        cap = max(1, min(max(cap, sigmas[0]), sigmas[-1] - 1))
    chunk = rng.choice((1, 8, rng.randint(1, size + 100)))
    cuts = range(lo + chunk, hi, chunk)  # the chunk boundaries strictly inside
    cut = rng.choice(cuts) if cuts and rng.random() < 0.25 else None
    setting = rng.choice((0, 64)), 1 << rng.randint(6, 16)
    return (lo, hi, cap, chunk, rng.choice((1, 2)), cut), setting


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    start = time.monotonic()
    windows = values = resumed = wide = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.txt"
        while time.monotonic() - start < args.seconds:
            (lo, hi, cap, chunk, jobs, cut), setting = draw(rng)
            crash = None
            with kernel(*setting):
                try:
                    if cut is None:
                        got = verify_range(lo, hi, step_cap=cap, chunk_size=chunk, jobs=jobs)
                    else:
                        part = verify_range(lo, cut, step_cap=cap, chunk_size=chunk, jobs=jobs)
                        checkpoint_save(dataclasses.replace(part, hi=hi), path)
                        got = run(checkpoint_load(path), jobs)
                except Exception as exc:
                    # a crash is a finding too, reported as a wrong report is
                    crash = f"{type(exc).__name__}: {exc}"
            if crash or dataclasses.replace(got, chunk_size=DEFAULT_CHUNK_SIZE) != oracle_report(lo, hi, cap):
                resume = "" if cut is None else f", stopped at {cut} and resumed"
                print(
                    f"verify_range({lo}, {hi}, step_cap={cap}, chunk_size={chunk}, jobs={jobs})"
                    " with _TAIL = {} and _LANES = {}".format(*setting) + resume
                )
                if crash:
                    print(crash)
                return 1
            windows, values, resumed = windows + 1, values + hi - lo, resumed + (cut is not None)
            wide += (got.max_excursion or 0) > 2**63 - 1
    print(
        f"seed {args.seed}: {windows} windows ({resumed} resumed, {wide} peaking past 2^63 - 1),"
        f" {values} values, all match the oracle"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
