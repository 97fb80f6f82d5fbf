"""Oracle campaign: verify_range against a plain-integer walk of every value.

    python tools/fuzz.py --seconds S --seed N

Draws windows of 1 to 4,096 values at bases 10^9, 2^40, 2^50, 2^58, 2^62,
2^63, 2^64 and 2^100 (each moved by up to 2^11) and in
[2^117 - 2^12, 2^117 + 2^12), so that both tiers of the kernel run (int64
nodes, nodes past their int64 gate and two-limb nodes) and so do the
plain-integer walks to the end, of a block's last few nodes and of every
pass with a node past 2^117.
Three windows in four take a cap from the window's own stopping times,
clipped so that some starts converge and some truncate; the rest take the
default cap. Each window runs at chunk size 1, 8 or a random one, on one or
two jobs. One in four of the windows with a chunk boundary strictly inside
also stops at one, cut: the finished state of [lo, cut), with hi set back,
is saved with checkpoint_save, loaded with checkpoint_load and run on to
hi. Either way the report must equal oracle_report's from
tests/test_verify.py. The first window that differs is printed as one
verify_range(...) call, with the cut it resumed at, and the script exits 1.
It stops after the first window that ends past S seconds. The summary also
counts the windows whose maximum excursion is past 2^63 - 1: in each, the
kernel walked a block's top starts again for their exact peaks.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

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
from test_verify import oracle_report, orbit_oracle  # noqa: E402

BASES = (10**9, 1 << 40, 1 << 50, 1 << 58, 1 << 62, 1 << 63, 1 << 64, 1 << 100)


def draw(rng: random.Random) -> tuple[int, int, int, int, int, Optional[int]]:
    """One window: (lo, hi, cap, chunk, jobs, cut), cut None for a straight run."""
    size = rng.randint(1, 1 << rng.randint(0, 12))
    if rng.randrange(len(BASES) + 1) < len(BASES):
        lo = rng.choice(BASES) + rng.randint(-(1 << 11), 1 << 11)
    else:
        lo = rng.randint((1 << 117) - (1 << 12), (1 << 117) + (1 << 12) - size)
    hi = lo + size
    cap = DEFAULT_STEP_CAP
    sigmas = sorted(orbit_oracle(n)[0] for n in range(lo, hi))
    if rng.random() < 0.75 and sigmas[0] < sigmas[-1]:
        # min, median or max, or one off it, inside [min, max - 1]
        cap = rng.choice((sigmas[0], sigmas[size // 2], sigmas[-1])) + rng.randint(-1, 1)
        cap = min(max(cap, sigmas[0]), sigmas[-1] - 1)
    chunk = rng.choice((1, 8, rng.randint(1, size + 100)))
    cuts = range(lo + chunk, hi, chunk)  # the chunk boundaries strictly inside
    cut = rng.choice(cuts) if cuts and rng.random() < 0.25 else None
    return lo, hi, cap, chunk, rng.choice((1, 2)), cut


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
            lo, hi, cap, chunk, jobs, cut = draw(rng)
            if cut is None:
                got = verify_range(lo, hi, step_cap=cap, chunk_size=chunk, jobs=jobs)
            else:
                part = verify_range(lo, cut, step_cap=cap, chunk_size=chunk, jobs=jobs)
                checkpoint_save(dataclasses.replace(part, hi=hi), path)
                got = run(checkpoint_load(path), jobs)
            if dataclasses.replace(got, chunk_size=DEFAULT_CHUNK_SIZE) != oracle_report(lo, hi, cap):
                resume = "" if cut is None else f", stopped at {cut} and resumed"
                print(f"verify_range({lo}, {hi}, step_cap={cap}, chunk_size={chunk}, jobs={jobs}){resume}")
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
