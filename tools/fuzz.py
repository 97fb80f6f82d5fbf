"""Oracle campaign: verify_range against a plain-integer walk of every value.

    python tools/fuzz.py --seconds S --seed N

Draws windows with tests/windows.py's draw from random.Random(N) and runs
each with its check, until the first window that ends past S seconds. The
first failure check reports is printed, and the script exits 1. The summary
counts the windows whose maximum excursion is past 2^63 - 1, where the
kernel walked a block's top starts again for their exact peaks.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from windows import check, draw, oracle_report  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    start = time.monotonic()
    windows = values = resumed = wide = 0
    while time.monotonic() - start < args.seconds:
        w = draw(rng)
        failure = check(w)
        if failure:
            print(failure)
            return 1
        windows, values, resumed = windows + 1, values + w.hi - w.lo, resumed + (w.cut is not None)
        wide += (oracle_report(w.lo, w.hi, w.cap).max_excursion or 0) > 2**63 - 1
    print(
        f"seed {args.seed}: {windows} windows ({resumed} resumed, {wide} peaking past 2^63 - 1),"
        f" {values} values, all match the oracle"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
