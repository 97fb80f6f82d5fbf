"""A/B timing of the verifier: a base tree against this one, in one process.

    python tools/ab.py --base REV --time [--rounds N] [--json FILE]

REV is a git revision, whose src/collatzbin is unpacked (git archive) into
a temporary directory, or a directory holding a collatzbin package, such as
this tree's src for an A/A run that measures each probe's noise floor. Both
trees load side by side (importlib), each with its own tables. Each probe
first checks that both trees give equal Checkpoint fields, then runs a
round on each tree in turn, the first tree alternating from round to round;
a round of a kernel probe is its best of 3 calls. One line per probe gives
each tree's median and interquartile range over the rounds, the change of
the median and the rounds in which this tree was faster. --json writes the
rounds as well. Only the stdlib and numpy are used.

Probes: _chunk_stats on five windows at the default cap (the int64 bands
at 10^9, 2^40 and 2^50, the two-limb bands past 2^62 and 2^63), a run of
one-value chunks past 2^62, and a cold import of collatzbin.verify in a
fresh process (numpy imported before the clock starts).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# name: (lo, values); every window runs at the default cap
CHUNKS = {
    "chunk 2^18 at 10^9+7": (10**9 + 7, 1 << 18),
    "chunk 2^18 at 2^40+777": ((1 << 40) + 777, 1 << 18),
    "chunk 2^17 at 2^50+123": ((1 << 50) + 123, 1 << 17),
    "chunk 4096 at 2^62+12345678901": ((1 << 62) + 12345678901, 4096),
    "chunk 4096 at 2^63+12345": ((1 << 63) + 12345, 4096),
}
ONES = "--chunk 1, 512 at 2^62+12345678901"
IMPORT = "import collatzbin.verify"
# the child times the import, then runs a small range for the equality check
IMPORT_CODE = (
    "import time, numpy\n"
    "t = time.perf_counter()\n"
    "import collatzbin.verify as v\n"
    "t = time.perf_counter() - t\n"
    "print(v.summarize(v.verify_range(1, 10**4)), end='')\n"
    "print(t)\n"
)


def unpack(base: str, tmp: Path) -> Path:
    """The directory holding base's collatzbin: base itself, or REV's src unpacked into tmp."""
    if (Path(base) / "collatzbin").is_dir():
        return Path(base).resolve()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=zip", base, "src/collatzbin"],
        capture_output=True, check=True,
    ).stdout
    zipfile.ZipFile(io.BytesIO(archive)).extractall(tmp)
    return tmp / "src"


def load(src: Path, name: str):
    """src's collatzbin.verify, imported as name.verify."""
    package = src / "collatzbin"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".verify")


def chunk_probe(verify, lo: int, size: int):
    """A kernel probe on verify: (its Checkpoint fields, ns per value of the best of 3 calls)."""
    return _best(lambda: verify._chunk_stats((lo, lo + size), verify.DEFAULT_STEP_CAP), size, 1e9)


def ones_probe(verify):
    """One-value chunks past 2^62: (Checkpoint fields, us per value of the best of 3 runs)."""
    lo = (1 << 62) + 12345678901
    return _best(lambda: verify.verify_range(lo, lo + 512, chunk_size=1), 512, 1e6)


def _best(call, count: int, scale: float, repeat: int = 3) -> tuple:
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t)
    return dataclasses.astuple(result), min(times) / count * scale


def import_probe(src: Path) -> tuple[str, float]:
    """One fresh process importing src's collatzbin.verify: (a small range's report, ms)."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    report, _, seconds = proc.stdout.rstrip().rpartition("\n")
    return report, float(seconds) * 1e3


def summary(base: list, this: list) -> dict:
    q = [np.percentile(xs, (25, 50, 75)).tolist() for xs in (base, this)]
    return {
        "base": base, "this": this,
        "base_median": q[0][1], "base_iqr": q[0][2] - q[0][0],
        "this_median": q[1][1], "this_iqr": q[1][2] - q[1][0],
        "faster": sum(t < b for b, t in zip(base, this)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision, or a directory holding collatzbin")
    parser.add_argument("--time", action="store_true", help="time the probes (the only mode so far)")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--json", type=Path, help="write every round here")
    args = parser.parse_args(argv)
    if not args.time:
        parser.error("nothing to do: give --time")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        srcs = unpack(args.base, Path(tmp)), ROOT / "src"
        trees = [load(src, name) for src, name in zip(srcs, ("cb_base", "cb_this"))]
        # name: (unit, probe of side 0 or 1)
        probes = {name: ("ns/value", lambda side, w=w: chunk_probe(trees[side], *w)) for name, w in CHUNKS.items()}
        probes[ONES] = "us/value", lambda side: ones_probe(trees[side])
        probes[IMPORT] = "ms", lambda side: import_probe(srcs[side])
        for name, (_, probe) in probes.items():
            got = [probe(side)[0] for side in (0, 1)]
            if got[0] != got[1]:
                print(f"error: {name}: the trees differ: {got[0]} != {got[1]}", file=sys.stderr)
                return 1
        rounds = {name: ([], []) for name in probes}
        for r in range(args.rounds):
            for name, (_, probe) in probes.items():
                for side in (0, 1) if r % 2 == 0 else (1, 0):
                    rounds[name][side].append(probe(side)[1])
    results = {name: dict(unit=unit, **summary(*rounds[name])) for name, (unit, _) in probes.items()}
    for name, s in results.items():
        change = 100 * (s["this_median"] / s["base_median"] - 1)
        print(
            f"{name:36} base {s['base_median']:9.2f} (IQR {s['base_iqr']:.2f})"
            f"  this {s['this_median']:9.2f} (IQR {s['this_iqr']:.2f}) {s['unit']:8}"
            f" {change:+6.1f}%  faster in {s['faster']} of {args.rounds}"
        )
    if args.json:
        args.json.write_text(json.dumps({"base": args.base, "rounds": args.rounds, "probes": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
