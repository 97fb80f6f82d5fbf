"""A/B checks of collatzbin: a base tree against this one, in outputs and in time.

    python tools/ab.py --base REV [--outputs [--rows I,J,...]] [--time [--rounds N] [--json FILE]]

REV is a git revision, whose src/collatzbin is unpacked (git archive) into
a temporary directory, or a directory holding a collatzbin package, such as
this tree's src for an A/A run. Only the stdlib and numpy are used.

--outputs runs the rows of tests/windows.py's WINDOWS (or the rows at the
given indices) as CLI settings on both trees: each row's window and cap at
each of its chunk sizes, at --jobs 1 and 2 (a row's _TAIL is the kernel's,
and the CLI runs at its own). Each setting runs in a fresh process per
tree: verify straight, with --checkpoint, with --resume of the finished
file and, when a chunk boundary lies strictly inside the window, with
--resume of a checkpoint the tree's library saved at the middle one.
Without --rows the renderers' settings follow: decompose (text and
--format machine) and trace --format table, machine and points on seeded
odd inputs of 64, 500 and 1,000 bits and on the hard numbers a_1, a_32 and
a_250, each call in a fresh process per tree. Exit codes, stdout, stderr
and checkpoint bytes must be equal, temporary paths read as <tmp>; each
setting that differs is printed, and the script exits 1.

--time loads both trees side by side (importlib), each with its own
tables. Each probe first checks that both trees give equal Checkpoint
fields or print equal stdout, then runs a round on each tree in turn, the
first tree alternating from round to round; a round of a kernel or orbit
probe is its best of 3 calls. One line per probe gives each tree's median
and interquartile range over the rounds, the change of the median and the
rounds in which this tree was faster. --json writes the rounds as well.
Probes: _chunk_stats on six windows at the default cap (inside the base
table from 1, the int64 bands at 10^9, 2^40 and 2^50, the two-limb bands
past 2^62 and 2^63), a run of one-value chunks past 2^62; the CLI's
decompose text on 8 seeded odd inputs of 64 bits and 2 of 500 bits, its
--format machine on the 500-bit ones, and the one-record derivation of
the hard number a_250 (cli.main in process, stdout to a buffer, summed
over the inputs); and, each in a fresh process (numpy imported before the
clock starts), a cold import of collatzbin.verify and verify_range(1,
10^7) after it.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import json
import os
import random
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
    "chunk 2^16 at 1": (1, 1 << 16),
    "chunk 2^18 at 10^9+7": (10**9 + 7, 1 << 18),
    "chunk 2^18 at 2^40+777": ((1 << 40) + 777, 1 << 18),
    "chunk 2^17 at 2^50+123": ((1 << 50) + 123, 1 << 17),
    "chunk 4096 at 2^62+12345678901": ((1 << 62) + 12345678901, 4096),
    "chunk 4096 at 2^63+12345": ((1 << 63) + 12345, 4096),
}
ONES = "--chunk 1, 512 at 2^62+12345678901"


def odd_inputs(bits: int, count: int) -> list[int]:
    """count seeded odd values of the given bit length, the same on every run."""
    rng = random.Random(f"ab:{bits}")
    return [rng.getrandbits(bits - 1) | 1 << (bits - 1) | 1 for _ in range(count)]


def hard(k: int) -> int:
    """The k-th hard number (4^k - 1)/3, whose derivation is one record."""
    return (4**k - 1) // 3


# name: the CLI calls of an orbit probe, timed together
ORBITS = {
    "decompose, 8 at 64 bits": [("decompose", str(n)) for n in odd_inputs(64, 8)],
    "decompose, 2 at 500 bits": [("decompose", str(n)) for n in odd_inputs(500, 2)],
    "decompose machine, 2 at 500 bits": [("decompose", str(n), "--format", "machine") for n in odd_inputs(500, 2)],
    "decompose a_250": [("decompose", str(hard(250)))],
}
# the renderers' --outputs settings: each command and format on each input
RENDERS = [
    (command, str(n), *fmt)
    for n in (*(n for bits in (64, 500, 1000) for n in odd_inputs(bits, 2)), *map(hard, (1, 32, 250)))
    for command, fmt in (
        ("decompose", ()),
        ("decompose", ("--format", "machine")),
        ("trace", ("--format", "table")),
        ("trace", ("--format", "machine")),
        ("trace", ("--format", "points")),
    )
]
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
RUN = "verify [1, 10^7)"
# the child imports the verifier, times a whole run from 1, then prints its
# report for the equality check
RUN_CODE = (
    "import time, numpy\n"
    "import collatzbin.verify as v\n"
    "t = time.perf_counter()\n"
    "state = v.verify_range(1, 10**7)\n"
    "t = time.perf_counter() - t\n"
    "print(v.summarize(state), end='')\n"
    "print(t)\n"
)
# one CLI setting on one tree, every way --outputs runs it: argv is lo, hi,
# cap, chunk, jobs and a directory for the checkpoint; prints a JSON object
# of [exit code, stdout, stderr, checkpoint text or None] per way
SETTING_CODE = r"""
import contextlib, dataclasses, io, json, sys
from pathlib import Path
from collatzbin import verify
from collatzbin.cli import main

lo, hi, cap, chunk, jobs = map(int, sys.argv[1:6])
path = Path(sys.argv[6]) / "ck.txt"
flags = ["verify", str(lo), str(hi), "--cap", str(cap), "--chunk", str(chunk), "--jobs", str(jobs)]


def cli(*extra):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*flags, *extra])
    # latin-1 keeps every byte of the file
    return [code, out.getvalue(), err.getvalue(), path.read_bytes().decode("latin-1") if path.exists() else None]


got = {"straight": cli(), "checkpoint": cli("--checkpoint", str(path))}
got["resume of the finished file"] = cli("--checkpoint", str(path), "--resume")
cuts = range(lo + chunk, hi, chunk)
if cuts:
    part = verify.verify_range(lo, cuts[len(cuts) // 2], cap, chunk)
    verify.checkpoint_save(dataclasses.replace(part, hi=hi), path)
    got["resume at the middle boundary"] = cli("--checkpoint", str(path), "--resume")
print(json.dumps(got))
"""


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


def load(src: Path, name: str) -> tuple:
    """src's collatzbin.verify and collatzbin.cli, imported as name.verify and name.cli."""
    package = src / "collatzbin"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".verify"), importlib.import_module(name + ".cli")


def chunk_probe(verify, lo: int, size: int):
    """A kernel probe on verify: (its Checkpoint fields, ns per value of the best of 3 calls)."""
    return _best(lambda: dataclasses.astuple(verify._chunk_stats((lo, lo + size), verify.DEFAULT_STEP_CAP)), size, 1e9)


def ones_probe(verify):
    """One-value chunks past 2^62: (Checkpoint fields, us per value of the best of 3 runs)."""
    lo = (1 << 62) + 12345678901
    return _best(lambda: dataclasses.astuple(verify.verify_range(lo, lo + 512, chunk_size=1)), 512, 1e6)


def orbit_probe(cli, calls: list):
    """CLI calls on cli.main in process: (their exit codes and stdout, ms of the best of 3 runs of all)."""

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [cli.main(list(argv)) for argv in calls]
        return codes, out.getvalue()

    return _best(run, 1, 1e3)


def _best(call, count: int, scale: float, repeat: int = 3) -> tuple:
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t)
    return result, min(times) / count * scale


def fresh_probe(src: Path, code: str) -> tuple[str, float]:
    """code run in one fresh process on src's collatzbin: (what it prints before the time, ms)."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    report, _, seconds = proc.stdout.rstrip().rpartition("\n")
    return report, float(seconds) * 1e3


def cli_settings(indices=None) -> list[tuple]:
    """The WINDOWS rows (all, or those at indices) as CLI settings (lo, hi, cap, chunk, jobs),
    each once, in table order."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from windows import WINDOWS

    rows = WINDOWS if indices is None else [WINDOWS[i] for i in indices]
    found = {}
    for w in rows:
        for chunk, _ in w.runs:
            for jobs in (1, 2):
                found[w.lo, w.hi, w.cap, chunk, jobs] = None
    return list(found)


def run_setting(src: Path, setting: tuple) -> dict:
    """Every way --outputs runs one CLI setting, on src's collatzbin in a fresh process:
    a verify setting (lo, hi, cap, chunk, jobs) or an orbit command's argv."""
    if isinstance(setting[0], str):
        proc = subprocess.run(
            [sys.executable, "-m", "collatzbin", *setting], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        return {"cli": [proc.returncode, proc.stdout, proc.stderr]}
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-c", SETTING_CODE, *map(str, setting), tmp], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        if proc.returncode:
            return {"the setting's process": [proc.returncode, proc.stdout, proc.stderr.replace(tmp, "<tmp>")]}
        return json.loads(proc.stdout.replace(json.dumps(tmp)[1:-1], "<tmp>"))


def compare_outputs(srcs, settings) -> int:
    """Run each setting on both trees; print each that differs. 1 if any does, else 0."""
    # two processes at a time: each setting's two trees run side by side
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        results = [[pool.submit(run_setting, src, s) for src in srcs] for s in settings]
        differ = runs = 0
        for setting, sides in zip(settings, results):
            base, this = (side.result() for side in sides)
            ways = [way for way in dict.fromkeys([*base, *this]) if base.get(way) != this.get(way)]
            runs += len(this)
            if ways:
                differ += 1
                if isinstance(setting[0], str):
                    print(f"differs: {' '.join(setting)}")
                else:
                    lo, hi, cap, chunk, jobs = setting
                    print(f"differs: verify {lo} {hi} --cap {cap} --chunk {chunk} --jobs {jobs}: {', '.join(ways)}")
    print(f"{len(settings)} settings, {runs} CLI runs per tree: {differ} differ")
    return 1 if differ else 0


def summary(base: list, this: list) -> dict:
    q = [np.percentile(xs, (25, 50, 75)).tolist() for xs in (base, this)]
    return {
        "base": base, "this": this,
        "base_median": q[0][1], "base_iqr": q[0][2] - q[0][0],
        "this_median": q[1][1], "this_iqr": q[1][2] - q[1][0],
        "faster": sum(t < b for b, t in zip(base, this)),
    }


def compare_times(base: str, srcs, rounds: int, json_path) -> int:
    """Time the probes on both trees in one process; print one line per probe. 1 if a report differs."""
    trees = [load(src, name) for src, name in zip(srcs, ("cb_base", "cb_this"))]
    # name: (unit, probe of side 0 or 1)
    probes = {name: ("ns/value", lambda side, w=w: chunk_probe(trees[side][0], *w)) for name, w in CHUNKS.items()}
    probes[ONES] = "us/value", lambda side: ones_probe(trees[side][0])
    for name, calls in ORBITS.items():
        probes[name] = "ms", lambda side, calls=calls: orbit_probe(trees[side][1], calls)
    probes[IMPORT] = "ms", lambda side: fresh_probe(srcs[side], IMPORT_CODE)
    probes[RUN] = "ms", lambda side: fresh_probe(srcs[side], RUN_CODE)
    for name, (_, probe) in probes.items():
        got = [probe(side)[0] for side in (0, 1)]
        if got[0] != got[1]:
            print(f"error: {name}: the trees differ: {str(got[0])[:300]} != {str(got[1])[:300]}", file=sys.stderr)
            return 1
    times = {name: ([], []) for name in probes}
    for r in range(rounds):
        for name, (_, probe) in probes.items():
            for side in (0, 1) if r % 2 == 0 else (1, 0):
                times[name][side].append(probe(side)[1])
    results = {name: dict(unit=unit, **summary(*times[name])) for name, (unit, _) in probes.items()}
    for name, s in results.items():
        change = 100 * (s["this_median"] / s["base_median"] - 1)
        print(
            f"{name:36} base {s['base_median']:9.2f} (IQR {s['base_iqr']:.2f})"
            f"  this {s['this_median']:9.2f} (IQR {s['this_iqr']:.2f}) {s['unit']:8}"
            f" {change:+6.1f}%  faster in {s['faster']} of {rounds}"
        )
    if json_path:
        json_path.write_text(json.dumps({"base": base, "rounds": rounds, "probes": results}, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision, or a directory holding collatzbin")
    parser.add_argument("--outputs", action="store_true", help="compare CLI outputs over the WINDOWS rows")
    parser.add_argument(
        "--rows", help="comma-separated WINDOWS indices for --outputs (default: every row, then the renderers)"
    )
    parser.add_argument("--time", action="store_true", help="time the probes")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--json", type=Path, help="write every round here")
    args = parser.parse_args(argv)
    if not (args.outputs or args.time):
        parser.error("nothing to do: give --outputs, --time or both")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    indices = None if args.rows is None else [int(i) for i in args.rows.split(",")]
    with tempfile.TemporaryDirectory() as tmp:
        srcs = unpack(args.base, Path(tmp)), ROOT / "src"
        settings = cli_settings(indices) + (RENDERS if indices is None else [])
        code = compare_outputs(srcs, settings) if args.outputs else 0
        if args.time:
            code = compare_times(args.base, srcs, args.rounds, args.json) or code
    return code


if __name__ == "__main__":
    sys.exit(main())
