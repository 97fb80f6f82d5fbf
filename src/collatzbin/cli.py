"""Command-line interface.

Batch-oriented subcommands over the library, one line of argparse glue
per capability. Inputs are decimal by default; --binary switches to raw
bit strings. Exit codes: 0 on success (including truncated iterations,
which are reported in the output, not as failures), 1 on domain errors,
2 on usage errors, 130 on Ctrl-C. The default step cap for orbit walks
can be set with the COLLATZBIN_CAP environment variable; --cap
overrides it per call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from . import collatz, compose, traceio
from .bitnat import BinaryNat
from .classify import classify, hard_number
from .errors import CapExceeded, CheckpointError, DomainError, ParityError
from .powersum import derivation_trace

CAP_ENV_VAR = "COLLATZBIN_CAP"

__all__ = ["main", "CAP_ENV_VAR"]


def _default_jobs() -> int:
    # the CPUs this process may run on, where the platform can tell
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_value(text: str, binary: bool) -> BinaryNat:
    return BinaryNat(text) if binary else BinaryNat.from_decimal(text)


def _cap_of(args) -> int:
    # the orbit walks' step budget: --cap, else the environment, else the default
    source, cap = "--cap", args.cap
    if cap is None:
        source, raw = CAP_ENV_VAR, os.environ.get(CAP_ENV_VAR)
        if raw is None:
            return collatz.DEFAULT_CAP
        try:
            cap = int(raw)
        except ValueError:
            raise DomainError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise DomainError(f"{source} must be >= 1, got {cap}")
    return cap


def _cmd_trace(args) -> int:
    n = _parse_value(args.n, args.binary)
    cap = _cap_of(args)
    if args.format == "table":
        out = traceio.render_table(derivation_trace(n.shift_right(n.trailing_zeros()), cap))
    else:
        trace = collatz.sequence(n, cap)
        if args.format == "scratch":
            out = traceio.render_scratch(trace)
        elif args.format == "points":
            out = traceio.render_points(trace)
        else:
            out = traceio.render_machine(trace)
    sys.stdout.write(out)
    return 0


def _cmd_classify(args) -> int:
    n = _parse_value(args.n, args.binary)
    print(f"{classify(n).value} {n.bits}")
    return 0


def _cmd_path(args) -> int:
    n = _parse_value(args.n, args.binary)
    # n is the longest prefix: past the digit limit it fails before the rest
    last = n.to_decimal()
    walk = " ".join([v.to_decimal() for v in compose.tree_path(n)[:-1]] + [last])
    steps = str(compose.decompose(n))
    print(f"{walk} / {steps}" if steps else f"{walk} /")
    return 0


def _cmd_decompose(args) -> int:
    n = _parse_value(args.n, args.binary)
    records = derivation_trace(n, _cap_of(args))
    render = traceio.render_machine if args.format == "machine" else traceio.render_derivation
    sys.stdout.write(render(records))
    return 0


def _cmd_stopping_time(args) -> int:
    n = _parse_value(args.n, args.binary)
    print(collatz.stopping_time(n, _cap_of(args)))
    return 0


def _cmd_hard(args) -> int:
    k = args.k
    a = hard_number(k)
    t = a.mul3_add1()
    print(f"a_{k} = {a.to_decimal()} ({a.bits})")
    print(f"T(a_{k}) = {t.to_decimal()} ({t.bits})")
    # T(a_k) is 2^(2k), so 2k halvings end on 1
    verdict = "ok" if t.to_int() == 1 << 2 * k else "failed"
    print(f"T^{2 * k + 1}(a_{k}) = 1: {verdict}")
    return 0


def _cmd_verify(args) -> int:
    from . import verify  # loads numpy, under main's Ctrl-C handler

    lo = _parse_value(args.lo, args.binary)
    hi = _parse_value(args.hi, args.binary)
    # the report prints both bounds in decimal: refuse them before any work
    lo_text, hi_text = lo.to_decimal(), hi.to_decimal()
    lo, hi = lo.to_int(), hi.to_int()
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    if args.resume:
        state = verify.checkpoint_load(args.checkpoint)
        if (state.lo, state.hi) != (lo, hi):
            raise DomainError(
                f"checkpoint covers [{state.lo}, {state.hi}), not [{lo_text}, {hi_text})"
            )
        for flag, given, saved in (
            ("--cap", args.cap, state.step_cap),
            ("--chunk", args.chunk, state.chunk_size),
        ):
            if given is not None and given != saved:
                raise DomainError(f"{flag} {given} conflicts with the checkpoint ({saved})")
        state = verify.checkpoint_resume(args.checkpoint, jobs=jobs)
    else:
        state = verify.verify_range(
            lo,
            hi,
            step_cap=args.cap if args.cap is not None else verify.DEFAULT_STEP_CAP,
            chunk_size=args.chunk if args.chunk is not None else verify.DEFAULT_CHUNK_SIZE,
            jobs=jobs,
            checkpoint_path=args.checkpoint,
        )
    sys.stdout.write(verify.summarize(state))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main call and reused: parsing leaves the parser as
    # it was, and help and usage text read $COLUMNS when they are formatted
    parser = argparse.ArgumentParser(
        prog="collatzbin",
        description="Binary-string toolkit for the 3n+1 map: traces, digit classes, "
        "tree paths, power-sum derivations, and range verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def value_arg(p, name="n"):
        p.add_argument(name, help="input value, decimal unless --binary")
        p.add_argument("--binary", action="store_true", help="read the value as a raw bit string")

    def cap_arg(p):
        p.add_argument(
            "--cap",
            type=int,
            default=None,
            metavar="K",
            help=f"step budget (default ${CAP_ENV_VAR} or {collatz.DEFAULT_CAP})",
        )

    p = sub.add_parser("trace", help="walk the orbit of n and render it")
    value_arg(p)
    cap_arg(p)
    p.add_argument(
        "--format",
        choices=("table", "scratch", "points", "machine"),
        default="scratch",
        help="table = odd chain rows, scratch = annotated orbit, "
        "points = index,value rows, machine = lossless records",
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("classify", help="digit class of n")
    value_arg(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("path", help="tree walk from 1 to n and its step string")
    value_arg(p)
    p.set_defaults(fn=_cmd_path)

    p = sub.add_parser("decompose", help="power-sum derivation of the reduced orbit")
    value_arg(p)
    cap_arg(p)
    p.add_argument(
        "--format",
        choices=("text", "machine"),
        default="text",
        help="text = one merge line per reduced step, machine = lossless records",
    )
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("stopping-time", help="least m with T^m(n) = 1")
    value_arg(p)
    cap_arg(p)
    p.set_defaults(fn=_cmd_stopping_time)

    p = sub.add_parser("hard", help="k-th alternating number and its collapse")
    p.add_argument("k", type=int)
    p.set_defaults(fn=_cmd_hard)

    p = sub.add_parser("verify", help="check convergence for every n in [lo, hi)")
    p.add_argument("lo", help="inclusive lower bound")
    p.add_argument("hi", help="exclusive upper bound")
    p.add_argument("--binary", action="store_true", help="read bounds as raw bit strings")
    p.add_argument(
        "--cap",
        type=int,
        default=None,
        metavar="K",
        help=f"step budget per value (default {collatz.DEFAULT_STEP_CAP})",
    )
    p.add_argument(
        "--chunk",
        type=int,
        default=None,
        metavar="C",
        help=f"values per work chunk (default {collatz.DEFAULT_CHUNK_SIZE})",
    )
    p.add_argument("--checkpoint", metavar="FILE", help="save resumable state here")
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue from --checkpoint instead of starting over",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="J",
        help="worker processes (default: the CPUs this process may use)",
    )
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not args.checkpoint:
        parser.error("--resume requires --checkpoint")
    try:
        return args.fn(args)
    except CapExceeded:
        # truncation is a result, reported on stdout
        print("truncated")
        return 0
    except (DomainError, ParityError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
