"""Spans around the calls into each collatzbin module, from outside it.

The tracer replaces public module functions and ``BinaryNat`` methods with
timing wrappers while it is installed, and puts the originals back when it
is removed. Every module that imported a function by name gets the same
wrapper, so a call is seen whichever module makes it. Nothing inside the
package changes.

Three kinds of wrapper:

* span: one record per call (id, parent id, name, start, end, bytes and
  an extra count), for the coarse calls a CLI command is made of;
* leaf: calls and time summed per (parent span, name), for methods called
  millions of times (a span each would cost more memory than the work);
* count: calls only, for the map-step functions, so the walks they belong
  to keep their time as self time.

A span's self time is its duration minus its child spans and the leaf time
under it. Targets missing from the package (renamed or removed by a later
change) are skipped; their metrics read zero.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Optional


def _out_bytes(args, kwargs, result) -> tuple[int, int]:
    return len(result.encode("utf-8")), 0


def _summary_bytes(args, kwargs, result) -> tuple[int, int]:
    # extra: the truncated count the summary reports
    truncated = next(
        (int(line.split(": ")[1]) for line in result.splitlines() if line.startswith("truncated: ")), 0
    )
    return len(result.encode("utf-8")), truncated


def _file_bytes(args, kwargs, result) -> tuple[int, int]:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return (os.path.getsize(path) if path is not None and os.path.exists(path) else 0), 0


# (module, function, measure of the result) traced as spans
SPAN_TARGETS = (
    ("cli", "main", None),
    ("verify", "verify_range", None),
    ("verify", "checkpoint_save", _file_bytes),
    ("verify", "summarize", _summary_bytes),
    ("collatz", "stopping_time", None),
    ("collatz", "odd_chain", None),
    ("collatz", "sequence", None),
    ("collatz", "cycle_check", None),
    ("powersum", "derivation_trace", None),
    ("traceio", "render_table", _out_bytes),
    ("traceio", "render_points", _out_bytes),
    ("traceio", "render_machine", _out_bytes),
    ("compose", "tree_path", None),
    ("compose", "decompose", None),
    ("classify", "classify", None),
)
LEAF_FUNCTIONS = (
    ("powersum", "to_powersum"),
    ("powersum", "from_powersum"),
    ("powersum", "shift_powers"),
    ("classify", "hard_number"),
)
LEAF_METHODS = (
    "mul3_add1",
    "half",
    "shift_right",
    "trailing_zeros",
    "to_decimal",
    "to_int",
    "from_decimal",
    "from_int",
)
COUNT_TARGETS = (
    ("collatz", "step"),
    ("collatz", "reduced_step"),
    ("powersum", "normalize"),
)

_PACKAGE = "collatzbin"


class Tracer:
    """Spans, leaf totals and call counts, kept in memory.

    ``with tracer:`` installs the wrappers; leaving the block removes them.
    The records survive, so one tracer can collect over several blocks.
    """

    def __init__(self) -> None:
        # span: [id, parent id, name, start, end, bytes, extra]
        self.spans: list[list] = []
        self.leaves: defaultdict = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, s]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._in_leaf = False
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn: Callable, measure: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, 0, 0]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if measure is not None:
                rec[5], rec[6] = measure(args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, name: str, fn: Callable) -> Callable:
        leaves, stack = self.leaves, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = leaves[(stack[-1] if stack else -1, name)]
            cell[0] += 1
            if self._in_leaf:  # nested leaf: its time is already in the outer one
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += perf_counter() - t0
                self._in_leaf = False

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def _replace_everywhere(self, fn: object, wrapper: object) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == _PACKAGE or mod_name.startswith(_PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def __enter__(self) -> "Tracer":
        modules = {m: sys.modules.get(f"{_PACKAGE}.{m}") for m in
                   ("cli", "verify", "collatz", "powersum", "traceio", "compose", "classify", "bitnat")}

        def target(mod_name, attr):
            mod = modules.get(mod_name)
            return getattr(mod, attr, None) if mod is not None else None

        for mod_name, attr, measure in SPAN_TARGETS:
            fn = target(mod_name, attr)
            if callable(fn):
                self._replace_everywhere(fn, self._span(f"{mod_name}.{attr}", fn, measure))
        for mod_name, attr in LEAF_FUNCTIONS:
            fn = target(mod_name, attr)
            if callable(fn):
                self._replace_everywhere(fn, self._leaf(f"{mod_name}.{attr}", fn))
        for mod_name, attr in COUNT_TARGETS:
            fn = target(mod_name, attr)
            if callable(fn):
                self._replace_everywhere(fn, self._count(f"{mod_name}.{attr}", fn))
        cls = target("bitnat", "BinaryNat")
        for attr in LEAF_METHODS if cls is not None else ():
            raw = cls.__dict__.get(attr)
            name = f"bitnat.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._leaf(name, raw.__func__))
            elif callable(raw):
                wrapped = self._leaf(name, raw)
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading -----------------------------------------------------------

    def mark(self) -> int:
        """Position to pass as ``since`` to read only later spans."""
        return len(self.spans)

    def table(self, since: int = 0) -> dict[str, dict]:
        """Per name: calls, total and self seconds, bytes, extra count.

        Leaf names carry calls and seconds only; count names carry calls,
        and only when ``since`` is 0, because they are not kept per span.
        """
        spans = self.spans[since:]
        ids = {rec[0] for rec in spans}
        child = defaultdict(float)
        for rec in spans:
            if rec[1] in ids:
                child[rec[1]] += rec[4] - rec[3]
        leaf_rows: dict[str, dict] = {}
        for (parent, name), (calls, seconds) in self.leaves.items():
            if since and parent not in ids:
                continue
            child[parent] += seconds
            row = leaf_rows.setdefault(name, empty_row())
            row["calls"] += calls
            row["total_s"] += seconds
            row["self_s"] += seconds
        rows: dict[str, dict] = {}
        for sid, _parent, name, t0, t1, nbytes, extra in spans:
            row = rows.setdefault(name, empty_row())
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[sid]
            row["bytes"] += nbytes
            row["extra"] += extra
            row["durations"].append(t1 - t0)
        rows.update(leaf_rows)
        if not since:
            for name, calls in self.counts.items():
                rows.setdefault(name, empty_row())["calls"] += calls
        return rows


def empty_row() -> dict:
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0, "extra": 0, "durations": []}
