"""Text renderings of traces, chains, and merge derivations.

Five formats. "table" pairs each odd value with its tripled successor,
one row per reduced step. "scratch" lays the full orbit out one line per
iterate with a margin glyph per move: "·" marks the start, "→" a 3n+1
hop, "↓" a halving. "points" is bare "index,value" rows for plotting.
"derivation" writes one power-sum merge per line, from an odd value to
the next. "machine" is the scripting contract for traces and
derivations: comma-separated fields index,decimal,binary,kind,annotations
with stable order; annotations is the final field and is the only one
that may itself contain commas, so parsers split each line at most four
times.

Every renderer returns a text blob ending in a newline; callers route it
to stdout or a file. Output is UTF-8 with LF line endings.
"""

from __future__ import annotations

from typing import NamedTuple

from .bitnat import BinaryNat
from .collatz import CollatzTrace
from .errors import DomainError
from .powersum import DerivationRecord, from_powersum

__all__ = [
    "MachineRecord",
    "render_table",
    "render_scratch",
    "render_points",
    "render_derivation",
    "render_machine",
    "parse_machine",
]

class MachineRecord(NamedTuple):
    index: int
    decimal: str
    binary: str
    kind: str
    annotations: str


def render_table(chain: list[BinaryNat]) -> str:
    """One row per odd value n: "n=(bits)₂ → (bits of 3n+1)₂".

    The closing 1 gets no row of its own (its successor starts the
    trivial cycle), except that the bare chain [1] renders as the single
    terminal row "1=(1)₂".
    """
    if not chain:
        raise DomainError("cannot render an empty chain")
    rows = []
    for n in chain:
        if n.is_one() and len(chain) > 1:
            break
        left = f"{n.to_decimal()}=({n.bits})₂"
        if n.is_one():
            rows.append(left)
            continue
        rows.append(f"{left} → ({n.mul3_add1().bits})₂")
    return "\n".join(rows) + "\n"


def render_scratch(trace: CollatzTrace) -> str:
    """One line per iterate with a margin glyph for the move that made it."""
    lines = []
    for value, kind in trace.entries:
        glyph = "·" if kind is None else ("→" if kind.value == "odd-step" else "↓")
        lines.append(f"{glyph} {value.to_decimal()} = ({value.bits})₂")
    if trace.truncated:
        lines.append("... truncated")
    return "\n".join(lines) + "\n"


def render_points(trace: CollatzTrace) -> str:
    """Bare "index,value" rows from index 0, for external plotting."""
    return "\n".join(f"{i},{e.value.to_decimal()}" for i, e in enumerate(trace.entries)) + "\n"


def render_derivation(records: list[DerivationRecord]) -> str:
    """One line per merge: "n = {before} -> {raw} -> {after} -> shift h -> next".

    Reads derivation_trace records: a line's next value is the following
    line's n, converted once, and the last line lands on 1.
    """
    values = [from_powersum(rec.before).to_decimal() for rec in records] + ["1"]
    return "".join(
        f"{value} = {rec.before} -> {rec.raw} -> {rec.after} -> shift {rec.shift} -> {nxt}\n"
        for rec, value, nxt in zip(records, values, values[1:])
    )


def _exps(exponents: tuple[int, ...]) -> str:
    # comma-free sum notation for the machine annotations field
    return "+".join(str(e) for e in exponents)


def render_machine(obj: CollatzTrace | list[DerivationRecord]) -> str:
    """Lossless line records for a trace or a derivation.

    Traces: kind is the move that produced the entry (empty for the
    start); the final line is annotated "truncated" when the walk ran
    out of budget. Derivations: kind is "merge" and the annotations
    field carries the raw and carried exponent lists plus the shift.
    Anything else, an odd chain included, raises DomainError.
    """
    lines = []
    if isinstance(obj, CollatzTrace):
        last = len(obj.entries) - 1
        for i, (value, kind) in enumerate(obj.entries):
            ann = "truncated" if obj.truncated and i == last else ""
            lines.append(f"{i},{value.to_decimal()},{value.bits},{kind.value if kind else ''},{ann}")
    elif obj and isinstance(obj[0], DerivationRecord):
        for i, rec in enumerate(obj):
            value = from_powersum(rec.before)
            ann = f"raw:{_exps(rec.raw.exponents)} after:{_exps(rec.after.exponents)} shift:{rec.shift}"
            lines.append(f"{i},{value.to_decimal()},{value.bits},merge,{ann}")
    else:
        raise DomainError(f"cannot render {type(obj).__name__} in machine format")
    return "\n".join(lines) + "\n"


def parse_machine(text: str) -> list[MachineRecord]:
    """Invert render_machine; annotations keep any embedded commas."""
    records = []
    for line in text.splitlines():
        if not line:
            continue
        index, decimal, binary, kind, annotations = line.split(",", 4)
        records.append(MachineRecord(int(index), decimal, binary, kind, annotations))
    return records
