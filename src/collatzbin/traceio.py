"""Text renderings of traces and merge derivations.

Five formats. "table" pairs each odd value with its tripled successor,
one row per reduced step. "scratch" lays the full orbit out one line per
iterate with a margin glyph per move: "·" marks the start, "→" a 3n+1
hop, "↓" a halving. "points" is bare "index,value" rows for plotting.
"derivation" writes one power-sum merge per line, from an odd value to
the next. A derivation record is only that odd value v and its shift,
and the exponent sets are printed straight from bits: before is the one
digits of v, raw is e+1 and e for each of those digits e and then 0, and
after is the one digits of 3v + 1. "machine" is the scripting contract
for traces and derivations: comma-separated fields
index,decimal,binary,kind,annotations with stable order; annotations is
the final field and is the only one that may itself contain commas, so
parsers split each line at most four times.

Every renderer returns a text blob ending in a newline; callers route it
to stdout or a file. Output is UTF-8 with LF line endings.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterator

from .bitnat import int_to_decimal
from .collatz import CollatzTrace
from .errors import DomainError
from .powersum import DerivationRecord

__all__ = [
    "render_table",
    "render_scratch",
    "render_points",
    "render_derivation",
    "render_machine",
]


def render_table(records: list[DerivationRecord]) -> str:
    """One row per derivation record v: "v=(bits)₂ → (bits of 3v+1)₂".

    The 1 a derivation lands on gets no row of its own (its successor
    starts the trivial cycle), except that the derivation of 1, [(1, 2)],
    renders as the single terminal row "1=(1)₂". Every decimal is
    converted before the text is returned.
    """
    if not records:
        raise DomainError("cannot render an empty derivation")
    if records[0].value == 1:
        return "1=(1)₂\n"
    return "".join(f"{int_to_decimal(v)}=({v:b})₂ → ({3 * v + 1:b})₂\n" for v, _ in records)


def _kinds(trace: CollatzTrace) -> list[str]:
    # the move that made each value: none for the start, else the parity before it
    return ["", *("odd-step" if v & 1 else "even-step" for v in trace.values[:-1])]


_GLYPHS = {"": "·", "odd-step": "→", "even-step": "↓"}


def render_scratch(trace: CollatzTrace) -> str:
    """One line per iterate with a margin glyph for the move that made it."""
    lines = [
        f"{_GLYPHS[kind]} {int_to_decimal(v)} = ({v:b})₂" for v, kind in zip(trace.values, _kinds(trace))
    ]
    if trace.stopping_time is None:
        lines.append("... truncated")
    return "\n".join(lines) + "\n"


def render_points(trace: CollatzTrace) -> str:
    """Bare "index,value" rows from index 0, for external plotting."""
    return "\n".join(f"{i},{int_to_decimal(v)}" for i, v in enumerate(trace.values)) + "\n"


# maps the ASCII digits "0"/"1" to the bytes 0/1, falsy and truthy for compress
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _exponent_sets(records: list[DerivationRecord], sep: str) -> Iterator[tuple[str, str, str]]:
    # each record's before, raw and after sets, sep-joined and picked off
    # the bits from tables indexed top exponent first; raw needs no sort,
    # as the one digit below e is at most e - 1
    top = (3 * max(rec.value for rec in records) + 1).bit_length() - 1
    exponents = [str(e) for e in range(top, -1, -1)]
    pairs = [f"{e + 1}{sep}{e}" for e in range(top, -1, -1)]
    for rec in records:
        v = format(rec.value, "b").encode().translate(_DIGIT_FLAGS)
        t = format(3 * rec.value + 1, "b").encode().translate(_DIGIT_FLAGS)
        yield (
            sep.join(compress(exponents[top + 1 - len(v) :], v)),
            sep.join(compress(pairs[top + 1 - len(v) :], v)) + sep + "0",
            sep.join(compress(exponents[top + 1 - len(t) :], t)),
        )


def render_derivation(records: list[DerivationRecord]) -> str:
    """One line per merge: "n = {before} -> {raw} -> {after} -> shift h -> next".

    Reads derivation_trace records: a line's next value is the following
    line's n, and the last line's is (3n + 1) >> h, the 1 a full
    derivation lands on. Every decimal is converted before the first line
    is written.
    """
    if not records:
        raise DomainError("cannot render an empty derivation")
    last = records[-1]
    values = [int_to_decimal(rec.value) for rec in records]
    values.append(int_to_decimal((3 * last.value + 1) >> last.shift))
    return "".join(
        f"{value} = {{{before}}} -> {{{raw}}} -> {{{after}}} -> shift {rec.shift} -> {nxt}\n"
        for rec, value, nxt, (before, raw, after) in zip(
            records, values, values[1:], _exponent_sets(records, ",")
        )
    )


def render_machine(obj: CollatzTrace | list[DerivationRecord]) -> str:
    """Lossless line records for a trace or a derivation.

    Traces: kind is the move that produced the value, odd-step or
    even-step by the parity of the value before it (empty for the
    start); the final line is annotated "truncated" when the walk ran
    out of budget. Derivations: kind is "merge" and the annotations
    field carries the raw and carried exponent lists plus the shift.
    Anything else, such as a list of BinaryNat values, raises DomainError.
    """
    lines = []
    if isinstance(obj, CollatzTrace):
        last = len(obj.values) - 1
        for i, (v, kind) in enumerate(zip(obj.values, _kinds(obj))):
            ann = "truncated" if obj.stopping_time is None and i == last else ""
            lines.append(f"{i},{int_to_decimal(v)},{v:b},{kind},{ann}")
    elif obj and isinstance(obj[0], DerivationRecord):
        decimals = [int_to_decimal(rec.value) for rec in obj]
        # comma-free sum notation for the annotations field
        for i, (rec, decimal, (_, raw, after)) in enumerate(zip(obj, decimals, _exponent_sets(obj, "+"))):
            lines.append(f"{i},{decimal},{rec.value:b},merge,raw:{raw} after:{after} shift:{rec.shift}")
    else:
        raise DomainError(f"cannot render {type(obj).__name__} in machine format")
    return "\n".join(lines) + "\n"
