"""Text renderings of traces and merge derivations.

Five formats. "table" pairs each odd value with its tripled successor,
one row per reduced step. "scratch" lays the full orbit out one line per
iterate with a margin glyph per move: "·" marks the start, "→" a 3n+1
hop, "↓" a halving. "points" is bare "index,value" rows for plotting.
"derivation" writes one power-sum merge per line, from an odd value to
the next. A derivation record is only that odd value v and its shift,
and the exponent sets are printed straight from bits: before is the one
digits of v, raw is e+1 and e for each of those digits e and then 0, and
after is the one digits of 3v + 1. A set is read a byte at a time: each
call builds byte rows as wide as its largest 3v + 1, one per byte
position, mapping each of the 256 byte values to the text of its one
digits there, and joins one row entry per byte of v or 3v + 1; the rows
are dropped when the call returns. "machine" is the scripting contract
for traces and derivations: comma-separated fields
index,decimal,binary,kind,annotations with stable order; annotations is
the final field and is the only one that may itself contain commas, so
parsers split each line at most four times.

Every renderer returns a text blob ending in a newline; callers route it
to stdout or a file. Output is UTF-8 with LF line endings.
"""

from __future__ import annotations

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


def _nibbles(a: str, b: str, c: str, d: str) -> list[str]:
    # the 16 joins of four pieces, high exponent first, indexed by the nibble picking them
    high, low = ["", b, a, a + b], ["", d, c, c + d]
    return [h + lo for h in high for lo in low]


def _byte_rows(pieces: list[str]) -> list[list[str]]:
    # pieces of exponents 8w - 1 down to 0, 8 per byte of a w-byte big-endian
    # value: per byte, top byte first, the 256 joins of its pieces indexed by
    # the byte value, built from the 16 joins of each half
    rows = []
    for i in range(0, len(pieces), 8):
        high, low = _nibbles(*pieces[i : i + 4]), _nibbles(*pieces[i + 4 : i + 8])
        rows.append([h + lo for h in high for lo in low])
    return rows


def _bytes(x: int) -> bytes:
    return x.to_bytes((x.bit_length() + 7) // 8, "big")


def _exponent_sets(records: list[DerivationRecord], sep: str) -> Iterator[tuple[str, str, str]]:
    # each record's before, raw and after sets, sep-joined: one piece per
    # byte of v or 3v + 1, read off byte rows as wide as the largest 3v + 1
    # and built for this call; the pieces are sep-led, so a set drops its
    # first character. raw needs no sort, as the one digit below e is at most e - 1
    width = len(_bytes(3 * max(rec.value for rec in records) + 1))
    order = range(8 * width - 1, -1, -1)
    exponents = _byte_rows([f"{sep}{e}" for e in order])
    pairs = _byte_rows([f"{sep}{e + 1}{sep}{e}" for e in order])
    get = list.__getitem__
    for rec in records:
        v, t = _bytes(rec.value), _bytes(3 * rec.value + 1)
        yield (
            "".join(map(get, exponents[width - len(v) :], v))[1:],
            "".join(map(get, pairs[width - len(v) :], v))[1:] + sep + "0",
            "".join(map(get, exponents[width - len(t) :], t))[1:],
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
