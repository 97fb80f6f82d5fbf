"""Numbers as sums of distinct powers of two, and the 3n+1 merge.

Writing odd n = 2^r + 2^m + ... + 2^0, the identity 3n+1 = 2n + (n+1)
doubles every term, repeats the original ones, and appends 2^0; duplicate
exponents then collapse pairwise through 2^k + 2^k = 2^(k+1) until the
exponents are distinct again. Dividing by 2^h subtracts h everywhere.
Chaining merge and shift replays the reduced map entirely in exponent
lists, which is the form the worked derivations are written in.

Binary representation is unique, so carrying to completion leaves exactly
the one digits of the multiset's value, and the raw multiset of odd v is
worth 3v + 1 by construction. A derivation therefore carries v as a plain
int beside its power sum and reads each carried result off the bits of
3v + 1; the next odd value is (3v + 1) >> h.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import gt
from typing import Iterable, NamedTuple

from .bitnat import BinaryNat
from .classify import hard_number
from .collatz import DEFAULT_CAP
from .errors import CapExceeded, DomainError, ParityError

__all__ = [
    "PowerSum",
    "ExponentMultiset",
    "DerivationRecord",
    "to_powersum",
    "from_powersum",
    "shift_powers",
    "hard_closed_form",
    "derivation_trace",
]


@dataclass(frozen=True, slots=True)
class PowerSum:
    """Strictly decreasing exponent tuple; the value is sum of 2**e."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = self.exponents
        if not exps:
            raise DomainError("a power sum needs at least one term")
        # one C-level pass; a strictly decreasing tuple ends on its minimum
        decreasing = all(map(gt, exps, exps[1:]))
        if (exps[-1] if decreasing else min(exps)) < 0:
            raise DomainError(f"negative exponent in {exps}")
        if not decreasing:
            raise DomainError(f"exponents must strictly decrease, got {exps}")

    @property
    def min_exponent(self) -> int:
        return self.exponents[-1]

    def __str__(self) -> str:
        return "{%s}" % ",".join(map(str, self.exponents))


@dataclass(frozen=True, slots=True)
class ExponentMultiset:
    """Exponents with multiplicity, kept in descending order for display."""

    exponents: tuple[int, ...]

    def __init__(self, exponents: Iterable[int]):
        exps = tuple(sorted(exponents, reverse=True))
        if exps and exps[-1] < 0:
            raise DomainError(f"negative exponent in {exps}")
        object.__setattr__(self, "exponents", exps)

    __str__ = PowerSum.__str__


class DerivationRecord(NamedTuple):
    before: PowerSum
    raw: ExponentMultiset
    after: PowerSum
    shift: int


# maps the ASCII digits "0"/"1" to the bytes 0/1, falsy and truthy for compress
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def to_powersum(n: BinaryNat) -> PowerSum:
    """The one digits of n, highest position first."""
    bits = n.bits
    return PowerSum(tuple(compress(range(len(bits) - 1, -1, -1), bits.encode().translate(_DIGIT_FLAGS))))


def from_powersum(p: PowerSum | ExponentMultiset) -> BinaryNat:
    """The value sum of 2**e, repeated exponents included."""
    return BinaryNat.from_int(sum(1 << e for e in p.exponents))


def _tripled(p: PowerSum) -> ExponentMultiset:
    # 2n + n + 1, before any carrying
    return ExponentMultiset([e + 1 for e in p.exponents] + list(p.exponents) + [0])


def shift_powers(p: PowerSum, h: int) -> PowerSum:
    """Divide by 2^h by subtracting h from every exponent."""
    if h == 0:
        return p
    if h < 0 or h > p.min_exponent:
        raise ParityError(f"cannot shift {p} by {h}: min exponent is {p.min_exponent}")
    return PowerSum(tuple([e - h for e in p.exponents]))


def hard_closed_form(k: int) -> tuple[BinaryNat, BinaryNat]:
    """a_k = (4^k - 1)/3 together with T(a_k), which must equal 2^(2k)."""
    a = hard_number(k)
    t = a.mul3_add1()
    if t.bits != "1" + "0" * (2 * k):
        raise RuntimeError(f"closed form broken at k={k}: T(a_k) = {t.bits}")
    return a, t


def derivation_trace(n: BinaryNat, cap: int = DEFAULT_CAP) -> list[DerivationRecord]:
    """Replay the merge/shift derivation from odd n down to {0}.

    One record per reduced step: the power sum before, the raw tripled
    multiset, the carried result, and the shift that lands on the next
    odd value. Always produces at least one record, so 1 yields its
    cycle record {0} -> {2} -> shift 2 -> {0}.
    """
    if not n.is_odd():
        raise ParityError(f"derivation starts from an odd value, got {n.bits}")
    current = to_powersum(n)
    v = n.to_int()  # the value of current, carried alongside it
    records: list[DerivationRecord] = []
    for _ in range(cap):
        # the raw multiset sums to 3v + 1; its carried form is that value's one digits
        t = 3 * v + 1
        after = to_powersum(BinaryNat.from_int(t))
        h = after.min_exponent
        records.append(DerivationRecord(current, _tripled(current), after, h))
        current = shift_powers(after, h)
        v = t >> h
        if v == 1:
            return records
    raise CapExceeded(f"derivation from 0b{n.bits} still open after {cap} steps")
