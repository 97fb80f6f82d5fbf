"""Digit-pattern classes of binary naturals, and the hard numbers.

A number is pure even when its string is 1 followed by zeros (a power of
two), pure odd when the string is all ones (2^m - 1 for m >= 2), and mixed
otherwise, split by final digit. 1 is kept apart as the origin: it is the
tree root and belongs to neither pure family, which keeps the partition
exclusive. Each tree level d >= 2 (the d-digit strings) holds exactly one
pure-even and one pure-odd value, so the class counts of a range follow
from its bounds alone (class_counts).

Hard numbers are the alternating strings 1, 101, 10101, ...; the k-th is
(4^k - 1)/3. They are the slowest well-understood starters: one tripling
step turns (10)^(k-1)1 into 2^(2k), which then collapses by halving.
"""

from __future__ import annotations

from enum import Enum

from .bitnat import BinaryNat, natural, shown
from .errors import DomainError

__all__ = ["NumberClass", "classify", "class_counts", "hard_number"]


class NumberClass(Enum):
    # declared in report order: the order of every histogram and classes: line
    ORIGIN = "origin"
    PURE_EVEN = "pure-even"
    PURE_ODD = "pure-odd"
    MIXED_EVEN = "mixed-even"
    MIXED_ODD = "mixed-odd"


def classify(n: BinaryNat) -> NumberClass:
    # pure even is a power of two, pure odd is 2^m - 1
    v = n.to_int()
    if v == 1:
        return NumberClass.ORIGIN
    if v & (v - 1) == 0:
        return NumberClass.PURE_EVEN
    if v & (v + 1) == 0:
        return NumberClass.PURE_ODD
    return NumberClass.MIXED_ODD if v & 1 else NumberClass.MIXED_EVEN


def class_counts(lo: int, hi: int) -> dict[NumberClass, int]:
    """How many n in [lo, hi) classify into each class, in closed form."""
    if not 1 <= lo <= hi:
        raise DomainError(f"need 1 <= lo <= hi, got [{shown(lo)}, {shown(hi)})")

    def below(x: int) -> tuple[int, ...]:
        # counts over [1, x) in NumberClass order; 2^(d-1) and 2^d - 1
        # are the pure values of level d >= 2
        pure_even = max((x - 1).bit_length() - 1, 0)
        pure_odd = max(x.bit_length() - 2, 0)
        origin = min(x - 1, 1)
        evens = (x - 1) // 2
        odds = x - 1 - evens
        return origin, pure_even, pure_odd, evens - pure_even, odds - pure_odd - origin

    return dict(zip(NumberClass, (b - a for a, b in zip(below(lo), below(hi)))))


def hard_number(k: int) -> BinaryNat:
    """The k-th hard number (4^k - 1)/3, as the string (10)^(k-1) 1."""
    natural("k", k)
    try:
        # past memory the repeat fails before it allocates: MemoryError, or
        # OverflowError past the longest string the platform indexes
        bits = "10" * (k - 1) + "1"
    except (MemoryError, OverflowError):
        digits, k = shown(2 * k - 1), shown(k)
        raise DomainError(f"the {digits}-digit hard number a_{k} does not fit in memory") from None
    return BinaryNat(bits)
