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

from .bitnat import BinaryNat
from .errors import DomainError

__all__ = ["NumberClass", "classify", "class_counts", "is_hard", "hard_number"]


class NumberClass(Enum):
    PURE_EVEN = "pure-even"
    PURE_ODD = "pure-odd"
    MIXED_EVEN = "mixed-even"
    MIXED_ODD = "mixed-odd"
    ORIGIN = "origin"


def classify(n: BinaryNat) -> NumberClass:
    bits = n.bits
    if bits == "1":
        return NumberClass.ORIGIN
    if "1" not in bits[1:]:
        return NumberClass.PURE_EVEN
    if "0" not in bits:
        return NumberClass.PURE_ODD
    return NumberClass.MIXED_ODD if bits[-1] == "1" else NumberClass.MIXED_EVEN


def class_counts(lo: int, hi: int) -> dict[NumberClass, int]:
    """How many n in [lo, hi) classify into each class, in closed form."""
    if not 1 <= lo <= hi:
        raise DomainError(f"need 1 <= lo <= hi, got [{lo}, {hi})")

    def below(x: int) -> tuple[int, ...]:
        # counts over [1, x) in NumberClass order; 2^(d-1) and 2^d - 1
        # are the pure values of level d >= 2
        pure_even = max((x - 1).bit_length() - 1, 0)
        pure_odd = max(x.bit_length() - 2, 0)
        origin = min(x - 1, 1)
        evens = (x - 1) // 2
        odds = x - 1 - evens
        return pure_even, pure_odd, evens - pure_even, odds - pure_odd - origin, origin

    return dict(zip(NumberClass, (b - a for a, b in zip(below(lo), below(hi)))))


def is_hard(n: BinaryNat) -> bool:
    """True for the alternating strings 1, 101, 10101, ...

    1 is the degenerate single-digit case of the closed form (k=1).
    """
    bits = n.bits
    return bits == "10" * (len(bits) // 2) + "1"


def hard_number(k: int) -> BinaryNat:
    """The k-th hard number (4^k - 1)/3, as the string (10)^(k-1) 1."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    return BinaryNat("10" * (k - 1) + "1")
