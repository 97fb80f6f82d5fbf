"""Digit-pattern classes of binary naturals, and the hard numbers.

A number is pure even when its string is 1 followed by zeros (a power of
two), pure odd when the string is all ones (2^m - 1 for m >= 2), and mixed
otherwise, split by final digit. 1 is kept apart as the origin: it is the
tree root and belongs to neither pure family, which keeps the partition
exclusive.

Hard numbers are the alternating strings 1, 101, 10101, ...; the k-th is
(4^k - 1)/3. They are the slowest well-understood starters: one tripling
step turns (10)^(k-1)1 into 2^(2k), which then collapses by halving.
"""

from __future__ import annotations

from enum import Enum

from .bitnat import BinaryNat
from .errors import DomainError

__all__ = ["NumberClass", "classify", "is_hard", "hard_number"]


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
