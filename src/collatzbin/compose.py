"""Composition of the doubling maps O(x) = 2x + 1 and E(x) = 2x.

Every natural number is reachable from 1 by a unique sequence of O and E
applications, and that sequence is exactly the number's bit string read
after the leading 1: a '1' digit records an O step, a '0' digit an E step.
Equivalently the numbers form an infinite binary tree rooted at 1 where the
left child of n is 2n (append 0) and the right child is 2n + 1 (append 1).
A path is therefore its O/E string, and a tree walk the plain-int values
of the prefixes of n's bit string.
"""

from __future__ import annotations

from .bitnat import BinaryNat

__all__ = ["decompose", "tree_path"]


def decompose(n: BinaryNat) -> str:
    """The O/E steps from 1 to n, first applied first: the digits after its leading 1."""
    return n.bits[1:].translate(str.maketrans("10", "OE"))


def tree_path(n: BinaryNat) -> list[int]:
    """All prefixes of n's bit string as values: the root-to-n walk.

    The prefix of i + 1 digits is n >> (bit_length - 1 - i).
    """
    v = n.to_int()
    return [v >> k for k in range(v.bit_length() - 1, -1, -1)]
