"""Composition of the doubling maps O(x) = 2x + 1 and E(x) = 2x.

Every natural number is reachable from 1 by a unique sequence of O and E
applications, and that sequence is exactly the number's bit string read
after the leading 1: a '1' digit records an O step, a '0' digit an E step.
Equivalently the numbers form an infinite binary tree rooted at 1 where the
left child of n is 2n (append 0) and the right child is 2n + 1 (append 1).
"""

from __future__ import annotations

from enum import Enum

from .bitnat import BinaryNat

__all__ = ["Step", "CompositionPath", "decompose", "tree_path"]


class Step(Enum):
    """One generator application: O doubles and adds one, E doubles."""

    O = "O"
    E = "E"


class CompositionPath(tuple):
    """Steps leading from 1 to a number, innermost (first applied) first."""

    __slots__ = ()

    def __str__(self) -> str:
        return "".join(step.value for step in self)


def decompose(n: BinaryNat) -> CompositionPath:
    """Read the step sequence off the digits after the leading 1."""
    return CompositionPath(Step.O if c == "1" else Step.E for c in n.bits[1:])


def tree_path(n: BinaryNat) -> list[BinaryNat]:
    """All prefixes of n's bit string as values: the root-to-n walk.

    The prefix of i + 1 digits is n >> (bit_length - 1 - i); each starts
    with n's leading 1, so none needs validating again.
    """
    v = n.to_int()
    return [BinaryNat._raw(v >> k) for k in range(n.bit_length() - 1, -1, -1)]

