"""Composition of the doubling maps O(x) = 2x + 1 and E(x) = 2x.

Every natural number is reachable from 1 by a unique sequence of O and E
applications, and that sequence is exactly the number's bit string read
after the leading 1: a '1' digit records an O step, a '0' digit an E step.
Equivalently the numbers form an infinite binary tree rooted at 1 where the
left child of n is 2n (append 0) and the right child is 2n + 1 (append 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .bitnat import ONE, BinaryNat
from .errors import DomainError

__all__ = [
    "Step",
    "CompositionPath",
    "apply",
    "decompose",
    "f_inverse",
    "tree_path",
]


class Step(Enum):
    """One generator application: O doubles and adds one, E doubles."""

    O = "O"
    E = "E"


@dataclass(frozen=True, slots=True)
class CompositionPath:
    """Steps leading from 1 to a number, innermost (first applied) first."""

    steps: tuple[Step, ...]

    @classmethod
    def from_string(cls, s: str) -> "CompositionPath":
        try:
            return cls(tuple(Step(c) for c in s))
        except ValueError:
            raise DomainError(f"path may only contain O and E, got {s!r}") from None

    def __str__(self) -> str:
        return "".join(step.value for step in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


def apply(path: CompositionPath) -> BinaryNat:
    """Fold the path over 1; the empty path yields 1 itself."""
    n = ONE
    for step in path.steps:
        n = n.append_bit(1 if step is Step.O else 0)
    return n


def decompose(n: BinaryNat) -> CompositionPath:
    """Read the step sequence off the digits after the leading 1."""
    return CompositionPath(tuple(Step.O if c == "1" else Step.E for c in n.bits[1:]))


def f_inverse(n: BinaryNat) -> BinaryNat:
    """Undo one generator step: (n-1)/2 for odd n, n/2 for even n.

    Both cases drop the final digit, so the result is strictly smaller.
    1 has no parent and is rejected.
    """
    if n.is_one():
        raise DomainError("1 has no predecessor")
    return BinaryNat._raw(n.bits[:-1])


def tree_path(n: BinaryNat) -> list[BinaryNat]:
    """All prefixes of n's bit string as values: the root-to-n walk.

    Every prefix of a canonical string starts with its leading 1, so none
    needs validating again.
    """
    bits = n.bits
    return [BinaryNat._raw(bits[: i + 1]) for i in range(len(bits))]

