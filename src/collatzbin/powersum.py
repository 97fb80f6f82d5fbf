"""Numbers as sums of distinct powers of two, and the 3n+1 merge.

Writing odd n = 2^r + 2^m + ... + 2^0, the identity 3n+1 = 2n + (n+1)
doubles every term, repeats the original ones, and appends 2^0; duplicate
exponents then collapse pairwise through 2^k + 2^k = 2^(k+1) until the
exponents are distinct again. Dividing by 2^h subtracts h everywhere.
Chaining merge and shift replays the reduced map entirely in exponent
lists, which is the form the worked derivations are written in.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "normalize",
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
        if min(exps) < 0:
            raise DomainError(f"negative exponent in {exps}")
        if sorted(set(exps), reverse=True) != list(exps):
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


def to_powersum(n: BinaryNat) -> PowerSum:
    """The one digits of n, highest position first."""
    bits = n.bits
    top = len(bits) - 1
    return PowerSum(tuple([top - i for i, c in enumerate(bits) if c == "1"]))


def from_powersum(p: PowerSum | ExponentMultiset) -> BinaryNat:
    """The value sum of 2**e, repeated exponents included."""
    return BinaryNat.from_int(sum(1 << e for e in p.exponents))


def normalize(m: ExponentMultiset) -> PowerSum:
    """Collapse duplicates bottom-up: two terms at e become one at e+1.

    Multiplicity beyond two is handled the same way a binary adder would:
    of mu copies at e, mu mod 2 stay and floor(mu/2) carry to e+1.
    Binary representation is unique, so carrying to completion leaves
    exactly the one digits of the multiset's value, which is how the
    result is read off.
    """
    if not m.exponents:
        raise DomainError("cannot normalize an empty multiset")
    return to_powersum(from_powersum(m))


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
    records: list[DerivationRecord] = []
    for _ in range(cap):
        raw = _tripled(current)
        after = normalize(raw)
        h = after.min_exponent
        records.append(DerivationRecord(current, raw, after, h))
        current = shift_powers(after, h)
        if current.exponents == (0,):
            return records
    raise CapExceeded(f"derivation from 0b{n.bits} still open after {cap} steps")
