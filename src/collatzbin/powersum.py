"""The 3n+1 merge on sums of distinct powers of two.

Writing odd n = 2^r + 2^m + ... + 2^0, the identity 3n+1 = 2n + (n+1)
doubles every term, repeats the original ones, and appends 2^0; duplicate
exponents then collapse pairwise through 2^k + 2^k = 2^(k+1) until the
exponents are distinct again. Dividing by 2^h subtracts h everywhere.
Chaining merge and shift replays the reduced map entirely in exponent
lists, which is the form the worked derivations are written in.

Every one of those lists is read off two ints. A derivation record holds
the odd value v a merge starts from and the shift h that follows it: the
power sum before the merge is the one digits of v, the raw multiset is
e+1 and e for each of them plus a last 0 (worth 3v + 1 by construction),
and, binary representation being unique, carrying it to completion leaves
exactly the one digits of 3v + 1. h is the lowest of those, and the next
record starts from (3v + 1) >> h. The renderers in traceio print the
lists from these bits.
"""

from __future__ import annotations

from typing import NamedTuple

from .bitnat import BinaryNat
from .collatz import DEFAULT_CAP
from .errors import CapExceeded, ParityError

__all__ = ["DerivationRecord", "derivation_trace"]


class DerivationRecord(NamedTuple):
    value: int  # the odd value the merge starts from
    shift: int  # the halvings from 3 * value + 1 down to the next odd value


def derivation_trace(n: BinaryNat, cap: int = DEFAULT_CAP) -> list[DerivationRecord]:
    """Replay the merge/shift derivation from odd n down to 1.

    This is the package's walk of the reduced, odd-to-odd map: one record
    per reduced step, ending with the one that lands on 1, and cap bounds
    the number of records. The table and the derivation renderers read it.
    Always produces at least one record, so 1 yields its cycle record
    (1, 2): {0} -> {1,0,0} -> {2} -> shift 2 -> {0}.
    """
    if not n.is_odd():
        raise ParityError(f"derivation starts from an odd value, got {n.bits}")
    v = n.to_int()
    records: list[DerivationRecord] = []
    for _ in range(cap):
        t = 3 * v + 1
        h = (t & -t).bit_length() - 1
        records.append(DerivationRecord(v, h))
        v = t >> h
        if v == 1:
            return records
    raise CapExceeded(f"derivation from 0b{n.bits} still open after {cap} steps")
