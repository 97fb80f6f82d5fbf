"""The 3n+1 map on binary naturals.

T(n) is 3n+1 for odd n and n/2 for even n. A walk takes a BinaryNat and
a trace is the tuple of the plain ints its orbit passes through; the move
that made a value is the parity of the value before it, so nothing else
is stored. Sequences carry an explicit step cap because convergence to 1
is conjectural; hitting the cap is reported, never looped through. The
odd-to-odd contraction, which folds every run of halvings into one move,
is powersum.derivation_trace: it walks plain ints, one record per odd
value and its shift.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .bitnat import BinaryNat
from .errors import CapExceeded

__all__ = [
    "DEFAULT_CAP",
    "DEFAULT_STEP_CAP",
    "DEFAULT_CHUNK_SIZE",
    "CollatzTrace",
    "step",
    "sequence",
    "stopping_time",
]

# conjecture is open: every iteration bounds its step count
DEFAULT_CAP = 2**20
# the range verifier's step cap per value and values per work chunk; verify
# re-exports them, and they live here so the CLI can show them without numpy
DEFAULT_STEP_CAP = 10**5
DEFAULT_CHUNK_SIZE = 1 << 16


class CollatzTrace(NamedTuple):
    """A prefix of the orbit of values[0], one plain int per iterate.

    values[i+1] applies one map step to values[i], so it came from an odd
    step exactly when values[i] is odd. stopping_time is the first index
    holding 1, or None if 1 never appears: the trace is truncated, the
    step budget ran out before it could witness convergence.
    """

    values: tuple[int, ...]
    stopping_time: Optional[int]


def step(n: BinaryNat) -> BinaryNat:
    """T(n): 3n + 1 for odd n, n / 2 for even n."""
    return n.mul3_add1() if n.is_odd() else n.half()


def sequence(n: BinaryNat, max_steps: int = DEFAULT_CAP) -> CollatzTrace:
    """Walk the orbit until 1 is appended or max_steps steps are taken.

    The start counts as value 0, not as a step, so a walk from 1 keeps
    going around the cycle until 1 comes back (three steps).
    """
    v = n.to_int()
    values = [v]
    for _ in range(max_steps):
        v = 3 * v + 1 if v & 1 else v >> 1
        values.append(v)
        if v == 1:
            break
    return CollatzTrace(tuple(values), values.index(1) if 1 in values else None)


def stopping_time(n: BinaryNat, cap: int = DEFAULT_CAP) -> int:
    """Least m with T^m(n) = 1; zero for 1 itself.

    Raises CapExceeded if 1 is not reached within cap steps.
    """
    if n.to_int() == 1:
        return 0
    value = n
    for i in range(1, cap + 1):
        value = step(value)
        if value.to_int() == 1:
            return i
    raise CapExceeded(f"no convergence within {cap} steps from 0b{n.bits}")
