"""The 3n+1 map on binary strings.

T(n) is 3n+1 for odd n and n/2 for even n. Sequences carry an explicit
step cap because convergence to 1 is conjectural; hitting the cap is
reported, never looped through. The odd-to-odd contraction, which folds
every run of halvings into one move, is powersum.derivation_trace: it
walks plain ints, one record per odd value and its shift.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .bitnat import BinaryNat
from .errors import CapExceeded

__all__ = [
    "DEFAULT_CAP",
    "DEFAULT_STEP_CAP",
    "DEFAULT_CHUNK_SIZE",
    "StepKind",
    "TraceEntry",
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


class StepKind(Enum):
    """Which branch of the map produced a value."""

    ODD = "odd-step"
    EVEN = "even-step"


class TraceEntry(NamedTuple):
    value: BinaryNat
    kind: Optional[StepKind]  # None only for the starting entry


class CollatzTrace(NamedTuple):
    """A prefix of the orbit of start, one entry per iterate.

    entries[0] is start itself with kind None; entry i+1 applies one map
    step to entry i. stopping_time is the first index holding 1, or None
    if 1 never appears; truncated is true exactly when that happens, i.e.
    the step budget ran out before the trace could witness convergence.
    """

    start: BinaryNat
    entries: tuple[TraceEntry, ...]
    stopping_time: Optional[int]
    truncated: bool


def step(n: BinaryNat) -> tuple[BinaryNat, StepKind]:
    if n.is_odd():
        return n.mul3_add1(), StepKind.ODD
    return n.half(), StepKind.EVEN


def sequence(n: BinaryNat, max_steps: int = DEFAULT_CAP) -> CollatzTrace:
    """Walk the orbit until 1 is appended or max_steps steps are taken.

    The start counts as entry 0, not as a step, so a walk from 1 keeps
    going around the cycle until 1 comes back (three steps).
    """
    entries = [TraceEntry(n, None)]
    stop = 0 if n.is_one() else None
    value = n
    for i in range(1, max_steps + 1):
        value, kind = step(value)
        entries.append(TraceEntry(value, kind))
        if value.is_one():
            if stop is None:
                stop = i
            break
    return CollatzTrace(n, tuple(entries), stop, stop is None)


def stopping_time(n: BinaryNat, cap: int = DEFAULT_CAP) -> int:
    """Least m with T^m(n) = 1; zero for 1 itself.

    Raises CapExceeded if 1 is not reached within cap steps.
    """
    if n.is_one():
        return 0
    value = n
    for i in range(1, cap + 1):
        value, _ = step(value)
        if value.is_one():
            return i
    raise CapExceeded(f"no convergence within {cap} steps from 0b{n.bits}")
