"""The 3n+1 map on binary strings, plus its odd-to-odd contraction.

T(n) is 3n+1 for odd n and n/2 for even n. The reduced map folds every
run of halvings into one move: tripling an odd number then stripping the
trailing zeros lands directly on the next odd iterate. Sequences carry an
explicit step cap because convergence to 1 is conjectural; hitting the cap
is reported, never looped through.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .bitnat import BinaryNat
from .errors import CapExceeded, ParityError

__all__ = [
    "DEFAULT_CAP",
    "DEFAULT_STEP_CAP",
    "DEFAULT_CHUNK_SIZE",
    "StepKind",
    "TraceEntry",
    "CollatzTrace",
    "ReducedStepResult",
    "EndSubstringTransition",
    "step",
    "reduced_step",
    "sequence",
    "stopping_time",
    "odd_chain",
    "end_substring_transition",
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


@dataclass(frozen=True, slots=True)
class CollatzTrace:
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


class ReducedStepResult(NamedTuple):
    odd_result: BinaryNat
    stripped_exponent: int
    t_steps_consumed: int


class EndSubstringTransition(NamedTuple):
    l_before: int
    trailing_zeros_after: int


def step(n: BinaryNat) -> tuple[BinaryNat, StepKind]:
    if n.is_odd():
        return n.mul3_add1(), StepKind.ODD
    return n.half(), StepKind.EVEN


def reduced_step(n: BinaryNat) -> ReducedStepResult:
    """Jump to the next odd iterate, counting the halvings folded in.

    Odd n: strip the trailing zeros of 3n+1 (exponent m, consuming m+1
    plain steps). Even n: just strip (consuming m steps). 1 is mapped
    through its full cycle 1 -> 4 -> 2 -> 1, so the result is (1, 2, 3).
    """
    if n.is_odd():
        tripled = n.mul3_add1()
        m = tripled.trailing_zeros()
        return ReducedStepResult(tripled.shift_right(m), m, m + 1)
    m = n.trailing_zeros()
    return ReducedStepResult(n.shift_right(m), m, m)


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


def odd_chain(n: BinaryNat, cap: int = DEFAULT_CAP) -> list[BinaryNat]:
    """Odd iterates from the odd part of n down to 1, inclusive.

    cap bounds the number of reduced steps taken.
    """
    m = n.trailing_zeros()
    value = n.shift_right(m) if m else n
    chain = [value]
    for _ in range(cap):
        if value.is_one():
            return chain
        value = reduced_step(value).odd_result
        chain.append(value)
    if value.is_one():
        return chain
    raise CapExceeded(f"odd chain from 0b{n.bits} still open after {cap} reduced steps")


def end_substring_transition(n: BinaryNat) -> EndSubstringTransition:
    """Pair an odd number's trailing-ones run with the zeros 3n+1 ends in."""
    if not n.is_odd():
        raise ParityError(f"expected an odd value, got {n.bits}")
    return EndSubstringTransition(n.end_substring_len(), n.mul3_add1().trailing_zeros())
