"""Natural numbers stored as explicit binary strings.

A :class:`BinaryNat` holds the base-2 digits of a natural number as a plain
``str`` of ``'0'``/``'1'`` characters, most significant bit first, with no
leading zeros.  The smallest representable value is 1; zero does not exist in
this domain, which removes an entire family of edge cases from the layers
built on top (halving, inverse maps, power decompositions).

Values stay bit strings between operations; the arithmetic on them goes
through CPython ints and strings.  Tripling reads the string as an int and
formats the result back, halving drops the final digit, dividing by a power
of two strips trailing zeros, and decimal input is converted piecewise so
that no single ``int()`` call sees more than 640 digits.
"""

from __future__ import annotations

import sys

from .errors import DomainError, ParityError

__all__ = ["BinaryNat"]


# CPython's lowest allowed int_max_str_digits: int() accepts this many
# decimal digits under every setting of the limit
_INT_DIGITS = 640


def _decimal_value(s: str) -> int:
    """Value of a decimal digit string, split in halves down to _INT_DIGITS.

    Divide-and-conquer radix conversion (Brent & Zimmermann, Modern
    Computer Arithmetic, 1.7): the high half times 10**k plus the low half.
    """
    if len(s) <= _INT_DIGITS:
        return int(s)
    k = len(s) // 2
    return _decimal_value(s[:-k]) * 10**k + _decimal_value(s[-k:])


def int_to_decimal(n: int) -> str:
    """str(n); DomainError past the interpreter's int/str digit limit."""
    try:
        return str(n)
    except ValueError:
        raise DomainError(
            f"{n.bit_length()}-bit value exceeds the {sys.get_int_max_str_digits()}-digit "
            "limit for int/str conversion (sys.set_int_max_str_digits)"
        ) from None


class BinaryNat:
    """An arbitrary-size natural number (>= 1) as an immutable bit string."""

    __slots__ = ("_bits",)

    def __init__(self, bits: str):
        if not bits or bits.strip("01"):
            raise DomainError(f"not a binary digit string: {bits!r}")
        if bits[0] != "1":
            raise DomainError(f"leading zeros are not canonical: {bits!r}")
        self._bits = bits

    @classmethod
    def _raw(cls, bits: str) -> "BinaryNat":
        # internal fast path: bits already canonical
        obj = object.__new__(cls)
        obj._bits = bits
        return obj

    @classmethod
    def from_decimal(cls, s: str) -> "BinaryNat":
        """Convert a decimal digit string of any length.

        Rejects empty strings, non-digits, and the value 0.
        """
        if not s or s.strip("0123456789"):
            raise DomainError(f"not a decimal digit string: {s!r}")
        if not s.strip("0"):
            raise DomainError("0 is not a representable value")
        return cls._raw(format(_decimal_value(s), "b"))

    @classmethod
    def from_int(cls, n: int) -> "BinaryNat":
        """Convenience constructor from a host integer >= 1."""
        if n < 1:
            raise DomainError(f"value must be >= 1, got {n}")
        return cls._raw(format(n, "b"))

    @property
    def bits(self) -> str:
        return self._bits

    def to_decimal(self) -> str:
        """Decimal digit string of this value.

        Raises DomainError past the interpreter's int/str digit limit.
        """
        return int_to_decimal(int(self._bits, 2))

    def to_int(self) -> int:
        """This value as a host integer."""
        return int(self._bits, 2)

    # -- arithmetic ------------------------------------------------------

    def mul3_add1(self) -> "BinaryNat":
        """Return 3n + 1; the result of an odd input is always even."""
        return BinaryNat._raw(format(int(self._bits, 2) * 3 + 1, "b"))

    def half(self) -> "BinaryNat":
        """Return n / 2 by dropping the final digit; the input must be even."""
        if self._bits[-1] != "0":
            raise ParityError(f"cannot halve odd value {self._bits}")
        return BinaryNat._raw(self._bits[:-1])

    def shift_right(self, k: int) -> "BinaryNat":
        """Return n / 2**k; requires at least k trailing zeros."""
        if k == 0:
            return self
        if k < 0 or self.trailing_zeros() < k:
            raise ParityError(f"{self._bits} is not divisible by 2^{k}")
        return BinaryNat._raw(self._bits[:-k])

    def trailing_zeros(self) -> int:
        """Number of trailing zero digits (the exponent of 2 dividing n)."""
        s = self._bits
        return len(s) - len(s.rstrip("0"))

    def append_bit(self, b: int) -> "BinaryNat":
        """Append one digit: append_bit(0) is 2n, append_bit(1) is 2n + 1."""
        if b not in (0, 1):
            raise DomainError(f"bit must be 0 or 1, got {b!r}")
        return BinaryNat._raw(self._bits + ("1" if b else "0"))

    # -- predicates and accessors ---------------------------------------

    def is_odd(self) -> bool:
        return self._bits[-1] == "1"

    def is_one(self) -> bool:
        return self._bits == "1"

    def bit_length(self) -> int:
        return len(self._bits)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryNat):
            return NotImplemented
        return self._bits == other._bits

    def __lt__(self, other: "BinaryNat") -> bool:
        a, b = self._bits, other._bits
        if len(a) != len(b):
            return len(a) < len(b)
        return a < b

    def __le__(self, other: "BinaryNat") -> bool:
        return self == other or self < other

    def __gt__(self, other: "BinaryNat") -> bool:
        return not self <= other

    def __ge__(self, other: "BinaryNat") -> bool:
        return not self < other

    def __hash__(self) -> int:
        return hash(self._bits)

    def __str__(self) -> str:
        return self._bits

    def __repr__(self) -> str:
        return f"BinaryNat({self._bits!r})"
