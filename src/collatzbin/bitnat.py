"""Natural numbers read and printed as binary strings.

A :class:`BinaryNat` is parsed from, and prints as, the base-2 digits of a
natural number: a ``str`` of ``'0'``/``'1'`` characters, most significant
bit first, with no leading zeros.  The smallest representable value is 1;
zero does not exist in this domain, which removes an entire family of edge
cases from the layers built on top (halving, inverse maps, power
decompositions).

Between parsing and printing a value is one CPython int, and every
operation reads it: halving drops the final digit as a right shift, and
``bits`` formats the digits when it is read.  Decimal input is converted
piecewise so that no single ``int()`` call sees more than 640 digits.
"""

from __future__ import annotations

import sys
from operator import index

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


def shown(n: int) -> str:
    """n as a DomainError message names it: str(n), or past the int/str limit its size."""
    try:
        return str(n)
    except ValueError:
        sign, limit = "negative " if n < 0 else "", sys.get_int_max_str_digits()
        return f"<{sign}{n.bit_length()}-bit integer past the {limit}-digit limit for int/str conversion>"


def natural(name: str, value: int) -> int:
    """value, if it is an int >= 1; otherwise DomainError naming it.

    Refuses a bool, which isinstance counts as an int and which prints as True.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer value, got {type(value).__name__}")
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {shown(value)}")
    return value


class BinaryNat:
    """An arbitrary-size natural number (>= 1), read and printed as a bit string."""

    __slots__ = ("_n",)

    def __init__(self, bits: str):
        if not bits or bits.strip("01"):
            raise DomainError(f"not a binary digit string: {bits!r}")
        if bits[0] != "1":
            raise DomainError(f"leading zeros are not canonical: {bits!r}")
        self._n = int(bits, 2)

    @classmethod
    def _raw(cls, n: int) -> "BinaryNat":
        # internal fast path: n already an int >= 1
        obj = object.__new__(cls)
        obj._n = n
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
        return cls._raw(_decimal_value(s))

    @classmethod
    def from_int(cls, n: int) -> "BinaryNat":
        """Convenience constructor from a host integer >= 1."""
        n = index(n)  # a Python int, also from a numpy integer, which would wrap
        if n < 1:
            raise DomainError(f"value must be >= 1, got {shown(n)}")
        return cls._raw(n)

    @property
    def bits(self) -> str:
        return format(self._n, "b")

    def to_decimal(self) -> str:
        """Decimal digit string of this value.

        Raises DomainError past the interpreter's int/str digit limit.
        """
        return int_to_decimal(self._n)

    def to_int(self) -> int:
        """This value as a host integer."""
        return self._n

    # -- arithmetic ------------------------------------------------------

    def mul3_add1(self) -> "BinaryNat":
        """Return 3n + 1; the result of an odd input is always even."""
        return BinaryNat._raw(3 * self._n + 1)

    def half(self) -> "BinaryNat":
        """Return n / 2 by dropping the final digit; the input must be even."""
        if self._n & 1:
            raise ParityError(f"cannot halve odd value {self.bits}")
        return BinaryNat._raw(self._n >> 1)

    # -- predicates ------------------------------------------------------

    def is_odd(self) -> bool:
        return self._n & 1 == 1

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryNat):
            return NotImplemented
        return self._n == other._n

    def __hash__(self) -> int:
        return hash(self._n)

    def __str__(self) -> str:
        return self.bits

    def __repr__(self) -> str:
        return f"BinaryNat({self.bits!r})"
