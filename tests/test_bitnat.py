"""Bit-string arithmetic against plain-integer oracles."""

import random
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, strategies as st

from collatzbin import BinaryNat, DomainError, ParityError

from conftest import bn

naturals = st.integers(min_value=1, max_value=10**40)


# -- construction and validation

def test_bits_roundtrip_int_oracle():
    for n in (1, 2, 3, 4, 5, 60, 97, 255, 10027, 2**70, 2**70 - 1):
        v = BinaryNat(format(n, "b"))
        assert v.bits == format(n, "b")
        assert v.to_int() == n


@pytest.mark.parametrize("bad", ["", "0", "01", "2", "1012", "0b11", " 1", "1 "])
def test_rejects_malformed_bit_strings(bad):
    with pytest.raises(DomainError):
        BinaryNat(bad)


def test_from_decimal_matches_int_parse():
    assert BinaryNat.from_decimal("10027").bits == format(10027, "b")
    assert BinaryNat.from_decimal("1").bits == "1"


@pytest.mark.parametrize("bad", ["", "0", "00", "-3", "1.5", "abc", "0x1f"])
def test_from_decimal_rejects_non_naturals(bad):
    with pytest.raises(DomainError):
        BinaryNat.from_decimal(bad)


@contextmanager
def int_str_digits(limit):
    """Run a block under CPython's int/str digit limit, restoring the old one."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def long_decimals(n_digits):
    rng = random.Random(n_digits)
    digits = "".join(rng.choice("0123456789") for _ in range(n_digits))
    # a leading nonzero digit, a leading-zero form, a run of zeros and 10^(n-1)
    return [
        "7" + digits[1:],
        "000" + "9" + digits[4:],
        "1" + "0" * (n_digits // 2) + digits[n_digits // 2 + 1 :],
        "1" + "0" * (n_digits - 1),
    ]


@pytest.mark.parametrize("n_digits", [641, 5000, 20000])
def test_from_decimal_past_the_int_str_limit(n_digits):
    for s in long_decimals(n_digits):
        got = BinaryNat.from_decimal(s).bits
        with int_str_digits(0):
            assert got == format(int(s), "b")


def test_from_decimal_under_the_lowest_int_str_limit():
    cases = [s for n in (641, 1282, 5000, 16000) for s in long_decimals(n)]
    with int_str_digits(0):
        want = [format(int(s), "b") for s in cases]
    with int_str_digits(640):
        got = [BinaryNat.from_decimal(s).bits for s in cases]
        assert sys.get_int_max_str_digits() == 640
    assert got == want


def test_from_int_holds_a_python_int():
    # a numpy integer is read as a Python int, so 3n + 1 cannot wrap at 64 bits
    v = BinaryNat.from_int(np.int64(2**62 + 1))
    assert type(v.to_int()) is int and v.mul3_add1().to_int() == 3 * 2**62 + 4
    with pytest.raises(TypeError):
        BinaryNat.from_int(2.5)


def test_zero_is_not_representable():
    with pytest.raises(DomainError):
        BinaryNat.from_int(0)
    with pytest.raises(DomainError):
        BinaryNat.from_int(-7)


@given(naturals)
def test_decimal_roundtrip(n):
    v = BinaryNat.from_decimal(str(n))
    assert v.bits == format(n, "b")
    assert v.to_decimal() == str(n)
    assert v.to_int() == n


# -- arithmetic

@given(naturals)
def test_mul3_add1_oracle(n):
    assert bn(n).mul3_add1().to_int() == 3 * n + 1


def test_mul3_add1_exhaustive_small():
    for n in range(1, 4096):
        assert bn(n).mul3_add1().bits == format(3 * n + 1, "b")


def test_mul3_add1_wide_values():
    rng = random.Random(20000)
    for n in (rng.getrandbits(20000) | 1 << 19999, 2**20000 - 1, 2**19999 + 1, 2**20000):
        assert BinaryNat.from_int(n).mul3_add1().to_int() == 3 * n + 1


def test_half_strips_one_zero():
    assert bn(16).half() == bn(8)
    assert bn(2).half() == bn(1)
    with pytest.raises(ParityError):
        bn(7).half()


def test_parity_errors_print_the_bits():
    with pytest.raises(ParityError) as exc:
        bn(7).half()
    assert str(exc.value) == "cannot halve odd value 111"


# -- equality, hashing

@given(naturals)
def test_every_constructor_gives_the_same_value(n):
    values = [BinaryNat(format(n, "b")), BinaryNat.from_int(n), BinaryNat.from_decimal(str(n))]
    assert all(v == values[0] and hash(v) == hash(values[0]) for v in values)
    assert {v.bits for v in values} == {format(n, "b")}


def test_hashable_and_usable_in_sets():
    assert len({bn(5), bn(5), bn(6)}) == 2
    assert bn(5) == BinaryNat("101")
    assert hash(bn(5)) == hash(BinaryNat("101"))


def test_predicates():
    assert bn(1).to_int() == 1 and bn(1).is_odd()
    assert bn(6).is_odd() is False
    assert bn(97).to_int().bit_length() == 7
    rng = random.Random(4001)
    for _ in range(10**4):
        n = rng.randrange(1, 1 << 60)
        v = BinaryNat.from_int(n)
        assert v.is_odd() == bool(n & 1)
        assert v.to_int().bit_length() == n.bit_length()
