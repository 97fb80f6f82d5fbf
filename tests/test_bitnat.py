"""Bit-string arithmetic against plain-integer oracles."""

import random
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, strategies as st

from collatzbin import ONE, BinaryNat, DomainError, ParityError

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
    assert bn(2).half() == ONE
    with pytest.raises(ParityError):
        bn(7).half()


@given(naturals, st.integers(min_value=0, max_value=50))
def test_shift_right_matches_division(n, k):
    v = bn(n << k)
    assert v.shift_right(k).to_int() == n
    assert v.shift_right(0) is v


def test_shift_right_needs_enough_zeros():
    with pytest.raises(ParityError):
        bn(12).shift_right(3)  # only two trailing zeros
    with pytest.raises(ParityError):
        bn(8).shift_right(-1)


@given(st.integers(min_value=1, max_value=10**25), st.integers(min_value=0, max_value=60))
def test_trailing_zeros_is_two_adic_valuation(odd_part, k):
    odd = 2 * odd_part - 1
    assert bn(odd << k).trailing_zeros() == k


def test_end_substring_is_trailing_ones_run():
    assert bn(7).end_substring_len() == 3  # 111
    assert bn(5).end_substring_len() == 1  # 101
    assert bn(0b1011011111).end_substring_len() == 5
    with pytest.raises(ParityError):
        bn(6).end_substring_len()


@given(naturals)
def test_append_bit_doubles(n):
    v = bn(n)
    assert v.append_bit(0).to_int() == 2 * n
    assert v.append_bit(1).to_int() == 2 * n + 1


def test_append_bit_validates():
    with pytest.raises(DomainError):
        bn(3).append_bit(2)


# -- ordering, equality, hashing

@given(naturals, naturals)
def test_comparisons_match_integers(a, b):
    va, vb = bn(a), bn(b)
    assert (va < vb) == (a < b)
    assert (va <= vb) == (a <= b)
    assert (va == vb) == (a == b)
    assert (va > vb) == (a > b)


def test_hashable_and_usable_in_sets():
    assert len({bn(5), bn(5), bn(6)}) == 2
    assert bn(5) == BinaryNat("101")
    assert hash(bn(5)) == hash(BinaryNat("101"))


def test_predicates():
    assert ONE.is_one() and ONE.is_odd()
    assert bn(6).is_odd() is False
    assert bn(97).bit_length() == 7
    rng = random.Random(4001)
    for _ in range(10**4):
        n = rng.randrange(1, 1 << 60)
        v = BinaryNat.from_int(n)
        assert v.is_odd() == bool(n & 1)
        assert v.bit_length() == n.bit_length()
        assert v.trailing_zeros() == (n & -n).bit_length() - 1
