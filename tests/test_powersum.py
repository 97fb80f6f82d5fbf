"""Exponent-list arithmetic: merge, carries, shifts, derivations."""

import pytest
from hypothesis import given, settings, strategies as st

from collatzbin import (
    BinaryNat,
    CapExceeded,
    DomainError,
    ExponentMultiset,
    ParityError,
    PowerSum,
    derivation_trace,
    from_powersum,
    odd_chain,
    to_powersum,
)
from collatzbin.powersum import hard_closed_form, shift_powers

from conftest import bn


def ps(*exps):
    return PowerSum(tuple(exps))


def value_of(exponents):
    return sum(2**e for e in exponents)


def merge(n):
    # the first record of a derivation carries 3n+1 = 2n + n + 1 from n
    return derivation_trace(bn(n))[0].after


def one_bits(v):
    return tuple(i for i in range(v.bit_length() - 1, -1, -1) if v >> i & 1)


def test_powersum_validation():
    for exps, message in (
        ((), "a power sum needs at least one term"),
        ((3, 3), "exponents must strictly decrease, got (3, 3)"),
        ((1, 2), "exponents must strictly decrease, got (1, 2)"),
        ((2, -1), "negative exponent in (2, -1)"),
        ((-1, 2), "negative exponent in (-1, 2)"),  # the sign is checked before the order
    ):
        with pytest.raises(DomainError) as exc:
            PowerSum(exps)
        assert str(exc.value) == message
    assert str(ps(6, 1, 0)) == "{6,1,0}"
    assert str(ExponentMultiset([0, 3, 3])) == "{3,3,0}"


def test_to_powersum_examples():
    assert to_powersum(bn(67)) == ps(6, 1, 0)
    assert to_powersum(bn(1)) == ps(0)
    assert to_powersum(bn(202)) == ps(7, 6, 3, 1)


@given(st.integers(min_value=1, max_value=10**30))
def test_powersum_roundtrip(n):
    p = to_powersum(bn(n))
    assert value_of(p.exponents) == n
    assert from_powersum(p) == bn(n)


@given(
    st.integers(min_value=1, max_value=20000).flatmap(
        lambda b: st.integers(min_value=1 << (b - 1), max_value=(1 << b) - 1)
    )
)
@settings(max_examples=40)
def test_to_powersum_matches_plain_int_bits(n):
    assert to_powersum(BinaryNat.from_int(n)).exponents == one_bits(n)


def test_merge_examples():
    assert merge(67) == ps(7, 6, 3, 1)
    assert merge(1) == ps(2)
    assert merge(5) == ps(4)


def test_merge_exhaustive_against_bit_engine():
    for n in range(1, 1 << 12, 2):
        assert from_powersum(merge(n)) == bn(n).mul3_add1()


def test_shift_examples():
    assert shift_powers(ps(7, 6, 3, 1), 1) == ps(6, 5, 2, 0)
    assert shift_powers(ps(4), 4) == ps(0)
    p = ps(5, 2)
    assert shift_powers(p, 0) is p
    with pytest.raises(ParityError):
        shift_powers(ps(4, 2), 3)
    with pytest.raises(ParityError):
        shift_powers(ps(4, 2), -1)


@given(st.integers(min_value=1, max_value=10**20), st.integers(min_value=0, max_value=30))
def test_shift_matches_bit_engine(odd, k):
    n = (2 * odd - 1) << k
    v = bn(n)
    assert from_powersum(shift_powers(to_powersum(v), k)) == v.shift_right(k)


def test_geometric_identity():
    # 2^(2k-1) + ... + 2 + 1 = 4^k - 1: the raw multiset of the hard number
    # (4^k - 1)/3, whose one more 2^0 carries it all to 2^(2k) in one record
    for k in (1, 2, 6, 31, 70):
        a = hard_closed_form(k)[0]
        assert derivation_trace(a) == [
            (to_powersum(a), ExponentMultiset([*range(2 * k), 0]), ps(2 * k), 2 * k)
        ]


def test_hard_closed_form():
    assert hard_closed_form(2) == (bn(5), bn(16))
    assert hard_closed_form(1) == (bn(1), bn(4))
    assert hard_closed_form(7) == (bn(5461), bn(2**14))


def test_derivation_trace_worked_chain():
    records = derivation_trace(bn(67))
    assert len(records) == 8
    assert records[0].before == ps(6, 1, 0)
    assert records[0].raw.exponents == (7, 6, 2, 1, 1, 0, 0)
    assert records[0].after == ps(7, 6, 3, 1)
    assert records[0].shift == 1
    assert records[1].before == ps(6, 5, 2, 0)  # 101
    last = records[-1]
    assert shift_powers(last.after, last.shift) == ps(0)


def test_derivation_trace_small_cases():
    recs5 = derivation_trace(bn(5))
    assert recs5 == [(ps(2, 0), ExponentMultiset([3, 2, 1, 0, 0]), ps(4), 4)]
    recs1 = derivation_trace(bn(1))
    assert len(recs1) == 1
    assert recs1[0].before == ps(0)
    assert recs1[0].after == ps(2)
    assert recs1[0].shift == 2


def test_derivation_trace_guards():
    with pytest.raises(ParityError):
        derivation_trace(bn(6))
    with pytest.raises(CapExceeded):
        derivation_trace(bn(27), cap=3)


@given(st.integers(min_value=1, max_value=5000))
@settings(max_examples=40)
def test_derivation_endpoints_match_odd_chain(k):
    # n = 1 is excluded: its derivation holds the one cycle record while
    # the odd chain stops at [1] without looping
    n = 2 * k + 1
    records = derivation_trace(bn(n))
    odds = [from_powersum(r.before) for r in records]
    odds.append(from_powersum(shift_powers(records[-1].after, records[-1].shift)))
    assert odds == odd_chain(bn(n))


def _short_orbit_start(shifts):
    # odd m with 3m + 1 = v * 2^h, walked back from 1: each shift picks the
    # smallest h of the right parity at or past it (v = 1 skips h = 2, which
    # would loop on 1, and no m is a multiple of 3, which has no odd
    # predecessor), so the orbit has one reduced step per shift and n
    # reaches thousands of bits in a few dozen steps
    v = 1
    for want in shifts:
        h = max(want, 3 if v == 1 else 1)
        h += (v << h) % 3 != 1  # v * 2^h must be 1 mod 3
        while ((v << h) - 1) // 3 % 3 == 0:
            h += 2
        m = ((v << h) - 1) // 3
        if m.bit_length() > 2000:
            break
        v = m
    return v


@given(
    st.one_of(
        st.integers(min_value=1, max_value=2000).flatmap(
            lambda b: st.integers(min_value=1 << (b - 1), max_value=(1 << b) - 1)
        ),
        st.lists(st.integers(min_value=1, max_value=160), max_size=60).map(_short_orbit_start),
    ),
    st.integers(min_value=1, max_value=80),
)
@settings(max_examples=60, deadline=None)
def test_derivation_records_match_plain_ints(n, cap):
    n |= 1
    walk, v = [], n
    while len(walk) < cap:
        t = 3 * v + 1
        walk.append((v, t, (t & -t).bit_length() - 1))
        v = t >> walk[-1][2]
        if v == 1:
            break
    if v != 1:
        with pytest.raises(CapExceeded):
            derivation_trace(bn(n), cap)
        return
    records = derivation_trace(bn(n), cap)
    assert len(records) == len(walk)
    assert value_of(records[0].before.exponents) == n
    for rec, nxt, (v, t, h) in zip(records, records[1:] + [None], walk):
        assert rec.before.exponents == one_bits(v)
        assert sum(1 << e for e in rec.raw.exponents) == 3 * value_of(rec.before.exponents) + 1 == t
        assert rec.after.exponents == one_bits(t)
        assert rec.shift == h
        landing = tuple(e - h for e in rec.after.exponents)
        assert landing == (nxt.before.exponents if nxt is not None else (0,))
