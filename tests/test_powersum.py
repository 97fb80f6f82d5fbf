"""Exponent-list arithmetic: merge, carries, shifts, derivations."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from collatzbin import (
    CapExceeded,
    DomainError,
    ExponentMultiset,
    ParityError,
    PowerSum,
    derivation_trace,
    from_powersum,
    normalize,
    odd_chain,
    to_powersum,
)
from collatzbin.powersum import hard_closed_form, shift_powers

from conftest import bn


def ps(*exps):
    return PowerSum(tuple(exps))


def value_of(exponents):
    return sum(2**e for e in exponents)


def merge(p):
    # 3n+1 = 2n + n + 1: double every term, re-add them, append 2^0, carry
    return normalize(ExponentMultiset([e + 1 for e in p.exponents] + list(p.exponents) + [0]))


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


def test_normalize_examples():
    assert normalize(ExponentMultiset([1, 1])) == ps(2)
    assert normalize(ExponentMultiset([0, 0, 1])) == ps(2)
    assert normalize(ExponentMultiset([3, 2, 1, 1, 0, 0])) == ps(4, 1)
    with pytest.raises(DomainError):
        normalize(ExponentMultiset([]))


@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=30))
def test_normalize_conserves_value(exps):
    assert value_of(normalize(ExponentMultiset(exps)).exponents) == value_of(exps)


def test_normalize_wide_multiset():
    rng = random.Random(2000)
    exps = [rng.randrange(10000) for _ in range(2000)] + [9999, 9999, 0, 0, 0]
    assert value_of(normalize(ExponentMultiset(exps)).exponents) == value_of(exps)


def test_normalize_confluence_random_rewrite_order():
    # apply the pairwise rule in random order; the endpoint never varies
    rng = random.Random(555)
    for _ in range(10**4):
        exps = [rng.randrange(0, 12) for _ in range(rng.randrange(1, 10))]
        work = list(exps)
        while True:
            dups = [e for e in set(work) if work.count(e) >= 2]
            if not dups:
                break
            e = rng.choice(dups)
            work.remove(e)
            work.remove(e)
            work.append(e + 1)
        assert tuple(sorted(work, reverse=True)) == normalize(ExponentMultiset(exps)).exponents


def test_merge_examples():
    assert merge(ps(6, 1, 0)) == ps(7, 6, 3, 1)
    assert merge(ps(0)) == ps(2)
    assert merge(ps(2, 0)) == ps(4)


def test_merge_exhaustive_against_bit_engine():
    for n in range(1, 1 << 12, 2):
        assert from_powersum(merge(to_powersum(bn(n)))) == bn(n).mul3_add1()


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
    # 2^(k-1) + ... + 2 + 1 = 2^k - 1: one more 2^0 carries it all to 2^k
    for k in (1, 2, 6, 31, 70):
        assert normalize(ExponentMultiset([*range(k), 0])).exponents == (k,)


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
