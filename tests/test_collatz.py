"""Orbit walks against plain-integer oracles."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from collatzbin import (
    CapExceeded,
    derivation_trace,
    sequence,
    step,
    stopping_time,
)

from conftest import bn, int_orbit
from windows import orbit_oracle


def test_step_branches():
    assert step(bn(5)) == bn(16)
    assert step(bn(16)) == bn(8)
    assert step(bn(1)) == bn(4)


@given(st.integers(min_value=1, max_value=10**30))
def test_step_oracle(n):
    value = step(bn(n))
    if n & 1:
        assert value.to_int() == 3 * n + 1
        assert value.to_int() > n  # tripling rises
    else:
        assert value.to_int() == n >> 1
        assert value.to_int() < n  # halving falls


def odd_values(n):
    # the odd values of a derivation, that is of its reduced steps, in order
    return [v for v, _ in derivation_trace(bn(n))]


def test_reduced_step_examples():
    # a record is one reduced step: the odd value and the halvings of 3v + 1
    # down to the value the next record starts from
    assert derivation_trace(bn(67))[0] == (67, 1) and odd_values(67)[1] == 101
    assert derivation_trace(bn(255))[0] == (255, 1) and odd_values(255)[1] == 383
    # 1 contracts its whole cycle
    assert derivation_trace(bn(1)) == [(1, 2)]


@given(st.integers(min_value=1, max_value=10**25))
def test_reduced_step_oracle(k):
    n = 2 * k + 1
    records = derivation_trace(bn(n))
    t = 3 * n + 1
    m = (t & -t).bit_length() - 1
    assert records[0] == (n, m)
    nxt = records[1].value if len(records) > 1 else 1
    assert nxt == t >> m and nxt & 1


def test_sequence_examples():
    t = sequence(bn(5), 10)
    assert t.values == (5, 16, 8, 4, 2, 1)
    assert all(type(v) is int for v in t.values)
    assert t.stopping_time == 5

    t = sequence(bn(1), 3)
    assert t.values == (1, 4, 2, 1)
    assert t.stopping_time == 0

    assert sequence(bn(255), 100).stopping_time == 47


def test_sequence_truncation_is_flagged():
    t = sequence(bn(27), 5)
    assert t.stopping_time is None
    assert len(t.values) == 6  # start plus five steps
    t0 = sequence(bn(1), 0)
    assert t0.values == (1,)
    assert t0.stopping_time == 0


@given(st.integers(min_value=1, max_value=100000))
@settings(max_examples=60)
def test_sequence_follows_the_map(n):
    t = sequence(bn(n), 10**4)
    vals = list(t.values)
    for a, b in zip(vals, vals[1:]):
        assert b == (3 * a + 1 if a & 1 else a >> 1)
    assert t.stopping_time == orbit_oracle(n)[0]
    assert vals[t.stopping_time] == 1
    assert 1 not in vals[: t.stopping_time]


def bit_values(b):
    # Hypothesis favours values near powers of two, whose orbits are short;
    # a seeded random value of the same length has a typical one
    return st.one_of(
        st.integers(min_value=1 << (b - 1), max_value=(1 << b) - 1),
        st.randoms(use_true_random=False).map(lambda r: r.getrandbits(b - 1) | 1 << (b - 1)),
    )


@given(st.integers(min_value=1, max_value=500).flatmap(bit_values))
@settings(max_examples=60)
def test_stopping_time_and_sequence_agree(n):
    # the two full-map walks, BinaryNat steps and plain ints, on both sides
    # of the cap that just reaches 1
    sigma = orbit_oracle(n)[0]
    for cap in sorted({1, sigma - 1, sigma, sigma + 1} - {-1}):
        t = sequence(bn(n), cap)
        assert t.values == tuple(int_orbit(n, cap))
        if t.stopping_time is None:
            with pytest.raises(CapExceeded):
                stopping_time(bn(n), cap)
        else:
            assert stopping_time(bn(n), cap) == t.stopping_time == sigma


def test_stopping_time_known_values():
    assert stopping_time(bn(1)) == 0
    assert stopping_time(bn(7)) == 16
    assert stopping_time(bn(255)) == 47
    assert stopping_time(bn(97)) == 118
    assert stopping_time(bn(10027)) == 91
    assert stopping_time(bn(78736985)) == 210


def test_stopping_time_cap_signal():
    with pytest.raises(CapExceeded):
        stopping_time(bn(27), cap=10)
    assert stopping_time(bn(27), cap=111) == 111


def test_stopping_time_fuzz_oracle():
    rng = random.Random(777)
    for _ in range(300):
        n = rng.randrange(1, 1 << 32)
        assert stopping_time(bn(n)) == orbit_oracle(n)[0]


def test_odd_chain_examples():
    # a derivation stops before the 1 it lands on
    assert odd_values(67) == [67, 101, 19, 29, 11, 17, 13, 5]
    assert odd_values(10027)[:4] == [10027, 15041, 11281, 8461]
    # 16's chain is the derivation of its odd part, 1: the one cycle record
    assert derivation_trace(bn(16 >> 4)) == derivation_trace(bn(1)) == [(1, 2)]


def test_odd_chain_cap_signal():
    with pytest.raises(CapExceeded):
        derivation_trace(bn(27), cap=3)
    with pytest.raises(CapExceeded):
        derivation_trace(bn(27), cap=40)
    assert len(derivation_trace(bn(27), cap=41)) == 41


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=60)
def test_odd_chain_agrees_with_sequence(n):
    # collapsing the halving runs of the full walk gives the derivation's
    # odd values, then 1; a power of two's odd part is 1 itself
    t = sequence(bn(n), 10**4)
    odds = [v for v in t.values[: t.stopping_time + 1] if v & 1]
    odd_part = n >> ((n & -n).bit_length() - 1)
    assert odds == ([] if odd_part == 1 else odd_values(odd_part)) + [1]


@given(st.integers(min_value=1, max_value=5 * 10**5))
@settings(max_examples=60)
def test_reduced_steps_account_for_all_plain_steps(k):
    # a record is one tripling and its halvings: shift + 1 plain steps
    n = 2 * k + 1
    assert sum(shift + 1 for _, shift in derivation_trace(bn(n))) == stopping_time(bn(n))


def end_substring(v):
    # the trailing-ones run of odd v, and the trailing zeros of 3v+1
    tripled = v.mul3_add1().to_int()
    return len(v.bits) - len(v.bits.rstrip("1")), (tripled & -tripled).bit_length() - 1


def test_end_substring_transitions():
    assert end_substring(bn(7)) == (3, 1)
    assert end_substring(bn(5)) == (1, 4)
    assert end_substring(bn(255)) == (8, 1)


def test_end_substring_laws_sampled():
    # the exhaustive 2**20 sweep lives in the acceptance suite
    rng = random.Random(90125)
    for _ in range(2000):
        n = rng.randrange(0, 1 << 40) * 2 + 1
        run, zeros = end_substring(bn(n))
        if run >= 2:
            assert zeros == 1
        else:
            assert zeros >= 2
