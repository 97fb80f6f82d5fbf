"""Orbit walks against plain-integer oracles."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from collatzbin import (
    CapExceeded,
    StepKind,
    odd_chain,
    reduced_step,
    sequence,
    step,
    stopping_time,
)

from conftest import bn


def sigma_oracle(n: int) -> int:
    m = 0
    while n != 1:
        n = 3 * n + 1 if n & 1 else n >> 1
        m += 1
    return m


def test_step_branches():
    assert step(bn(5)) == (bn(16), StepKind.ODD)
    assert step(bn(16)) == (bn(8), StepKind.EVEN)
    assert step(bn(1)) == (bn(4), StepKind.ODD)


@given(st.integers(min_value=1, max_value=10**30))
def test_step_oracle(n):
    value, kind = step(bn(n))
    if n & 1:
        assert value.to_int() == 3 * n + 1 and kind is StepKind.ODD
        assert value > bn(n)  # tripling rises
    else:
        assert value.to_int() == n >> 1 and kind is StepKind.EVEN
        assert value < bn(n)  # halving falls


def test_reduced_step_examples():
    assert reduced_step(bn(67)) == (bn(101), 1, 2)
    assert reduced_step(bn(12)) == (bn(3), 2, 2)
    assert reduced_step(bn(255)) == (bn(383), 1, 2)
    # 1 contracts its whole cycle
    assert reduced_step(bn(1)) == (bn(1), 2, 3)


@given(st.integers(min_value=2, max_value=10**25))
def test_reduced_step_oracle(n):
    res = reduced_step(bn(n))
    t = 3 * n + 1 if n & 1 else n
    m = (t & -t).bit_length() - 1
    assert res.odd_result.to_int() == t >> m
    assert res.stripped_exponent == m
    assert res.t_steps_consumed == m + (1 if n & 1 else 0)
    assert res.odd_result.is_odd()


def test_sequence_examples():
    t = sequence(bn(5), 10)
    assert [e.value.to_int() for e in t.entries] == [5, 16, 8, 4, 2, 1]
    assert t.stopping_time == 5 and not t.truncated
    assert t.entries[0].kind is None
    assert t.entries[1].kind is StepKind.ODD

    t = sequence(bn(1), 3)
    assert [e.value.to_int() for e in t.entries] == [1, 4, 2, 1]
    assert t.stopping_time == 0 and not t.truncated

    assert sequence(bn(255), 100).stopping_time == 47


def test_sequence_truncation_is_flagged():
    t = sequence(bn(27), 5)
    assert t.truncated and t.stopping_time is None
    assert len(t.entries) == 6  # start plus five steps
    t0 = sequence(bn(1), 0)
    assert [e.value.to_int() for e in t0.entries] == [1]
    assert t0.stopping_time == 0 and not t0.truncated


@given(st.integers(min_value=1, max_value=100000))
@settings(max_examples=60)
def test_sequence_follows_the_map(n):
    t = sequence(bn(n), 10**4)
    vals = [e.value.to_int() for e in t.entries]
    for a, b in zip(vals, vals[1:]):
        assert b == (3 * a + 1 if a & 1 else a >> 1)
    assert t.stopping_time == sigma_oracle(n)
    assert vals[t.stopping_time] == 1
    assert 1 not in vals[: t.stopping_time]


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
        assert stopping_time(bn(n)) == sigma_oracle(n)


def test_odd_chain_examples():
    assert [v.to_int() for v in odd_chain(bn(67))] == [67, 101, 19, 29, 11, 17, 13, 5, 1]
    assert [v.to_int() for v in odd_chain(bn(16))] == [1]
    assert [v.to_int() for v in odd_chain(bn(10027))][:4] == [10027, 15041, 11281, 8461]
    assert [v.to_int() for v in odd_chain(bn(1))] == [1]


def test_odd_chain_cap_signal():
    with pytest.raises(CapExceeded):
        odd_chain(bn(27), cap=3)
    assert len(odd_chain(bn(27), cap=41)) == 42


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=60)
def test_odd_chain_agrees_with_sequence(n):
    # collapsing the halving runs of the full walk gives the odd chain
    t = sequence(bn(n), 10**4)
    odd_values = [e.value for e in t.entries[: t.stopping_time + 1] if e.value.is_odd()]
    assert odd_chain(bn(n)) == odd_values


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=60)
def test_reduced_steps_account_for_all_plain_steps(n):
    v = bn(n)
    total = v.trailing_zeros()
    x = v.shift_right(total) if total else v
    while not x.is_one():
        res = reduced_step(x)
        total += res.t_steps_consumed
        x = res.odd_result
    assert total == stopping_time(v)


def end_substring(v):
    # the trailing-ones run of odd v, and the trailing zeros of 3v+1
    return len(v.bits) - len(v.bits.rstrip("1")), v.mul3_add1().trailing_zeros()


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
