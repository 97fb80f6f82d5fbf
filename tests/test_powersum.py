"""Merge derivations: records, the carry, shifts, and the rendered sets."""

import pytest
from hypothesis import given, settings, strategies as st

from collatzbin import (
    CapExceeded,
    ParityError,
    derivation_trace,
    hard_number,
    render_derivation,
    sequence,
)
from collatzbin.powersum import DerivationRecord
from collatzbin.traceio import _exponent_sets

from conftest import bn, derivation_lines, derivation_rows, exponents


def value_of(exps):
    return sum(1 << e for e in exps)


def one_bits(v):
    return tuple(i for i in range(v.bit_length() - 1, -1, -1) if v >> i & 1)


def test_to_powersum_examples():
    # a value's power sum is its one digits: 67, 1, and 202 = 3 * 67 + 1
    assert derivation_lines(67)[0][1] == (6, 1, 0)
    assert derivation_lines(1)[0][1] == (0,)
    assert derivation_lines(67)[0][3] == (7, 6, 3, 1)


def test_merge_examples():
    # before is the one digits of n, after those of 3n + 1 (202 for 67)
    assert derivation_lines(67)[0][1:4:2] == ((6, 1, 0), (7, 6, 3, 1))
    assert derivation_lines(1)[0][1:4:2] == ((0,), (2,))
    assert derivation_lines(5)[0][1:4:2] == ((2, 0), (4,))


@given(
    st.integers(min_value=1, max_value=20000).flatmap(
        lambda b: st.integers(min_value=1 << (b - 1), max_value=(1 << b) - 1)
    )
)
@settings(max_examples=40)
def test_exponent_sets_match_plain_int_bits(n):
    # no decimals: the sets alone, for values past the int/str limit too
    n |= 1
    t = 3 * n + 1
    [(before, raw, after)] = _exponent_sets([DerivationRecord(n, (t & -t).bit_length() - 1)], ",")
    assert exponents(before) == one_bits(n)
    assert exponents(raw) == tuple(sorted([e + 1 for e in one_bits(n)] + list(one_bits(n)) + [0], reverse=True))
    assert exponents(after) == one_bits(t)


def test_merge_exhaustive_against_bit_engine():
    for n in range(1, 1 << 12, 2):
        _, before, raw, after, _, _ = derivation_lines(n)[0]
        tripled = bn(n).mul3_add1().to_int()
        assert value_of(before) == n
        assert value_of(raw) == value_of(after) == tripled


@given(st.integers(min_value=0, max_value=10**20))
def test_shift_matches_bit_engine(k):
    # the carried set shifted down by h is the bit engine's 3n+1 halved h times
    n = 2 * k + 1
    _, _, _, after, h, nxt = derivation_lines(n)[0]
    tripled = bn(n).mul3_add1()
    assert h == tripled.trailing_zeros()
    assert value_of(e - h for e in after) == tripled.shift_right(h).to_int() == nxt


def test_geometric_identity():
    # 2^(2k-1) + ... + 2 + 1 = 4^k - 1: the raw multiset of the hard number
    # (4^k - 1)/3, whose one more 2^0 carries it all to 2^(2k) in one record
    for k in (1, 2, 6, 31, 70):
        a = hard_number(k)
        assert derivation_trace(a) == [(a.to_int(), 2 * k)]
        assert derivation_lines(a.to_int()) == [
            (a.to_int(), one_bits(a.to_int()), (*range(2 * k - 1, -1, -1), 0), (2 * k,), 2 * k, 1)
        ]


def test_hard_closed_form():
    # a_k = (4^k - 1)/3 and T(a_k) = 4^k
    for k, a in ((2, 5), (1, 1), (7, 5461)):
        assert hard_number(k) == bn(a)
        assert hard_number(k).mul3_add1() == bn(4**k)


def test_derivation_trace_worked_chain():
    records = derivation_trace(bn(67))
    assert len(records) == 8
    assert records[0] == (67, 1)
    assert records[1].value == 101
    rows = derivation_lines(67)
    assert rows[0][1:] == ((6, 1, 0), (7, 6, 2, 1, 1, 0, 0), (7, 6, 3, 1), 1, 101)
    assert rows[1][1] == (6, 5, 2, 0)  # 101
    last = rows[-1]
    assert tuple(e - last[4] for e in last[3]) == (0,)
    assert last[5] == 1


def test_derivation_trace_small_cases():
    assert derivation_trace(bn(5)) == [(5, 4)]
    assert render_derivation(derivation_trace(bn(5))) == "5 = {2,0} -> {3,2,1,0,0} -> {4} -> shift 4 -> 1\n"
    assert derivation_trace(bn(1)) == [(1, 2)]
    assert render_derivation(derivation_trace(bn(1))) == "1 = {0} -> {1,0,0} -> {2} -> shift 2 -> 1\n"


def test_derivation_trace_guards():
    with pytest.raises(ParityError):
        derivation_trace(bn(6))
    with pytest.raises(CapExceeded):
        derivation_trace(bn(27), cap=3)


@given(st.integers(min_value=1, max_value=5000))
@settings(max_examples=40)
def test_derivation_endpoints_match_odd_chain(k):
    # the rendered values and the last next value are the odd entries of
    # the full walk; n = 1 is excluded: its derivation holds the one cycle
    # record while the walk stops at 1 without looping
    n = 2 * k + 1
    rows = derivation_lines(n)
    odds = [v for v in sequence(bn(n)).values if v.is_odd()]
    assert [bn(row[0]) for row in rows] + [bn(rows[-1][5])] == odds


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
    assert records == [(v, h) for v, _, h in walk]
    # the rendered sets: one digits of v, 2v + v + 1 before carrying, one
    # digits of 3v + 1, each landing on the next line's value
    rows = derivation_rows(render_derivation(records))
    assert len(rows) == len(walk)
    for (value, before, raw, after, shift, nxt), (v, t, h) in zip(rows, walk):
        assert value == v and before == one_bits(v)
        assert list(raw) == sorted(raw, reverse=True)
        assert value_of(raw) == 3 * value_of(before) + 1 == t
        assert after == one_bits(t)
        assert shift == h and tuple(e - h for e in after) == one_bits(nxt)
