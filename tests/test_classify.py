"""Digit classes and hard numbers."""

import pytest
from hypothesis import given, strategies as st

from collatzbin import DomainError, NumberClass, classify, hard_number
from collatzbin.classify import class_counts

from conftest import bn, past_limit


def classify_oracle(n: int) -> NumberClass:
    # independent int-based classifier
    if n == 1:
        return NumberClass.ORIGIN
    if n & (n - 1) == 0:
        return NumberClass.PURE_EVEN
    if n & (n + 1) == 0:
        return NumberClass.PURE_ODD
    return NumberClass.MIXED_ODD if n & 1 else NumberClass.MIXED_EVEN


@pytest.mark.parametrize(
    "n,cls",
    [
        (60, NumberClass.MIXED_EVEN),
        (97, NumberClass.MIXED_ODD),
        (64, NumberClass.PURE_EVEN),
        (63, NumberClass.PURE_ODD),
        (1, NumberClass.ORIGIN),
        (2, NumberClass.PURE_EVEN),
        (3, NumberClass.PURE_ODD),
        (2**70, NumberClass.PURE_EVEN),
        (2**70 - 1, NumberClass.PURE_ODD),
    ],
)
def test_known_classes(n, cls):
    assert classify(bn(n)) is cls


def test_wire_tags():
    # declaration order is report order: every histogram and classes: line
    assert [c.value for c in NumberClass] == [
        "origin", "pure-even", "pure-odd", "mixed-even", "mixed-odd",
    ]


def test_partition_exhaustive_small():
    # per bit length L >= 2: one pure even, one pure odd, rest mixed
    counts = {}
    for n in range(1, 1 << 16):
        cls = classify(bn(n))
        assert cls is classify_oracle(n)
        counts.setdefault((n.bit_length(), cls), 0)
        counts[(n.bit_length(), cls)] += 1
    for length in range(2, 17):
        assert counts[(length, NumberClass.PURE_EVEN)] == 1
        assert counts[(length, NumberClass.PURE_ODD)] == 1
        mixed = counts.get((length, NumberClass.MIXED_EVEN), 0) + counts.get(
            (length, NumberClass.MIXED_ODD), 0
        )
        assert mixed == 2 ** (length - 1) - 2


def test_pure_families_up_to_seventy_bits():
    for m in range(2, 71):
        assert classify(bn(2**m)) is NumberClass.PURE_EVEN
        assert classify(bn(2**m - 1)) is NumberClass.PURE_ODD


@given(st.integers(min_value=1, max_value=10**30))
def test_classify_matches_oracle(n):
    assert classify(bn(n)) is classify_oracle(n)


# -- hard numbers

def test_hard_number_closed_form():
    assert hard_number(2) == bn(5)
    assert hard_number(1) == bn(1)
    assert hard_number(5) == bn(341)
    for k in range(1, 33):
        a = hard_number(k)
        assert a.to_int() == (4**k - 1) // 3
        assert a.bits == "10" * (k - 1) + "1"
        assert a.to_int().bit_length() == 2 * k - 1
        # one tripling step lands exactly on a power of two
        assert a.mul3_add1().bits == "1" + "0" * (2 * k)


def test_hard_number_rejects_zero():
    with pytest.raises(DomainError):
        hard_number(0)


def test_hard_number_rejects_a_negative_past_the_digit_limit():
    # "k must be >= 1, got {k}" printed k with str(): a raw ValueError
    with pytest.raises(DomainError, match="digit limit for int/str conversion"):
        hard_number(-(2**20000))


def test_hard_number_names_k_past_the_digit_limit():
    # the digit-limit message alone did not say which argument was wrong
    with pytest.raises(DomainError) as refused:
        hard_number(-(2**20000))
    assert str(refused.value).startswith("k must be >= 1")
    assert "digit limit for int/str conversion" in str(refused.value)


@pytest.mark.parametrize(
    "call, template",
    [
        (lambda: class_counts(2**20000, 5), "need 1 <= lo <= hi, got [{}, 5)"),
        # 2k - 1 is past the longest string the platform indexes
        (lambda: hard_number(10**5000), "the {}-digit hard number a_{} does not fit in memory"),
    ],
    ids=["class-counts", "hard-number-past-memory"],
)
def test_messages_past_the_digit_limit_keep_their_words(call, template):
    # the messages printed their numbers with str(): a raw ValueError past
    # the digit limit. Such a number is named by its sign and bit length, and
    # the message keeps its words
    with pytest.raises(DomainError, match=past_limit(template)):
        call()


@pytest.mark.parametrize("k, kind", [(True, "bool"), (2.5, "float")])
def test_hard_number_rejects_bools_and_floats(k, kind):
    # True returned a_1, and 2.5 raised a raw TypeError
    with pytest.raises(DomainError, match=f"k must be an integer value, got {kind}"):
        hard_number(k)
